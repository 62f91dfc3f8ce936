//! Continuous-time quantum walks on graphs.
//!
//! Following Sec. II-A of the paper, the CTQW on a graph `G(V, E)` evolves
//! under the Schrödinger equation with the combinatorial Laplacian
//! `L = D - A` as Hamiltonian. With the spectral decomposition `L = Φ Λ Φᵀ`
//! the state at time `t` is `|ψ_t⟩ = Φ e^{-iΛt} Φᵀ |ψ_0⟩` (Eq. 3), the
//! initial amplitudes being the square root of the degree distribution.
//!
//! The object the kernels consume is the **time-averaged mixed density
//! matrix** for `T → ∞` (Eq. 5), which has the closed form
//!
//! ```text
//! ρ_G^∞ = Σ_{λ ∈ Λ̃}  P_λ |ψ_0⟩⟨ψ_0| P_λ
//! ```
//!
//! where `P_λ` projects onto the eigenspace of the distinct eigenvalue `λ`.
//! The cross terms between different eigenvalues average to zero, which is
//! exactly the triple sum of Eq. (5).

use crate::density::DensityMatrix;
use haqjsk_graph::Graph;
use haqjsk_linalg::{symmetric_eigen, LinalgError, Matrix};

/// Tolerance for grouping numerically equal Laplacian eigenvalues into one
/// eigenspace when evaluating the closed form of Eq. (5).
pub const EIGENSPACE_TOL: f64 = 1e-8;

/// The CTQW initial state used throughout the paper, for an arbitrary
/// weighted adjacency matrix: the square root of the normalised (weighted)
/// degree distribution; uniform when the matrix has no mass.
pub fn initial_state_from_adjacency(adjacency: &Matrix) -> Vec<f64> {
    let n = adjacency.rows();
    let mut degrees = vec![0.0_f64; n];
    for (i, degree) in degrees.iter_mut().enumerate() {
        *degree = adjacency.row(i).iter().map(|x| x.abs()).sum();
    }
    let total: f64 = degrees.iter().sum();
    if total <= 0.0 {
        return vec![(1.0 / n.max(1) as f64).sqrt(); n];
    }
    degrees.into_iter().map(|d| (d / total).sqrt()).collect()
}

/// Laplacian `D - A` of a weighted adjacency matrix (weights contribute to
/// the degree).
pub fn laplacian_of_adjacency(adjacency: &Matrix) -> Result<Matrix, LinalgError> {
    if !adjacency.is_square() {
        return Err(LinalgError::NotSquare {
            rows: adjacency.rows(),
            cols: adjacency.cols(),
        });
    }
    let n = adjacency.rows();
    let mut l = adjacency.scale(-1.0);
    for i in 0..n {
        let degree: f64 = adjacency.row(i).iter().sum();
        l[(i, i)] += degree + adjacency[(i, i)];
    }
    Ok(l)
}

/// Computes the infinite-time averaged CTQW density matrix (Eq. 5) for an
/// arbitrary symmetric weighted adjacency matrix.
///
/// This is the workhorse shared by the baseline QJSK kernels (which evolve
/// the walk on the original graphs) and the HAQJSK(A) kernel (which evolves
/// it on the hierarchical transitive aligned adjacency matrices).
pub fn ctqw_density_from_adjacency(adjacency: &Matrix) -> Result<DensityMatrix, LinalgError> {
    let n = adjacency.rows();
    if n == 0 {
        return Err(LinalgError::InvalidArgument(
            "cannot evolve a CTQW on an empty graph".to_string(),
        ));
    }
    let laplacian = laplacian_of_adjacency(adjacency)?;
    let eig = symmetric_eigen(&laplacian.symmetrize()?)?;
    let psi0 = initial_state_from_adjacency(adjacency);

    // Project the initial state onto the eigenbasis: ψ̄_a = ⟨φ_a | ψ_0⟩.
    let q = &eig.eigenvectors;
    let projected = q.transpose().matvec(&psi0)?;

    // ρ^∞ = Σ_λ (P_λ ψ0)(P_λ ψ0)ᵀ, with P_λ ψ0 = Σ_{a ∈ B_λ} ψ̄_a φ_a.
    let mut rho = Matrix::zeros(n, n);
    for (_, basis) in eig.eigenspaces(EIGENSPACE_TOL) {
        let mut component = vec![0.0_f64; n];
        for &a in &basis {
            let w = projected[a];
            if w == 0.0 {
                continue;
            }
            for r in 0..n {
                component[r] += w * q[(r, a)];
            }
        }
        for r in 0..n {
            if component[r] == 0.0 {
                continue;
            }
            for c in 0..n {
                rho[(r, c)] += component[r] * component[c];
            }
        }
    }

    DensityMatrix::from_unnormalized(&rho)
}

/// Infinite-time averaged CTQW density matrix of a graph (Eq. 5), using the
/// combinatorial Laplacian as the Hamiltonian and the square root of the
/// degree distribution as the initial state.
pub fn ctqw_density_infinite(graph: &Graph) -> Result<DensityMatrix, LinalgError> {
    ctqw_density_from_adjacency(&graph.adjacency_matrix())
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    #[test]
    fn initial_state_is_normalized() {
        let g = path_graph(4);
        let psi = initial_state_from_adjacency(&g.adjacency_matrix());
        let norm: f64 = psi.iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        // Edgeless graph gets the uniform state.
        let e = Graph::new(3);
        let psi_e = initial_state_from_adjacency(&e.adjacency_matrix());
        assert!((psi_e[0] - (1.0 / 3.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn density_matrix_is_valid_state() {
        for g in [
            path_graph(5),
            cycle_graph(6),
            star_graph(7),
            complete_graph(4),
        ] {
            let rho = ctqw_density_infinite(&g).unwrap();
            let m = rho.matrix();
            assert_eq!(rho.dim(), g.num_vertices());
            assert!((m.trace() - 1.0).abs() < 1e-9);
            assert!(m.is_symmetric(1e-9));
            let spectrum = rho.spectrum().unwrap();
            assert!(spectrum.iter().all(|&l| l >= -1e-9));
        }
    }

    #[test]
    fn density_distinguishes_non_isomorphic_graphs() {
        let a = ctqw_density_infinite(&cycle_graph(6)).unwrap();
        let b = ctqw_density_infinite(&path_graph(6)).unwrap();
        let diff = (a.matrix() - b.matrix()).max_abs();
        assert!(diff > 1e-3, "densities should differ, max diff {diff}");
    }

    #[test]
    fn density_is_permutation_covariant() {
        // Relabelling the graph conjugates the density matrix by the same
        // permutation — the root cause of the QJSK permutation-invariance
        // problem the paper fixes.
        let g = star_graph(5);
        let perm = vec![4, 3, 2, 1, 0];
        let pg = g.permute(&perm).unwrap();
        let rho = ctqw_density_infinite(&g).unwrap();
        let rho_p = ctqw_density_infinite(&pg).unwrap();
        let conjugated = rho.permute(&perm).unwrap();
        assert!((rho_p.matrix() - conjugated.matrix()).max_abs() < 1e-9);
    }

    /// The real part of the finite-horizon average
    /// `ρ_G^T = (1/T)∫_0^T |ψ_t⟩⟨ψ_t| dt`, by the midpoint rule over
    /// `steps` sample times. With `u_t = Φ cos(Λt) Φᵀψ0` and
    /// `v_t = Φ sin(Λt) Φᵀψ0` the state is `|ψ_t⟩ = u_t - i v_t`, so
    /// `Re |ψ_t⟩⟨ψ_t| = u_t u_tᵀ + v_t v_tᵀ` and no complex arithmetic is
    /// needed. Independent of the closed form: no eigenspace grouping.
    fn finite_time_average(graph: &Graph, horizon: f64, steps: usize) -> Matrix {
        let n = graph.num_vertices();
        let eig = symmetric_eigen(&graph.laplacian()).unwrap();
        let phi = &eig.eigenvectors;
        let psi0 = initial_state_from_adjacency(&graph.adjacency_matrix());
        let projected = phi.transpose().matvec(&psi0).unwrap();
        let mut average = Matrix::zeros(n, n);
        for step in 0..steps {
            let t = horizon * (step as f64 + 0.5) / steps as f64;
            let (cos, sin): (Vec<f64>, Vec<f64>) = eig
                .eigenvalues
                .iter()
                .zip(&projected)
                .map(|(&lambda, &p)| ((lambda * t).cos() * p, (lambda * t).sin() * p))
                .unzip();
            let u = phi.matvec(&cos).unwrap();
            let v = phi.matvec(&sin).unwrap();
            for r in 0..n {
                for c in 0..n {
                    average[(r, c)] += u[r] * u[c] + v[r] * v[c];
                }
            }
        }
        average.scale(1.0 / steps as f64)
    }

    #[test]
    fn finite_time_density_converges_to_infinite_limit() {
        let g = path_graph(5);
        let limit = ctqw_density_infinite(&g).unwrap();
        let short = finite_time_average(&g, 5.0, 64);
        let long = finite_time_average(&g, 200.0, 512);
        let err_short = (&short - limit.matrix()).max_abs();
        let err_long = (&long - limit.matrix()).max_abs();
        assert!(err_long < err_short, "long {err_long} vs short {err_short}");
        assert!(err_long < 5e-4, "long-horizon error too large: {err_long}");
    }

    #[test]
    fn weighted_adjacency_accepted() {
        // The aligned adjacency matrices of HAQJSK(A) are weighted; the CTQW
        // must accept arbitrary non-negative symmetric matrices.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 1)] = 2.5;
        a[(1, 0)] = 2.5;
        a[(1, 2)] = 0.5;
        a[(2, 1)] = 0.5;
        let rho = ctqw_density_from_adjacency(&a).unwrap();
        assert!((rho.matrix().trace() - 1.0).abs() < 1e-9);
        assert!(rho.spectrum().unwrap().iter().all(|&l| l >= -1e-9));
        // All-zero adjacency still produces a valid (uniform-ish) state.
        let z = Matrix::zeros(3, 3);
        let rho_z = ctqw_density_from_adjacency(&z).unwrap();
        assert!((rho_z.matrix().trace() - 1.0).abs() < 1e-9);
        // Empty input is rejected.
        assert!(ctqw_density_from_adjacency(&Matrix::zeros(0, 0)).is_err());
        assert!(laplacian_of_adjacency(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn regular_graph_density_is_uniform_diagonal() {
        // On a vertex-transitive graph with the degree-distribution start
        // state, every vertex carries the same diagonal weight.
        let g = cycle_graph(6);
        let rho = ctqw_density_infinite(&g).unwrap();
        let d = rho.matrix().diagonal();
        for &x in &d {
            assert!((x - d[0]).abs() < 1e-9);
        }
    }
}
