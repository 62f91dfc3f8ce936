//! Classical continuous-time random walk (CTRW) baseline.
//!
//! The paper motivates the CTQW by contrasting it with the classical CTRW:
//! the classical walk is governed by the (doubly) stochastic heat-kernel
//! semigroup `e^{-tL}` and converges to a stationary distribution dominated
//! by the low Laplacian frequencies, which makes it a weaker discriminator of
//! global structure. This module implements the classical counterpart so the
//! benchmark harness can reproduce that comparison quantitatively.

use haqjsk_graph::Graph;
use haqjsk_linalg::{symmetric_eigen, LinalgError, Matrix};

/// The heat-kernel matrix `e^{-tL}` of the graph Laplacian at time `t`,
/// computed through the spectral decomposition.
pub fn heat_kernel(graph: &Graph, t: f64) -> Result<Matrix, LinalgError> {
    let eig = symmetric_eigen(&graph.laplacian())?;
    Ok(eig.map_spectrum(|lambda| (-t * lambda).exp()))
}

/// The CTRW occupation distribution at time `t`, starting from the degree
/// distribution (the classical analogue of the CTQW initial state).
pub fn ctrw_distribution(graph: &Graph, t: f64) -> Result<Vec<f64>, LinalgError> {
    let kernel = heat_kernel(graph, t)?;
    let p0 = graph.degree_distribution();
    let mut p = kernel.matvec(&p0)?;
    // The heat kernel is stochastic up to numerical error; renormalise so the
    // result stays a distribution.
    let total: f64 = p.iter().sum();
    if total > 0.0 {
        for x in p.iter_mut() {
            *x /= total;
        }
    }
    Ok(p)
}

/// The time-averaged CTRW mixing matrix `1/T ∫_0^T e^{-tL} dt`, approximated
/// with `steps` midpoint samples. The classical analogue of the CTQW
/// time-averaged density matrix; used only for the CTQW-vs-CTRW
/// discrimination study.
pub fn ctrw_average_kernel(
    graph: &Graph,
    horizon: f64,
    steps: usize,
) -> Result<Matrix, LinalgError> {
    if steps == 0 || horizon <= 0.0 {
        return Err(LinalgError::InvalidArgument(
            "CTRW averaging needs a positive horizon and at least one step".to_string(),
        ));
    }
    let eig = symmetric_eigen(&graph.laplacian())?;
    let n = graph.num_vertices();
    let mut acc = Matrix::zeros(n, n);
    for step in 0..steps {
        let t = horizon * (step as f64 + 0.5) / steps as f64;
        acc += &eig.map_spectrum(|lambda| (-t * lambda).exp());
    }
    Ok(acc.scale(1.0 / steps as f64))
}

/// Shannon entropy of the stationary (long-time) CTRW distribution; because
/// the combinatorial Laplacian's kernel is spanned by the constant vector on
/// each connected component, the long-time distribution forgets most
/// structure — the quantity the paper contrasts against the von Neumann
/// entropy of the CTQW density matrix.
pub fn ctrw_stationary_entropy(graph: &Graph, horizon: f64) -> Result<f64, LinalgError> {
    let p = ctrw_distribution(graph, horizon)?;
    Ok(haqjsk_linalg::vector::shannon_entropy(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn heat_kernel_at_zero_is_identity() {
        let g = path_graph(4);
        let k = heat_kernel(&g, 0.0).unwrap();
        assert!((&k - &Matrix::identity(4)).max_abs() < 1e-9);
    }

    #[test]
    fn heat_kernel_rows_sum_to_one() {
        let g = cycle_graph(5);
        let k = heat_kernel(&g, 0.7).unwrap();
        for i in 0..5 {
            let s: f64 = (0..5).map(|j| k[(i, j)]).sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn distribution_stays_normalized_and_converges_to_uniform() {
        let g = cycle_graph(6);
        for t in [0.1, 1.0, 10.0] {
            let p = ctrw_distribution(&g, t).unwrap();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= -1e-12));
        }
        // On a connected graph the long-time limit is uniform.
        let p_long = ctrw_distribution(&g, 100.0).unwrap();
        for &x in &p_long {
            assert!((x - 1.0 / 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn average_kernel_is_symmetric_stochastic() {
        let g = star_graph(5);
        let k = ctrw_average_kernel(&g, 4.0, 32).unwrap();
        assert!(k.is_symmetric(1e-9));
        for i in 0..5 {
            let s: f64 = (0..5).map(|j| k[(i, j)]).sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(ctrw_average_kernel(&g, 0.0, 8).is_err());
        assert!(ctrw_average_kernel(&g, 1.0, 0).is_err());
    }

    #[test]
    fn ctqw_discriminates_where_ctrw_forgets() {
        // Long-time CTRW distributions of any connected graph converge to the
        // uniform distribution, so their entropies coincide; the CTQW density
        // matrices keep distinguishing the same pair of graphs.
        let a = cycle_graph(6);
        let b = path_graph(6);
        let h_a = ctrw_stationary_entropy(&a, 200.0).unwrap();
        let h_b = ctrw_stationary_entropy(&b, 200.0).unwrap();
        assert!((h_a - h_b).abs() < 1e-3, "CTRW entropies should coincide");

        let rho_a = crate::ctqw::ctqw_density_infinite(&a).unwrap();
        let rho_b = crate::ctqw::ctqw_density_infinite(&b).unwrap();
        let ha = crate::entropy::von_neumann_entropy(&rho_a).unwrap();
        let hb = crate::entropy::von_neumann_entropy(&rho_b).unwrap();
        assert!(
            (ha - hb).abs() > 1e-3,
            "CTQW entropies should differ: {ha} vs {hb}"
        );
    }
}
