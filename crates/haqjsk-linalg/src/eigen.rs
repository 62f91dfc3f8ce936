//! Symmetric eigendecomposition.
//!
//! The whole quantum-kernel machinery of the paper rests on the spectral
//! decomposition `L = Φ Λ Φᵀ` of graph Laplacians (Eq. 3) and on the
//! eigenvalues of density matrices (the von Neumann entropy of Eq. 6–7).
//! Both are real symmetric, so we implement the textbook two-phase algorithm:
//!
//! 1. **Householder tridiagonalisation** (`tred2`): reduce the symmetric
//!    matrix to tridiagonal form, optionally accumulating the orthogonal
//!    transformation.
//! 2. **Implicit-shift QL iteration** (`tqli`): diagonalise the tridiagonal
//!    matrix, optionally rotating the accumulated transformation into the
//!    eigenvector matrix.
//!
//! Both phases share one core and come in two drivers: the full
//! decomposition ([`symmetric_eigen`]) and a values-only path
//! ([`symmetric_eigenvalues`]) that skips every eigenvector operation — the
//! orthogonal-transform accumulation in `tred2` and the row rotations in the
//! QL sweep — which is 2–4× fewer flops and needs only O(n) memory beyond
//! the tridiagonal working copy. The eigen*values* the two drivers produce
//! are **bit-identical**: the skipped operations never feed back into the
//! `d`/`e` recurrences. Repeated values-only solves (the O(N²) kernel pair
//! loops) should reuse an [`EigenWorkspace`] so the hot loop stops
//! allocating; [`symmetric_eigenvalues`] does this internally through a
//! thread-local workspace.
//!
//! Eigenvalues are returned in ascending order, matching the paper's
//! convention `λ₁ < λ₂ < … < λ|V|`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;
use std::cell::RefCell;

/// Result of a symmetric eigendecomposition `A = Q diag(λ) Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors stored as the **columns** of this matrix, in
    /// the same order as `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Reconstructs `Q diag(λ) Qᵀ`; useful for testing round-trip accuracy.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let q = &self.eigenvectors;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += q[(i, k)] * self.eigenvalues[k] * q[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Applies a scalar function to the spectrum: returns `Q diag(f(λ)) Qᵀ`.
    ///
    /// This is how matrix functions (e.g. `exp`, `log`, `sqrt`) of symmetric
    /// matrices are computed throughout the workspace.
    pub fn map_spectrum(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let n = self.eigenvalues.len();
        let q = &self.eigenvectors;
        let mapped: Vec<f64> = self.eigenvalues.iter().map(|&l| f(l)).collect();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += q[(i, k)] * mapped[k] * q[(j, k)];
                }
                out[(i, j)] = acc;
                out[(j, i)] = acc;
            }
        }
        out
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues.first().copied().unwrap_or(0.0)
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        self.eigenvalues.last().copied().unwrap_or(0.0)
    }

    /// Groups eigenvalue indices into eigenspaces of (numerically) equal
    /// eigenvalues. The paper's closed-form density matrix (Eq. 5) sums over
    /// the basis `B_λ` of each distinct eigenvalue's eigenspace; this helper
    /// provides exactly that partition.
    pub fn eigenspaces(&self, tol: f64) -> Vec<(f64, Vec<usize>)> {
        let mut spaces: Vec<(f64, Vec<usize>)> = Vec::new();
        for (idx, &lambda) in self.eigenvalues.iter().enumerate() {
            match spaces.last_mut() {
                Some((rep, members)) if (lambda - *rep).abs() <= tol => members.push(idx),
                _ => spaces.push((lambda, vec![idx])),
            }
        }
        spaces
    }
}

/// Maximum QL sweeps per eigenvalue before declaring non-convergence.
pub(crate) const MAX_QL_ITERATIONS: usize = 64;

/// `sqrt(a² + b²)` without destructive overflow — the classic `pythag`
/// scaling. Used by every QL sweep (scalar and batched) instead of the libm
/// `hypot` call: it inlines to a handful of arithmetic ops (and therefore
/// vectorizes), and because the scalar and batched drivers share this exact
/// function their rotation sequences stay bit-identical. Returns exactly
/// `0.0` only when both inputs are zero, which the sweeps rely on for their
/// degenerate-rotation check.
#[inline(always)]
pub(crate) fn pythag(a: f64, b: f64) -> f64 {
    let absa = a.abs();
    let absb = b.abs();
    if absa > absb {
        let r = absb / absa;
        absa * (1.0 + r * r).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        let r = absa / absb;
        absb * (1.0 + r * r).sqrt()
    }
}

/// Validates shape and symmetry; returns the dimension.
pub(crate) fn check_symmetric(a: &Matrix) -> Result<usize> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let asym = a.asymmetry();
    let scale = a.max_abs().max(1.0);
    if asym > 1e-6 * scale {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: asym,
        });
    }
    Ok(a.rows())
}

/// Phase 1: Householder reduction of the symmetrised matrix stored row-major
/// in `z` (length `n*n`) to tridiagonal form (`tred2`). `d` receives the
/// diagonal, `e` the sub-diagonal. With `accumulate` the orthogonal
/// transformation is accumulated in `z` for the eigenvector driver; without
/// it every eigenvector-only operation is skipped. The skipped writes are
/// never read back by the reduction itself, so `d`/`e` are bit-identical
/// either way.
fn tred2(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64], accumulate: bool) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                for k in 0..=l {
                    z[i * n + k] /= scale;
                    h += z[i * n + k] * z[i * n + k];
                }
                let mut f = z[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i * n + l] = f - g;
                f = 0.0;
                for j in 0..=l {
                    if accumulate {
                        // Store the scaled Householder vector for phase-2
                        // accumulation; the reduction never reads it back.
                        z[j * n + i] = z[i * n + j] / h;
                    }
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[j * n + k] * z[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g += z[k * n + j] * z[i * n + k];
                    }
                    e[j] = g / h;
                    f += e[j] * z[i * n + j];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[i * n + j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * z[i * n + k];
                        z[j * n + k] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[i * n + l];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if accumulate {
            if d[i] != 0.0 {
                for j in 0..i {
                    let mut g = 0.0;
                    for k in 0..i {
                        g += z[i * n + k] * z[k * n + j];
                    }
                    for k in 0..i {
                        let delta = g * z[k * n + i];
                        z[k * n + j] -= delta;
                    }
                }
            }
            d[i] = z[i * n + i];
            z[i * n + i] = 1.0;
            for j in 0..i {
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        } else {
            d[i] = z[i * n + i];
        }
    }
}

/// Phase 2: implicit-shift QL iteration on the tridiagonal matrix (`tqli`).
/// When `z` is given, every plane rotation is applied to its columns so it
/// becomes the eigenvector matrix; without it the sweep touches only the
/// O(n) `d`/`e` recurrences, whose arithmetic is identical in both modes.
fn tqli(d: &mut [f64], e: &mut [f64], n: usize, mut z: Option<&mut [f64]>) -> Result<()> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "symmetric QL iteration",
                    iterations: MAX_QL_ITERATIONS,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                if let Some(z) = z.as_deref_mut() {
                    for k in 0..n {
                        f = z[k * n + i + 1];
                        z[k * n + i + 1] = s * z[k * n + i] + c * f;
                        z[k * n + i] = c * z[k * n + i] - s * f;
                    }
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// The input is symmetrised (`(A + Aᵀ)/2`) before decomposition so that tiny
/// floating-point asymmetries produced by upstream accumulation do not poison
/// the result; a genuinely asymmetric matrix is rejected.
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    let n = check_symmetric(a)?;
    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let a = a.symmetrize()?;

    if n == 1 {
        return Ok(SymmetricEigen {
            eigenvalues: vec![a[(0, 0)]],
            eigenvectors: Matrix::identity(1),
        });
    }

    // `z` starts as the symmetrised input and is transformed in place into
    // the (unsorted) eigenvector matrix by the two phases.
    let mut z = a;
    let mut d = vec![0.0_f64; n];
    let mut e = vec![0.0_f64; n];
    tred2(z.data_mut(), n, &mut d, &mut e, true);
    tqli(&mut d, &mut e, n, Some(z.data_mut()))?;

    // Sort eigenvalues ascending and permute eigenvector columns to match.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("eigenvalues are finite"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            eigenvectors[(row, new_col)] = z[(row, old_col)];
        }
    }

    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// Reusable scratch buffers for values-only eigenvalue computation.
///
/// A values-only solve still needs an `n × n` working copy for the
/// Householder reduction; the workspace keeps that copy (plus the `d`/`e`
/// tridiagonal buffers) alive across calls so the O(N²) kernel pair loops
/// stop allocating per solve. Buffers grow to the largest dimension seen
/// and are reused for every smaller one.
#[derive(Debug, Default)]
pub struct EigenWorkspace {
    scratch: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
}

impl EigenWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        EigenWorkspace::default()
    }

    /// Capacity (in `f64` elements) of the matrix scratch buffer — exposed
    /// so tests can assert that repeated solves reuse the allocation.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Eigenvalues of a symmetric matrix in ascending order, without
    /// eigenvectors, reusing this workspace's buffers. The returned slice
    /// borrows the workspace and is valid until the next call.
    ///
    /// Bit-identical to `symmetric_eigen(a)?.eigenvalues`: the eigenvector
    /// operations the values-only drivers skip never feed back into the
    /// eigenvalue recurrences, and the ascending sort is stable in both.
    pub fn eigenvalues(&mut self, a: &Matrix) -> Result<&[f64]> {
        let n = check_symmetric(a)?;
        if n == 0 {
            return Ok(&[]);
        }
        if self.scratch.len() < n * n {
            self.scratch.resize(n * n, 0.0);
        }
        if self.d.len() < n {
            self.d.resize(n, 0.0);
            self.e.resize(n, 0.0);
        }
        // Symmetrise straight into the scratch buffer (same arithmetic as
        // `Matrix::symmetrize`, without the intermediate allocation).
        let data = a.data();
        for i in 0..n {
            for j in 0..n {
                self.scratch[i * n + j] = 0.5 * (data[i * n + j] + data[j * n + i]);
            }
        }
        if n == 1 {
            self.d[0] = self.scratch[0];
            return Ok(&self.d[..1]);
        }
        let d = &mut self.d[..n];
        let e = &mut self.e[..n];
        d.fill(0.0);
        e.fill(0.0);
        tred2(&mut self.scratch[..n * n], n, d, e, false);
        tqli(d, e, n, None)?;
        // Stable ascending sort matches the full driver's stable index sort,
        // so ties (including ±0.0) land in the same order.
        d.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
        Ok(&self.d[..n])
    }
}

thread_local! {
    /// Per-thread workspace backing [`symmetric_eigenvalues`], so the hot
    /// pair loops get allocation reuse without threading a workspace
    /// through every call site.
    static VALUES_WORKSPACE: RefCell<EigenWorkspace> = RefCell::new(EigenWorkspace::new());
}

/// Matrices up to this dimension reuse the thread-local workspace; larger
/// one-off solves (e.g. the minimum eigenvalue of a whole `N × N` Gram
/// matrix) get a transient workspace instead, so they cannot pin an
/// `8·N²`-byte scratch to the thread for its lifetime.
pub(crate) const WORKSPACE_DIM_LIMIT: usize = 256;

/// Returns the eigenvalues of a symmetric matrix in ascending order without
/// the eigenvectors.
///
/// This is a true values-only driver: it skips the orthogonal-transform
/// accumulation in the Householder phase and the eigenvector row-rotations
/// in the QL sweep (≈2–4× fewer flops than [`symmetric_eigen`]) and never
/// allocates the `n × n` eigenvector matrix — for graph-sized inputs the
/// only per-call allocation is the returned `Vec` (the matrix scratch lives
/// in a thread-local [`EigenWorkspace`]; dimensions above
/// `WORKSPACE_DIM_LIMIT` use a transient one). The eigenvalues are
/// bit-identical to the full decomposition's.
pub fn symmetric_eigenvalues(a: &Matrix) -> Result<Vec<f64>> {
    if a.rows() > WORKSPACE_DIM_LIMIT {
        return EigenWorkspace::new().eigenvalues(a).map(<[f64]>::to_vec);
    }
    VALUES_WORKSPACE.with(|ws| ws.borrow_mut().eigenvalues(a).map(<[f64]>::to_vec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let eig = symmetric_eigen(&m).unwrap();
        assert_close(eig.eigenvalues[0], -1.0, 1e-10);
        assert_close(eig.eigenvalues[1], 2.0, 1e-10);
        assert_close(eig.eigenvalues[2], 3.0, 1e-10);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = symmetric_eigen(&m).unwrap();
        assert_close(eig.eigenvalues[0], 1.0, 1e-10);
        assert_close(eig.eigenvalues[1], 3.0, 1e-10);
    }

    #[test]
    fn path_graph_laplacian_spectrum() {
        // Laplacian of the path P3: eigenvalues 0, 1, 3.
        let l = Matrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&l).unwrap();
        assert_close(eig.eigenvalues[0], 0.0, 1e-9);
        assert_close(eig.eigenvalues[1], 1.0, 1e-9);
        assert_close(eig.eigenvalues[2], 3.0, 1e-9);
    }

    #[test]
    fn reconstruction_roundtrip() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.5],
            vec![2.0, 0.0, 5.0, 1.0],
            vec![0.5, 1.5, 1.0, 2.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&m).unwrap();
        let r = eig.reconstruct();
        assert!((&r - &m).max_abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&m).unwrap();
        let q = &eig.eigenvectors;
        let qtq = q.transpose().matmul(q).unwrap();
        assert!((&qtq - &Matrix::identity(3)).max_abs() < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.3, 0.2],
            vec![0.3, 2.0, 0.1],
            vec![0.2, 0.1, 3.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&m).unwrap();
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert_close(sum, m.trace(), 1e-9);
    }

    #[test]
    fn map_spectrum_computes_matrix_square() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = symmetric_eigen(&m).unwrap();
        let sq = eig.map_spectrum(|l| l * l);
        let direct = m.matmul(&m).unwrap();
        assert!((&sq - &direct).max_abs() < 1e-9);
    }

    #[test]
    fn eigenspaces_group_repeated_eigenvalues() {
        // The complete graph K3 Laplacian has eigenvalues {0, 3, 3}.
        let l = Matrix::from_rows(&[
            vec![2.0, -1.0, -1.0],
            vec![-1.0, 2.0, -1.0],
            vec![-1.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&l).unwrap();
        let spaces = eig.eigenspaces(1e-8);
        assert_eq!(spaces.len(), 2);
        assert_eq!(spaces[0].1.len(), 1);
        assert_eq!(spaces[1].1.len(), 2);
    }

    #[test]
    fn rejects_asymmetric_and_rectangular() {
        let r = Matrix::zeros(2, 3);
        assert!(symmetric_eigen(&r).is_err());
        let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn empty_and_singleton() {
        let e = symmetric_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
        let s = symmetric_eigen(&Matrix::from_diag(&[7.0])).unwrap();
        assert_eq!(s.eigenvalues, vec![7.0]);
        assert_eq!(s.min_eigenvalue(), 7.0);
        assert_eq!(s.max_eigenvalue(), 7.0);
    }

    #[test]
    fn eigenvalues_only_helper() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let vals = symmetric_eigenvalues(&m).unwrap();
        assert_close(vals[0], 1.0, 1e-10);
        assert_close(vals[1], 3.0, 1e-10);
    }

    /// Deterministic pseudo-random symmetric matrix (LCG fill).
    fn lcg_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn values_only_driver_is_bit_identical_to_full() {
        for (n, seed) in [(2usize, 1u64), (5, 7), (11, 42), (24, 99)] {
            let m = lcg_symmetric(n, seed);
            let full = symmetric_eigen(&m).unwrap().eigenvalues;
            let values = symmetric_eigenvalues(&m).unwrap();
            assert_eq!(
                full.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "n={n} seed={seed}: values-only must match the full driver bit for bit"
            );
        }
        // Degenerate spectra (repeated eigenvalues) too.
        let k3 = Matrix::from_rows(&[
            vec![2.0, -1.0, -1.0],
            vec![-1.0, 2.0, -1.0],
            vec![-1.0, -1.0, 2.0],
        ])
        .unwrap();
        assert_eq!(
            symmetric_eigen(&k3).unwrap().eigenvalues,
            symmetric_eigenvalues(&k3).unwrap()
        );
    }

    #[test]
    fn workspace_reuses_buffers_and_never_builds_the_eigenvector_matrix() {
        let mut ws = EigenWorkspace::new();
        let m = lcg_symmetric(12, 3);
        let first_ptr = {
            let vals = ws.eigenvalues(&m).unwrap();
            assert_eq!(vals.len(), 12);
            vals.as_ptr()
        };
        // The scratch holds exactly one n×n working copy — there is no
        // second eigenvector matrix behind this API.
        let cap_after_first = ws.scratch_capacity();
        assert!(cap_after_first >= 12 * 12);
        assert!(cap_after_first < 2 * 12 * 12, "only one n×n buffer");
        // Repeated solves (same or smaller size) reuse the allocation: the
        // returned slice points into the same buffer and capacity is flat.
        for seed in 0..5 {
            let vals = ws.eigenvalues(&lcg_symmetric(12, seed)).unwrap();
            assert_eq!(vals.as_ptr(), first_ptr, "d buffer must be reused");
        }
        let small = ws.eigenvalues(&lcg_symmetric(5, 8)).unwrap();
        assert_eq!(small.len(), 5);
        assert_eq!(ws.scratch_capacity(), cap_after_first);
    }

    #[test]
    fn workspace_validates_like_the_full_driver() {
        let mut ws = EigenWorkspace::new();
        assert!(ws.eigenvalues(&Matrix::zeros(2, 3)).is_err());
        let asym = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(ws.eigenvalues(&asym).is_err());
        assert!(ws.eigenvalues(&Matrix::zeros(0, 0)).unwrap().is_empty());
        assert_eq!(ws.eigenvalues(&Matrix::from_diag(&[7.0])).unwrap(), &[7.0]);
    }

    #[test]
    fn larger_random_symmetric_roundtrip() {
        // Deterministic pseudo-random symmetric matrix (no rand dependency in
        // unit tests): linear congruential fill.
        let n = 20;
        let mut state: u64 = 42;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let eig = symmetric_eigen(&m).unwrap();
        assert!((&eig.reconstruct() - &m).max_abs() < 1e-8);
        // Ascending order.
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
