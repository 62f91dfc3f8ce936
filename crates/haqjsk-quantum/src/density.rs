//! Density matrices (quantum states).
//!
//! A density matrix is a real symmetric, positive semidefinite matrix with
//! unit trace. [`DensityMatrix`] wraps a [`Matrix`] and enforces/normalises
//! those invariants at construction, because every downstream quantity
//! (entropy, QJSD, kernel values) silently degrades if they are violated.

use crate::entropy::entropy_of_spectrum;
use haqjsk_linalg::{symmetric_eigen, symmetric_eigenvalues, LinalgError, Matrix, SymmetricEigen};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Tolerance used when validating symmetry / trace / positivity.
pub const DENSITY_TOL: f64 = 1e-8;

/// Eigensolves that filled a state's spectral memo, process-wide.
static MEMO_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of state eigensolves made for the spectral memo:
/// one per values-only solve that fills a memo, plus one per full
/// decomposition through [`DensityMatrix::eigen`]. Tests and benchmarks
/// read it to check that per-graph spectra are solved once, not per pair.
pub fn memo_solves() -> u64 {
    MEMO_SOLVES.load(Ordering::Relaxed)
}

/// A validated quantum density matrix (real, symmetric, PSD, unit trace).
///
/// The state is immutable once built, so it memoises its clamped spectrum
/// together with that spectrum's von Neumann entropy on first use
/// ([`DensityMatrix::memoised_spectrum`], [`crate::von_neumann_entropy`]):
/// a state that is compared against many others — a graph's CTQW state in
/// a baseline Gram, an aligned graph's per-level state in a HAQJSK Gram or
/// a kernel row — pays its eigensolve once. Clones carry the memo;
/// equality compares only the matrix.
#[derive(Debug, Clone)]
pub struct DensityMatrix {
    matrix: Matrix,
    spectral: OnceLock<Result<Spectral, LinalgError>>,
}

/// The memo of a [`DensityMatrix`]: its clamped ascending spectrum and the
/// von Neumann entropy of that spectrum.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spectral {
    values: Vec<f64>,
    pub(crate) entropy: f64,
}

impl PartialEq for DensityMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl DensityMatrix {
    /// Wraps a matrix that is already a valid density matrix.
    ///
    /// Returns an error if the matrix is not square/symmetric, has
    /// non-negligible negative eigenvalues, or its trace differs from one by
    /// more than the tolerance.
    pub fn new(matrix: Matrix) -> Result<Self, LinalgError> {
        if !matrix.is_square() {
            return Err(LinalgError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        if !matrix.is_symmetric(DENSITY_TOL) {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: matrix.asymmetry(),
            });
        }
        let trace = matrix.trace();
        if (trace - 1.0).abs() > 1e-6 {
            return Err(LinalgError::InvalidArgument(format!(
                "density matrix trace is {trace}, expected 1"
            )));
        }
        let min_eigenvalue = symmetric_eigenvalues(&matrix)?
            .first()
            .copied()
            .unwrap_or(0.0);
        if min_eigenvalue < -1e-6 {
            return Err(LinalgError::InvalidArgument(format!(
                "density matrix has negative eigenvalue {min_eigenvalue}"
            )));
        }
        Ok(DensityMatrix::wrap(matrix))
    }

    /// Builds a density matrix from an arbitrary symmetric PSD-ish matrix by
    /// symmetrising and re-normalising its trace to one. Matrices with zero
    /// trace map to the maximally mixed state.
    ///
    /// The hierarchical alignment of the paper transforms density matrices by
    /// congruence with correspondence matrices (Eq. 21/25); that operation
    /// preserves PSD-ness but not the trace, so this constructor performs the
    /// re-normalisation the kernel needs.
    pub fn from_unnormalized(matrix: &Matrix) -> Result<Self, LinalgError> {
        let sym = matrix.symmetrize()?;
        let trace = sym.trace();
        let normalized = if trace.abs() < 1e-12 {
            let n = sym.rows().max(1);
            Matrix::identity(n).scale(1.0 / n as f64)
        } else {
            sym.scale(1.0 / trace)
        };
        Ok(DensityMatrix::wrap(normalized))
    }

    /// The maximally mixed state `I / n`.
    pub fn maximally_mixed(n: usize) -> Self {
        DensityMatrix::wrap(Matrix::identity(n.max(1)).scale(1.0 / n.max(1) as f64))
    }

    /// A pure state `|ψ⟩⟨ψ|` from a real amplitude vector (normalised first).
    pub fn pure_state(amplitudes: &[f64]) -> Result<Self, LinalgError> {
        if amplitudes.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "pure state needs at least one amplitude".to_string(),
            ));
        }
        let norm = haqjsk_linalg::vector::norm(amplitudes);
        if norm == 0.0 {
            return Err(LinalgError::InvalidArgument(
                "pure state amplitudes are all zero".to_string(),
            ));
        }
        let n = amplitudes.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = amplitudes[i] * amplitudes[j] / (norm * norm);
            }
        }
        Ok(DensityMatrix::wrap(m))
    }

    /// The one place a state is built from an already-valid matrix, with
    /// an empty spectral memo.
    fn wrap(matrix: Matrix) -> Self {
        DensityMatrix {
            matrix,
            spectral: OnceLock::new(),
        }
    }

    /// Dimension of the state space.
    pub fn dim(&self) -> usize {
        self.matrix.rows()
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Equal-weight mixture `(ρ + σ)/2` of two states of equal dimension.
    pub fn mix(&self, other: &DensityMatrix) -> Result<DensityMatrix, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "density mixture",
                left: self.matrix.shape(),
                right: other.matrix.shape(),
            });
        }
        let m = (&self.matrix + &other.matrix).scale(0.5);
        Ok(DensityMatrix::wrap(m))
    }

    /// Zero-pads the state to dimension `n` (embedding the state space into
    /// a larger one) and renormalises nothing: padding with zero rows/columns
    /// keeps trace and PSD-ness intact. Used by the unaligned QJSK kernel to
    /// compare graphs of different sizes.
    pub fn zero_pad(&self, n: usize) -> Result<DensityMatrix, LinalgError> {
        if n < self.dim() {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot pad a {}-dimensional state down to {n}",
                self.dim()
            )));
        }
        Ok(DensityMatrix::wrap(self.matrix.zero_pad(n, n)?))
    }

    /// Conjugates the state by a permutation: `ρ' = P ρ Pᵀ` with
    /// `P` the permutation matrix defined by `perm` (row `i` of `P` selects
    /// old index `perm[i]`).
    pub fn permute(&self, perm: &[usize]) -> Result<DensityMatrix, LinalgError> {
        Ok(DensityMatrix::wrap(self.matrix.permute_symmetric(perm)?))
    }

    /// Eigenvalues of the state in ascending order, clamped to `[0, 1]` to
    /// absorb numerical noise around zero.
    ///
    /// Routed through the values-only eigen driver: no eigenvector matrix
    /// is ever formed. Every call solves afresh; the kernels read
    /// [`DensityMatrix::memoised_spectrum`] instead. A solver failure is
    /// returned, never mistaken for an empty spectrum (which would read as
    /// entropy 0).
    pub fn spectrum(&self) -> Result<Vec<f64>, LinalgError> {
        symmetric_eigenvalues(&self.matrix).map(clamp_spectrum)
    }

    /// The memoised spectrum: exactly [`DensityMatrix::spectrum`], solved
    /// on first use only. Zero-padding adds exact-zero eigenvalues, so the
    /// spectrum of an unpadded state serves every entropy of its padded
    /// versions.
    pub fn memoised_spectrum(&self) -> Result<&[f64], LinalgError> {
        Ok(&self.memo()?.values)
    }

    /// The full eigendecomposition of the state. Its eigenvalues are
    /// bit-identical to the values-only solve's, so they fill an empty
    /// spectral memo: a caller that needs the eigenvectors anyway (the
    /// Umeyama alignment basis) pays one solve for both.
    pub fn eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        MEMO_SOLVES.fetch_add(1, Ordering::Relaxed);
        let eig = symmetric_eigen(&self.matrix)?;
        let _ = self.memo_with(|| Ok(clamp_spectrum(eig.eigenvalues.clone())));
        Ok(eig)
    }

    /// The memo, solved on first use.
    pub(crate) fn memo(&self) -> Result<&Spectral, LinalgError> {
        self.memo_with(|| {
            MEMO_SOLVES.fetch_add(1, Ordering::Relaxed);
            self.spectrum()
        })
    }

    /// The memo, filled from `solve` on first use. Threads that ask while
    /// it is being filled wait for that one solve instead of repeating it.
    /// The solve is deterministic, so a failure is memoised and returned
    /// like a value.
    fn memo_with(
        &self,
        solve: impl FnOnce() -> Result<Vec<f64>, LinalgError>,
    ) -> Result<&Spectral, LinalgError> {
        let memo = self.spectral.get_or_init(|| {
            solve().map(|values| Spectral {
                entropy: entropy_of_spectrum(&values),
                values,
            })
        });
        memo.as_ref().map_err(LinalgError::clone)
    }
}

/// Clamps eigenvalues to `[0, 1]`, the one clamp every spectrum goes
/// through.
pub(crate) fn clamp_spectrum(mut values: Vec<f64>) -> Vec<f64> {
    for l in values.iter_mut() {
        *l = l.clamp(0.0, 1.0);
    }
    values
}

/// Density matrices are the dominant residents of the engine's budgeted
/// feature caches; their weight is the `n x n` coefficient block, the `n`
/// floats of the spectral memo and the wrapper itself. The memo is counted
/// whether or not it is filled yet, so a cached entry's weight never
/// changes after insertion.
impl haqjsk_engine::CacheWeight for DensityMatrix {
    fn weight(&self) -> usize {
        std::mem::size_of::<DensityMatrix>()
            + (self.dim() * self.dim() + self.dim()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tr(ρ²) = Σ_ij ρ_ij²` for a symmetric state: 1 for a pure state,
    /// `1/n` for the maximally mixed one.
    fn trace_of_square(rho: &DensityMatrix) -> f64 {
        rho.matrix().data().iter().map(|x| x * x).sum()
    }

    #[test]
    fn maximally_mixed_state() {
        let rho = DensityMatrix::maximally_mixed(4);
        assert_eq!(rho.dim(), 4);
        assert!((rho.matrix().trace() - 1.0).abs() < 1e-12);
        assert!((trace_of_square(&rho) - 0.25).abs() < 1e-12);
        let spectrum = rho.spectrum().unwrap();
        assert!(spectrum.iter().all(|&l| (l - 0.25).abs() < 1e-9));
    }

    #[test]
    fn pure_state_has_unit_purity() {
        let rho = DensityMatrix::pure_state(&[1.0, 1.0, 0.0]).unwrap();
        assert!((rho.matrix().trace() - 1.0).abs() < 1e-12);
        assert!((trace_of_square(&rho) - 1.0).abs() < 1e-12);
        assert!(DensityMatrix::pure_state(&[]).is_err());
        assert!(DensityMatrix::pure_state(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn new_validates_inputs() {
        // Valid: maximally mixed.
        assert!(DensityMatrix::new(Matrix::identity(3).scale(1.0 / 3.0)).is_ok());
        // Wrong trace.
        assert!(DensityMatrix::new(Matrix::identity(3)).is_err());
        // Not square.
        assert!(DensityMatrix::new(Matrix::zeros(2, 3)).is_err());
        // Not symmetric.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 0.5;
        m[(1, 1)] = 0.5;
        m[(0, 1)] = 0.3;
        assert!(DensityMatrix::new(m).is_err());
        // Negative eigenvalue: diag(1.5, -0.5) has trace 1 but is not PSD.
        let neg = Matrix::from_diag(&[1.5, -0.5]);
        assert!(DensityMatrix::new(neg).is_err());
    }

    #[test]
    fn from_unnormalized_rescales_trace() {
        let m = Matrix::from_diag(&[2.0, 2.0]);
        let rho = DensityMatrix::from_unnormalized(&m).unwrap();
        assert!((rho.matrix().trace() - 1.0).abs() < 1e-12);
        // Zero-trace input falls back to the maximally mixed state.
        let z = Matrix::zeros(3, 3);
        let rho_z = DensityMatrix::from_unnormalized(&z).unwrap();
        assert!((rho_z.matrix()[(0, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_preserves_trace_and_dimension() {
        let a = DensityMatrix::pure_state(&[1.0, 0.0]).unwrap();
        let b = DensityMatrix::pure_state(&[0.0, 1.0]).unwrap();
        let m = a.mix(&b).unwrap();
        assert!((m.matrix().trace() - 1.0).abs() < 1e-12);
        assert!((trace_of_square(&m) - 0.5).abs() < 1e-12);
        let c = DensityMatrix::maximally_mixed(3);
        assert!(a.mix(&c).is_err());
    }

    #[test]
    fn zero_pad_embeds_state() {
        let a = DensityMatrix::pure_state(&[1.0, 1.0]).unwrap();
        let padded = a.zero_pad(4).unwrap();
        assert_eq!(padded.dim(), 4);
        assert!((padded.matrix().trace() - 1.0).abs() < 1e-12);
        assert!(a.zero_pad(1).is_err());
    }

    #[test]
    fn permutation_preserves_spectrum_and_purity() {
        let rho = DensityMatrix::from_unnormalized(
            &Matrix::from_rows(&[
                vec![0.6, 0.2, 0.0],
                vec![0.2, 0.3, 0.1],
                vec![0.0, 0.1, 0.1],
            ])
            .unwrap(),
        )
        .unwrap();
        let p = rho.permute(&[2, 0, 1]).unwrap();
        assert!((trace_of_square(&p) - trace_of_square(&rho)).abs() < 1e-12);
        let s1 = rho.spectrum().unwrap();
        let s2 = p.spectrum().unwrap();
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn clones_keep_the_spectral_memo_and_equality_ignores_it() {
        let rho = DensityMatrix::from_unnormalized(&Matrix::from_diag(&[3.0, 1.0])).unwrap();
        let fresh = rho.clone();
        assert_eq!(rho.spectral.get(), None);
        let h = crate::von_neumann_entropy(&rho).unwrap();
        let memo = Spectral {
            values: rho.spectrum().unwrap(),
            entropy: h,
        };
        assert_eq!(rho.spectral.get(), Some(&Ok(memo.clone())));
        assert_eq!(rho.clone().spectral.get(), Some(&Ok(memo)));
        // The memo is the value a fresh solve gives, and only the matrix
        // takes part in equality.
        assert_eq!(fresh.spectral.get(), None);
        assert_eq!(fresh, rho);
        assert_eq!(
            crate::von_neumann_entropy(&fresh).unwrap().to_bits(),
            h.to_bits()
        );
        assert_ne!(rho, DensityMatrix::maximally_mixed(2));
    }

    #[test]
    fn concurrent_first_uses_share_one_solve() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let rho = DensityMatrix::maximally_mixed(3);
        let failure = LinalgError::NoConvergence {
            algorithm: "test solve",
            iterations: 7,
        };
        let solves = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        rho.memo_with(|| {
                            solves.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err(failure.clone())
                        })
                        .map(|memo| memo.entropy)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        // The solve is deterministic, so its failure is the memo too.
        for result in results {
            assert_eq!(result, Err(failure.clone()));
        }
        assert_eq!(crate::von_neumann_entropy(&rho), Err(failure.clone()));
        assert_eq!(rho.memoised_spectrum(), Err(failure));
    }
}
