//! Per-graph artifacts of the quantum baselines.
//!
//! The quantum baselines (QJSK, JTQK) pay an `O(n³)` eigendecomposition per
//! CTQW density matrix. The density depends only on the graph, so a
//! baseline Gram extracts each graph's artifacts once, up front, and every
//! pair reads them: the CTQW density (which carries its spectrum and von
//! Neumann entropy in its own memo,
//! [`haqjsk_quantum::DensityMatrix::memoised_spectrum`]), the Umeyama
//! [`AlignmentBasis`] of the aligned QJSK and the [`WlHistogram`] of JTQK.
//! Nothing outlives the Gram that extracted it.

use crate::kernel::sparse_dot;
use crate::wl::{WeisfeilerLehmanKernel, WlFeatureVec};
use haqjsk_graph::Graph;
use haqjsk_linalg::Matrix;

/// Per-graph eigenvector-magnitude basis used by the Umeyama spectral
/// matching of the aligned QJSK kernel.
///
/// Umeyama's profit matrix consumes `|U|` of the *zero-padded* density's
/// eigendecomposition, whose column order depends on the pair's padded
/// dimension. Because the eigen solver treats the zero padding as an exact
/// no-op (the padded rows Householder to nothing and the stable ascending
/// sort slots the padding's unit eigenvectors right after the non-positive
/// eigenvalues), the padded basis is reconstructible from this per-graph
/// artifact for **any** target dimension — see
/// [`AlignmentBasis::padded_abs_eigenvectors`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentBasis {
    /// `|U|` of the sorted eigendecomposition of the (unpadded) density.
    pub abs_eigenvectors: Matrix,
    /// Number of eigenvalues `λ <= 0.0` — the column index where padding's
    /// unit eigenvectors are slotted by the stable ascending sort.
    pub nonpositive_eigenvalues: usize,
}

impl AlignmentBasis {
    /// Builds the basis from an already-computed decomposition of the
    /// density.
    pub fn from_eigen(eig: &haqjsk_linalg::SymmetricEigen) -> AlignmentBasis {
        let nonpositive = eig.eigenvalues.iter().filter(|&&l| l <= 0.0).count();
        AlignmentBasis {
            abs_eigenvectors: eig.eigenvectors.map(f64::abs),
            nonpositive_eigenvalues: nonpositive,
        }
    }

    /// The dimension of the underlying state.
    pub fn dim(&self) -> usize {
        self.abs_eigenvectors.rows()
    }

    /// Reconstructs `|U|` of the eigendecomposition of the density
    /// zero-padded to dimension `n`, bit-identical to running
    /// `symmetric_eigen` on the padded matrix: the original columns keep
    /// their stable ascending order, and the padding contributes unit
    /// eigenvectors (eigenvalue exactly `0.0`) slotted after the original
    /// non-positive eigenvalues.
    pub fn padded_abs_eigenvectors(&self, n: usize) -> Matrix {
        let dim = self.dim();
        assert!(n >= dim, "cannot pad a {dim}-state down to {n}");
        let pad = n - dim;
        let split = self.nonpositive_eigenvalues;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            if k < split {
                for i in 0..dim {
                    out[(i, k)] = self.abs_eigenvectors[(i, k)];
                }
            } else if k < split + pad {
                out[(dim + (k - split), k)] = 1.0;
            } else {
                let src = k - pad;
                for i in 0..dim {
                    out[(i, k)] = self.abs_eigenvectors[(i, src)];
                }
            }
        }
        out
    }
}

/// Per-graph Weisfeiler–Lehman label histogram (sorted sparse vector) plus
/// its self-similarity — the local-factor artifact of the JTQK pair loop.
///
/// WL labels are content-addressed (see [`crate::wl`]), so histograms
/// computed independently per graph are directly comparable: the JTQK
/// cross term reduces to one merge-join sparse dot per pair instead of a
/// full WL refinement of both graphs per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WlHistogram {
    /// Concatenated per-round label histogram, sorted by feature key.
    pub features: WlFeatureVec,
    /// `⟨features, features⟩` — the normalisation term of the cosine WL
    /// similarity, precomputed with the same merge-join dot the cross
    /// terms use.
    pub self_similarity: f64,
}

impl WlHistogram {
    /// The histogram of `graph` after `iterations` WL refinement rounds.
    pub fn new(graph: &Graph, iterations: usize) -> WlHistogram {
        let features = WeisfeilerLehmanKernel::new(iterations).feature_map(graph);
        let self_similarity = sparse_dot(&features, &features);
        WlHistogram {
            features,
            self_similarity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph};
    use haqjsk_linalg::symmetric_eigen;
    use haqjsk_quantum::{ctqw_density_infinite, entropy_of_spectrum};

    #[test]
    fn the_spectral_memo_has_the_same_bits_whichever_solve_fills_it() {
        use haqjsk_graph::generators::erdos_renyi;
        use haqjsk_quantum::von_neumann_entropy;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One state fills its memo from the full decomposition an
        // alignment basis is built from, a fresh copy of it from a
        // values-only solve.
        let g = erdos_renyi(11, 0.45, 4242);
        let (rho, fresh) = (
            ctqw_density_infinite(&g).unwrap(),
            ctqw_density_infinite(&g).unwrap(),
        );
        let _ = AlignmentBasis::from_eigen(&rho.eigen().unwrap());
        let spectrum = bits(rho.memoised_spectrum().unwrap());
        assert_eq!(spectrum, bits(fresh.memoised_spectrum().unwrap()));
        assert_eq!(spectrum, bits(&rho.spectrum().unwrap()));
        let h = von_neumann_entropy(&rho).unwrap().to_bits();
        assert_eq!(h, von_neumann_entropy(&fresh).unwrap().to_bits());
        assert_eq!(h, entropy_of_spectrum(&rho.spectrum().unwrap()).to_bits());
        // Zero-padding leaves the entropy bits unchanged.
        for n in [rho.dim() + 1, rho.dim() + 3] {
            let padded = rho.zero_pad(n).unwrap();
            assert_eq!(
                von_neumann_entropy(&padded).unwrap().to_bits(),
                h,
                "dim {n}"
            );
        }
    }

    #[test]
    fn padded_alignment_basis_is_bit_identical_to_padded_decomposition() {
        use haqjsk_graph::generators::{erdos_renyi, star_graph};
        // The reconstruction claim behind the aligned fast path: |U| of the
        // zero-padded density's eigendecomposition equals the per-graph
        // basis with padding's unit eigenvectors slotted after the
        // non-positive eigenvalues — bit for bit, so the Umeyama profit
        // matrix (and hence the Hungarian permutation) cannot drift.
        let graphs = vec![
            path_graph(5),
            cycle_graph(6),
            star_graph(7),
            erdos_renyi(9, 0.4, 7),
        ];
        for g in &graphs {
            let rho = ctqw_density_infinite(g).unwrap();
            let basis = AlignmentBasis::from_eigen(&symmetric_eigen(rho.matrix()).unwrap());
            for n in [rho.dim(), rho.dim() + 1, rho.dim() + 4] {
                let padded = rho.zero_pad(n).unwrap();
                let direct = symmetric_eigen(padded.matrix())
                    .unwrap()
                    .eigenvectors
                    .map(f64::abs);
                let reconstructed = basis.padded_abs_eigenvectors(n);
                assert_eq!(
                    direct,
                    reconstructed,
                    "padded |U| reconstruction must be exact (dim {} -> {n})",
                    rho.dim()
                );
            }
        }
    }
}
