//! The original Quantum Jensen–Shannon kernels (Sec. II-D of the paper).
//!
//! Two baselines are implemented:
//!
//! * [`QjskUnaligned`] — `k_QJSU(G_p, G_q) = exp(-μ · D_QJS(ρ_p, ρ_q))`
//!   (Eq. 9–10), where the smaller density matrix is zero-padded so the
//!   composite state can be formed. The kernel value depends on the vertex
//!   order of the two graphs, i.e. it is **not** permutation invariant.
//! * [`QjskAligned`] — `k_QJSA(G_p, G_q) = exp(-μ · min_Q D_QJS(ρ_p, Qρ_qQᵀ))`
//!   (Eq. 11), where `Q` is the vertex correspondence estimated with
//!   Umeyama's spectral matching on the density-matrix eigenvectors. The
//!   alignment restores permutation invariance but is not transitive, so the
//!   kernel is still not guaranteed positive definite — exactly the drawback
//!   the HAQJSK kernels remove.
//!
//! Both evaluate every pair through one function over a slice of input
//! pairs (`PairBatchKernel::kernel_batch`): per pair only the padding (and,
//! for the aligned kernel, the Umeyama matching) is done, and all the
//! mixtures go through one batched values-only eigensolve. The endpoint
//! entropies are read from the memo of each graph's CTQW density, which a
//! Gram extracts once per graph, so `compute` and a Gram tile are the same
//! code and give the same bits. An empty graph or an unconverged solve
//! fails the Gram with an error.

use crate::features::AlignmentBasis;
use crate::kernel::{compute_pair, pair_batch_gram, GraphKernel, PairBatchKernel, INPUTS};
use crate::matrix::KernelMatrix;
use haqjsk_engine::BackendKind;
use haqjsk_graph::Graph;
use haqjsk_linalg::assignment::hungarian_max;
use haqjsk_linalg::{symmetric_eigen, LinalgError, Matrix};
use haqjsk_quantum::{batch_qjsd, ctqw_density_infinite, DensityMatrix};

/// The unaligned QJSK kernel of Eq. (9).
#[derive(Debug, Clone)]
pub struct QjskUnaligned {
    /// Decay factor `μ` (the paper sets it to 1).
    pub mu: f64,
}

impl Default for QjskUnaligned {
    fn default() -> Self {
        QjskUnaligned { mu: 1.0 }
    }
}

impl QjskUnaligned {
    /// Creates the kernel with decay factor `mu`.
    pub fn new(mu: f64) -> Self {
        QjskUnaligned { mu }
    }
}

impl PairBatchKernel for QjskUnaligned {
    /// The graph's CTQW density, whose memo holds its entropy.
    type Inputs = DensityMatrix;

    fn extract(&self, graph: &Graph) -> Result<DensityMatrix, LinalgError> {
        ctqw_density_infinite(graph)
    }

    /// The batch zero-pads the smaller state of each pair itself.
    fn kernel_batch(
        &self,
        pairs: &[(&DensityMatrix, &DensityMatrix)],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        let divergences = batch_qjsd(pairs, pairs.iter().copied())?;
        for (value, d) in out.iter_mut().zip(divergences) {
            *value = (-self.mu * d).exp();
        }
        Ok(())
    }
}

impl GraphKernel for QjskUnaligned {
    fn name(&self) -> &'static str {
        "QJSK (unaligned)"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        compute_pair(self, a, b)
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        self.try_gram_matrix_on(graphs, backend).expect(INPUTS)
    }

    fn try_gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        pair_batch_gram(self, graphs, backend)
    }
}

/// The per-graph inputs of the aligned kernel: the CTQW density and its
/// Umeyama eigenvector-magnitude basis.
pub(crate) struct AlignedInputs {
    density: DensityMatrix,
    basis: AlignmentBasis,
}

/// The Umeyama-aligned QJSK kernel of Eq. (11).
#[derive(Debug, Clone)]
pub struct QjskAligned {
    /// Decay factor `μ`.
    pub mu: f64,
}

impl Default for QjskAligned {
    fn default() -> Self {
        QjskAligned { mu: 1.0 }
    }
}

impl QjskAligned {
    /// Creates the kernel with decay factor `mu`.
    pub fn new(mu: f64) -> Self {
        QjskAligned { mu }
    }

    /// Umeyama spectral matching between two symmetric matrices of equal
    /// size: maximise `tr(Qᵀ |U_a| |U_b|ᵀ)` over permutations `Q`, where
    /// `U_a`, `U_b` are the eigenvector matrices. Returns the permutation
    /// `perm` such that vertex `i` of `a` is matched to vertex `perm[i]` of
    /// `b`.
    ///
    /// This entry point decomposes both matrices from scratch; the kernel
    /// instead reuses per-graph [`AlignmentBasis`] artifacts and goes
    /// through [`QjskAligned::umeyama_match_bases`], which produces the
    /// identical permutation without any per-pair eigendecomposition.
    pub fn umeyama_match(a: &Matrix, b: &Matrix) -> Result<Vec<usize>, LinalgError> {
        debug_assert_eq!(a.rows(), b.rows());
        let ua = symmetric_eigen(a)?.eigenvectors.map(f64::abs);
        let ub = symmetric_eigen(b)?.eigenvectors.map(f64::abs);
        Ok(Self::assignment_from_abs_bases(&ua, &ub))
    }

    /// Umeyama matching from precomputed per-graph bases, zero-padded to a
    /// common dimension `n` on the fly. Bit-identical to running
    /// [`QjskAligned::umeyama_match`] on the zero-padded density matrices.
    pub fn umeyama_match_bases(a: &AlignmentBasis, b: &AlignmentBasis, n: usize) -> Vec<usize> {
        let ua = a.padded_abs_eigenvectors(n);
        let ub = b.padded_abs_eigenvectors(n);
        Self::assignment_from_abs_bases(&ua, &ub)
    }

    /// Profit matrix `|U_a| |U_b|ᵀ` (via the blocked matmul microkernel)
    /// followed by the Hungarian assignment.
    fn assignment_from_abs_bases(ua: &Matrix, ub: &Matrix) -> Vec<usize> {
        let profit = ua
            .matmul(&ub.transpose())
            .expect("bases share the padded dimension");
        let (assignment, _) = hungarian_max(profit.data(), profit.rows());
        assignment
    }
}

impl PairBatchKernel for QjskAligned {
    type Inputs = AlignedInputs;

    /// Basis first: its full decomposition fills the density's spectral
    /// memo, so a Gram pays one eigensolve per graph, not two.
    fn extract(&self, graph: &Graph) -> Result<AlignedInputs, LinalgError> {
        let density = ctqw_density_infinite(graph)?;
        let basis = AlignmentBasis::from_eigen(&density.eigen()?);
        Ok(AlignedInputs { density, basis })
    }

    /// The Umeyama matching stays per pair (the Hungarian assignment is
    /// inherently sequential); all the aligned mixtures go through one
    /// batched values-only eigensolve.
    fn kernel_batch(
        &self,
        pairs: &[(&AlignedInputs, &AlignedInputs)],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        // perm[i] = vertex of b matched to vertex i of a. Re-order the
        // padded b so that its matched vertex sits at index i:
        // new_b[i][j] = b[perm[i]][perm[j]]. Conjugating by a permutation
        // preserves the spectrum, so b's memoised entropy serves the
        // aligned state too.
        let aligned_b: Vec<DensityMatrix> = pairs
            .iter()
            .map(|(a, b)| {
                let n = a.density.dim().max(b.density.dim());
                let perm = Self::umeyama_match_bases(&a.basis, &b.basis, n);
                let padded;
                let pb = if b.density.dim() == n {
                    &b.density
                } else {
                    padded = b.density.zero_pad(n)?;
                    &padded
                };
                pb.permute(&perm)
            })
            .collect::<Result<_, _>>()?;
        let mixtures: Vec<(&DensityMatrix, &DensityMatrix)> = pairs
            .iter()
            .zip(&aligned_b)
            .map(|((a, _), ab)| (&a.density, ab))
            .collect();
        let endpoints = pairs.iter().map(|(a, b)| (&a.density, &b.density));
        let divergences = batch_qjsd(&mixtures, endpoints)?;
        for (value, d) in out.iter_mut().zip(divergences) {
            *value = (-self.mu * d).exp();
        }
        Ok(())
    }
}

impl GraphKernel for QjskAligned {
    fn name(&self) -> &'static str {
        "QJSK (Umeyama aligned)"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        compute_pair(self, a, b)
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        self.try_gram_matrix_on(graphs, backend).expect(INPUTS)
    }

    fn try_gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        pair_batch_gram(self, graphs, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn self_similarity_is_one() {
        let g = cycle_graph(6);
        let u = QjskUnaligned::default();
        let a = QjskAligned::default();
        assert!((u.compute(&g, &g) - 1.0).abs() < 1e-9);
        assert!((a.compute(&g, &g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn values_lie_in_unit_interval_and_are_symmetric() {
        let g1 = path_graph(5);
        let g2 = star_graph(7);
        for kernel in [
            &QjskUnaligned::default() as &dyn GraphKernel,
            &QjskAligned::default(),
        ] {
            let v12 = kernel.compute(&g1, &g2);
            let v21 = kernel.compute(&g2, &g1);
            assert!((v12 - v21).abs() < 1e-9, "{}", kernel.name());
            assert!(v12 > 0.0 && v12 <= 1.0 + 1e-12);
            assert!(v12 < 1.0, "distinct graphs should not be maximally similar");
        }
    }

    #[test]
    fn unaligned_kernel_is_sensitive_to_vertex_order() {
        // Comparing a star graph against a *relabelled copy of itself*
        // exposes the permutation-invariance failure the paper describes:
        // the unaligned kernel no longer reports maximal similarity, while
        // the Umeyama alignment recovers (most of) it.
        let g = star_graph(6);
        // Move the hub from vertex 0 to vertex 5.
        let perm = vec![5, 1, 2, 3, 4, 0];
        let relabelled = g.permute(&perm).unwrap();

        let unaligned = QjskUnaligned::default();
        let v_same = unaligned.compute(&g, &g);
        let v_perm = unaligned.compute(&g, &relabelled);
        assert!((v_same - 1.0).abs() < 1e-9);
        assert!(
            v_perm < 1.0 - 1e-6,
            "unaligned kernel should drop for an isomorphic but relabelled graph: {v_perm}"
        );

        let aligned = QjskAligned::default();
        let a_perm = aligned.compute(&g, &relabelled);
        assert!(
            a_perm > v_perm - 1e-12,
            "alignment should recover similarity lost to relabelling: {a_perm} vs {v_perm}"
        );
        assert!(
            a_perm > 1.0 - 1e-6,
            "Umeyama matching should realign the star hub exactly: {a_perm}"
        );
    }

    #[test]
    fn umeyama_match_recovers_identity_for_identical_matrices() {
        let g = path_graph(5);
        let rho = haqjsk_quantum::ctqw_density_infinite(&g).unwrap();
        let perm = QjskAligned::umeyama_match(rho.matrix(), rho.matrix()).unwrap();
        // Must be a permutation; for identical inputs the profit is maximised
        // on (a) the identity or (b) an automorphism of the graph.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn gram_matrix_diagonal_is_one_after_padding() {
        let graphs = vec![path_graph(4), cycle_graph(5), star_graph(6)];
        let gram = QjskUnaligned::default().gram_matrix(&graphs);
        assert_eq!(gram.len(), 3);
        for i in 0..3 {
            assert!((gram.get(i, i) - 1.0).abs() < 1e-9);
        }
        let gram_a = QjskAligned::default().gram_matrix(&graphs);
        for i in 0..3 {
            assert!((gram_a.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..3 {
                assert!(gram_a.get(i, j) > 0.0);
            }
        }
    }

    #[test]
    fn decay_factor_scales_similarity() {
        let g1 = path_graph(6);
        let g2 = cycle_graph(6);
        let weak = QjskUnaligned::new(0.1).compute(&g1, &g2);
        let strong = QjskUnaligned::new(10.0).compute(&g1, &g2);
        assert!(weak > strong, "larger mu must decay similarity faster");
    }
}
