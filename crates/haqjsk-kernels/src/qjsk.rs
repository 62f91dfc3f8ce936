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

use crate::features::{
    cached_alignment_basis, cached_ctqw_density, cached_graph_spectrals, pad_to, AlignmentBasis,
};
use crate::kernel::{gram_from_tiles, GraphKernel, PinnedFeatures};
use crate::matrix::KernelMatrix;
use haqjsk_engine::{BackendKind, RemoteGram};
use haqjsk_graph::Graph;
use haqjsk_linalg::assignment::hungarian_max;
use haqjsk_linalg::{symmetric_eigen, Matrix};
use haqjsk_quantum::{
    batch_mixture_entropies, qjsd_from_entropies, qjsd_with_entropies, DensityMatrix,
    MixtureEntropy,
};
use std::sync::Arc;

/// The per-graph artifacts the unaligned QJSK pair loop consumes: the CTQW
/// density and its von Neumann entropy. Everything else a pair needs — the
/// mixture spectrum — is genuinely pair-specific and is the single
/// values-only eigenvalue solve left in the loop.
struct SpectralInputs {
    density: Arc<DensityMatrix>,
    entropy: f64,
}

impl SpectralInputs {
    fn extract(graph: &Graph) -> SpectralInputs {
        SpectralInputs {
            density: cached_ctqw_density(graph),
            entropy: cached_graph_spectrals(graph).von_neumann_entropy,
        }
    }
}

/// [`SpectralInputs`] plus the Umeyama eigenvector-magnitude basis the
/// aligned kernel needs.
struct AlignedInputs {
    spectral: SpectralInputs,
    basis: Arc<AlignmentBasis>,
}

impl AlignedInputs {
    fn extract(graph: &Graph) -> AlignedInputs {
        // Basis first: its full decomposition warms the spectral cache, so
        // the entropy lookup below is a hit and a cold aligned Gram pays
        // one eigensolve per graph, not two.
        let basis = cached_alignment_basis(graph);
        AlignedInputs {
            spectral: SpectralInputs::extract(graph),
            basis,
        }
    }
}

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
    /// Stable kernel identifier used by the distributed backend to
    /// reconstruct this kernel on a worker process.
    pub const REMOTE_KERNEL_ID: &'static str = "qjsk_unaligned";

    /// Creates the kernel with decay factor `mu`.
    pub fn new(mu: f64) -> Self {
        QjskUnaligned { mu }
    }

    /// Evaluates one tile of Gram entries over `graphs` — the remote
    /// serialisation boundary: a distributed worker receives the dataset
    /// once and then replays `(kernel id + params + index-pair tile)` work
    /// units through this entry point. Values are byte-identical to the
    /// in-process Gram paths (per-graph artifacts come from the same
    /// deterministic feature caches, and the batched mixture eigensolver is
    /// bit-identical per matrix regardless of batch composition).
    pub fn eval_tile(&self, graphs: &[Graph], pairs: &[(usize, usize)], out: &mut [f64]) {
        let pinned: PinnedFeatures<'_, SpectralInputs> = PinnedFeatures::new(graphs);
        self.kernel_tile(pairs, &pinned, out);
    }

    /// The pairwise fast path: zero-pad, then one values-only mixture solve
    /// against the precomputed endpoint entropies (which zero-padding leaves
    /// unchanged).
    fn kernel_from_inputs(&self, a: &SpectralInputs, b: &SpectralInputs) -> f64 {
        let n = a.density.dim().max(b.density.dim());
        let (mut sa, mut sb) = (None, None);
        let pa = pad_to(&a.density, n, &mut sa);
        let pb = pad_to(&b.density, n, &mut sb);
        let d = qjsd_with_entropies(pa, pb, a.entropy, b.entropy)
            .expect("equal dimensions after padding");
        (-self.mu * d).exp()
    }

    /// The whole-tile fast path: every pair of the tile contributes one
    /// padded mixture, all of which go through **one** batched values-only
    /// eigensolve; the entries then reduce through the same
    /// `qjsd_from_entropies` expression as the per-pair path, so the tile
    /// values are byte-identical to [`QjskUnaligned::kernel_from_inputs`].
    fn kernel_tile(
        &self,
        pairs: &[(usize, usize)],
        pinned: &PinnedFeatures<'_, SpectralInputs>,
        out: &mut [f64],
    ) {
        let inputs: Vec<(&SpectralInputs, &SpectralInputs)> = pairs
            .iter()
            .map(|&(i, j)| {
                (
                    pinned.get(i, SpectralInputs::extract),
                    pinned.get(j, SpectralInputs::extract),
                )
            })
            .collect();
        let mixtures: Vec<(&DensityMatrix, &DensityMatrix)> = inputs
            .iter()
            .map(|(a, b)| (&*a.density, &*b.density))
            .collect();
        let h_mix = batch_mixture_entropies(&mixtures, MixtureEntropy::VonNeumann)
            .expect("padded mixtures share a dimension");
        for (k, (a, b)) in inputs.iter().enumerate() {
            let d = qjsd_from_entropies(h_mix[k], a.entropy, b.entropy);
            out[k] = (-self.mu * d).exp();
        }
    }
}

impl GraphKernel for QjskUnaligned {
    fn name(&self) -> &'static str {
        "QJSK (unaligned)"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        self.kernel_from_inputs(&SpectralInputs::extract(a), &SpectralInputs::extract(b))
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = crate::kernel::time_kernel_gram(self.name());
        let pinned: PinnedFeatures<'_, SpectralInputs> = PinnedFeatures::new(graphs);
        let spec = RemoteGram {
            kernel_id: QjskUnaligned::REMOTE_KERNEL_ID,
            params: vec![("mu", self.mu)],
            graphs,
            artifact: None,
        };
        gram_from_tiles(
            graphs.len(),
            backend,
            |pairs: &[(usize, usize)], out: &mut [f64]| self.kernel_tile(pairs, &pinned, out),
            Some(&spec),
        )
    }
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
    /// Stable kernel identifier used by the distributed backend to
    /// reconstruct this kernel on a worker process.
    pub const REMOTE_KERNEL_ID: &'static str = "qjsk_aligned";

    /// Creates the kernel with decay factor `mu`.
    pub fn new(mu: f64) -> Self {
        QjskAligned { mu }
    }

    /// Evaluates one tile of Gram entries over `graphs` — the remote
    /// serialisation boundary of the distributed backend (see
    /// [`QjskUnaligned::eval_tile`]); byte-identical to the in-process
    /// Gram paths.
    pub fn eval_tile(&self, graphs: &[Graph], pairs: &[(usize, usize)], out: &mut [f64]) {
        let pinned: PinnedFeatures<'_, AlignedInputs> = PinnedFeatures::new(graphs);
        self.kernel_tile(pairs, &pinned, out);
    }

    /// Umeyama spectral matching between two symmetric matrices of equal
    /// size: maximise `tr(Qᵀ |U_a| |U_b|ᵀ)` over permutations `Q`, where
    /// `U_a`, `U_b` are the eigenvector matrices. Returns the permutation
    /// `perm` such that vertex `i` of `a` is matched to vertex `perm[i]` of
    /// `b`.
    ///
    /// This entry point decomposes both matrices from scratch; the Gram
    /// pair loop instead reuses per-graph [`AlignmentBasis`] artifacts and
    /// goes through [`QjskAligned::umeyama_match_bases`], which produces
    /// the identical permutation without any per-pair eigendecomposition.
    pub fn umeyama_match(a: &Matrix, b: &Matrix) -> Vec<usize> {
        let n = a.rows();
        debug_assert_eq!(n, b.rows());
        let ea = symmetric_eigen(a).expect("density matrices are symmetric");
        let eb = symmetric_eigen(b).expect("density matrices are symmetric");
        let ua = ea.eigenvectors.map(f64::abs);
        let ub = eb.eigenvectors.map(f64::abs);
        Self::assignment_from_abs_bases(&ua, &ub)
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

    fn kernel_from_inputs(&self, a: &AlignedInputs, b: &AlignedInputs) -> f64 {
        let rho_a = &a.spectral.density;
        let rho_b = &b.spectral.density;
        let n = rho_a.dim().max(rho_b.dim());
        // perm[i] = vertex of b matched to vertex i of a. Re-order b so that
        // its matched vertex sits at index i: new_b[i][j] = b[perm[i]][perm[j]].
        let perm = Self::umeyama_match_bases(&a.basis, &b.basis, n);
        let (mut sa, mut sb) = (None, None);
        let pa = pad_to(rho_a, n, &mut sa);
        let pb = pad_to(rho_b, n, &mut sb);
        let aligned_b = pb.permute(&perm).expect("valid permutation");
        // Conjugating by a permutation preserves the spectrum, so b's
        // precomputed entropy serves the aligned state too; the mixture is
        // the one values-only eigenvalue solve this pair pays for.
        let d = qjsd_with_entropies(pa, &aligned_b, a.spectral.entropy, b.spectral.entropy)
            .expect("equal dimensions after padding");
        (-self.mu * d).exp()
    }

    /// Whole-tile fast path: the Umeyama matching stays per pair (the
    /// Hungarian assignment is inherently sequential), but all of the
    /// tile's aligned mixtures go through one batched values-only
    /// eigensolve. Byte-identical to [`QjskAligned::kernel_from_inputs`].
    fn kernel_tile(
        &self,
        pairs: &[(usize, usize)],
        pinned: &PinnedFeatures<'_, AlignedInputs>,
        out: &mut [f64],
    ) {
        let inputs: Vec<(&AlignedInputs, &AlignedInputs)> = pairs
            .iter()
            .map(|&(i, j)| {
                (
                    pinned.get(i, AlignedInputs::extract),
                    pinned.get(j, AlignedInputs::extract),
                )
            })
            .collect();
        // Per-pair alignment: padded basis reconstruction, Hungarian
        // matching, then the aligned (permuted) padded partner state.
        let mut padded_a: Vec<Option<DensityMatrix>> = Vec::with_capacity(pairs.len());
        let mut aligned_b: Vec<DensityMatrix> = Vec::with_capacity(pairs.len());
        for (a, b) in &inputs {
            let rho_a = &a.spectral.density;
            let rho_b = &b.spectral.density;
            let n = rho_a.dim().max(rho_b.dim());
            let perm = Self::umeyama_match_bases(&a.basis, &b.basis, n);
            let mut sb = None;
            let pb = pad_to(rho_b, n, &mut sb);
            aligned_b.push(pb.permute(&perm).expect("valid permutation"));
            padded_a.push(if rho_a.dim() == n {
                None
            } else {
                Some(rho_a.zero_pad(n).expect("padding up never fails"))
            });
        }
        let mixtures: Vec<(&DensityMatrix, &DensityMatrix)> = inputs
            .iter()
            .zip(&padded_a)
            .zip(&aligned_b)
            .map(|(((a, _), pa), ab)| (pa.as_ref().unwrap_or(&*a.spectral.density), ab))
            .collect();
        let h_mix = batch_mixture_entropies(&mixtures, MixtureEntropy::VonNeumann)
            .expect("aligned mixtures share a dimension");
        for (k, (a, b)) in inputs.iter().enumerate() {
            let d = qjsd_from_entropies(h_mix[k], a.spectral.entropy, b.spectral.entropy);
            out[k] = (-self.mu * d).exp();
        }
    }
}

impl GraphKernel for QjskAligned {
    fn name(&self) -> &'static str {
        "QJSK (Umeyama aligned)"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        self.kernel_from_inputs(&AlignedInputs::extract(a), &AlignedInputs::extract(b))
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = crate::kernel::time_kernel_gram(self.name());
        let pinned: PinnedFeatures<'_, AlignedInputs> = PinnedFeatures::new(graphs);
        let spec = RemoteGram {
            kernel_id: QjskAligned::REMOTE_KERNEL_ID,
            params: vec![("mu", self.mu)],
            graphs,
            artifact: None,
        };
        gram_from_tiles(
            graphs.len(),
            backend,
            |pairs: &[(usize, usize)], out: &mut [f64]| self.kernel_tile(pairs, &pinned, out),
            Some(&spec),
        )
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
        let perm = QjskAligned::umeyama_match(rho.matrix(), rho.matrix());
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
