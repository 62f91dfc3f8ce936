//! Jensen–Tsallis q-difference kernel (JTQK), simplified global variant.
//!
//! The original JTQK of Bai et al. (ECML-PKDD 2014) measures the
//! Jensen–Tsallis q-difference between CTQW-derived state distributions,
//! aggregated over Weisfeiler–Lehman style subtrees. This reproduction keeps
//! the quantum-information core — the Tsallis q-entropy of the CTQW density
//! matrix and the Jensen–Tsallis q-difference between a pair of graphs — and
//! combines it multiplicatively with a WL subtree similarity, giving a
//! baseline with the same two ingredients (CTQW global information +
//! R-convolution local information) that the paper's JTQK column represents.
//! The simplification is recorded in DESIGN.md.
//!
//! Both factors are fully factored through per-graph artifacts: the
//! quantum factor through the cached CTQW spectra (leaving one values-only
//! mixture solve per pair, batched per tile in the Gram path), and the
//! local factor through cached WL label histograms (leaving one merge-join
//! sparse dot per pair instead of a full WL refinement of both graphs).

use crate::features::{
    cached_ctqw_density, cached_graph_spectrals, cached_wl_histogram, WlHistogram,
};
use crate::kernel::sparse_dot;
use crate::kernel::{gram_from_tiles, GraphKernel, PinnedFeatures};
use crate::matrix::KernelMatrix;
use haqjsk_engine::{BackendKind, RemoteGram};
use haqjsk_graph::Graph;
use haqjsk_quantum::{batch_mixture_entropies, DensityMatrix, MixtureEntropy};
use std::sync::Arc;

/// Tsallis q-entropy of a probability spectrum:
/// `S_q(p) = (1 - Σ_i p_i^q) / (q - 1)`, recovering the von Neumann /
/// Shannon entropy as `q → 1`. (Re-exported quantum primitive; see
/// [`haqjsk_quantum::tsallis_entropy_of_spectrum`].)
pub fn tsallis_entropy(spectrum: &[f64], q: f64) -> f64 {
    haqjsk_quantum::tsallis_entropy_of_spectrum(spectrum, q)
}

/// Jensen–Tsallis q-difference between two density matrices of equal
/// dimension: `S_q((ρ+σ)/2) - (S_q(ρ) + S_q(σ)) / 2`, clamped at zero.
pub fn jensen_tsallis_difference(rho: &DensityMatrix, sigma: &DensityMatrix, q: f64) -> f64 {
    jensen_tsallis_difference_with_entropies(
        rho,
        sigma,
        tsallis_entropy(&rho.spectrum(), q),
        tsallis_entropy(&sigma.spectrum(), q),
        q,
    )
}

/// [`jensen_tsallis_difference`] with precomputed endpoint entropies: only
/// the mixture's spectrum (one values-only eigenvalue solve) remains
/// pair-specific. Like the von Neumann entropy, `S_q` is invariant under
/// zero-padding — the added exact-zero eigenvalues contribute nothing — so
/// entropies of the unpadded states serve their padded versions.
pub fn jensen_tsallis_difference_with_entropies(
    rho: &DensityMatrix,
    sigma: &DensityMatrix,
    s_rho: f64,
    s_sigma: f64,
    q: f64,
) -> f64 {
    let mixture = rho.mix(sigma).expect("equal dimensions");
    jensen_tsallis_from_entropies(tsallis_entropy(&mixture.spectrum(), q), s_rho, s_sigma)
}

/// The Jensen–Tsallis q-difference once all three entropies are known:
/// `S_q(mix) - (S_q(ρ) + S_q(σ))/2`, clamped at zero. The per-pair and
/// tile-batched paths both reduce through this one expression so their
/// values stay bit-identical.
pub fn jensen_tsallis_from_entropies(s_mixture: f64, s_rho: f64, s_sigma: f64) -> f64 {
    let d = s_mixture - 0.5 * (s_rho + s_sigma);
    d.max(0.0)
}

/// The simplified Jensen–Tsallis q-difference kernel.
#[derive(Debug, Clone)]
pub struct JensenTsallisKernel {
    /// Tsallis order `q` (the paper's experiments use `q = 2`).
    pub q: f64,
    /// Number of WL refinement rounds for the local-structure factor.
    pub wl_iterations: usize,
}

impl Default for JensenTsallisKernel {
    fn default() -> Self {
        JensenTsallisKernel {
            q: 2.0,
            wl_iterations: 3,
        }
    }
}

impl JensenTsallisKernel {
    /// Stable kernel identifier used by the distributed backend to
    /// reconstruct this kernel on a worker process.
    pub const REMOTE_KERNEL_ID: &'static str = "jtqk";

    /// Creates the kernel with Tsallis order `q` and `wl_iterations` rounds
    /// of WL refinement.
    pub fn new(q: f64, wl_iterations: usize) -> Self {
        JensenTsallisKernel { q, wl_iterations }
    }

    /// Evaluates one tile of Gram entries over `graphs` — the remote
    /// serialisation boundary of the distributed backend (see
    /// [`crate::QjskUnaligned::eval_tile`]); byte-identical to the
    /// in-process Gram paths.
    pub fn eval_tile(&self, graphs: &[Graph], pairs: &[(usize, usize)], out: &mut [f64]) {
        let pinned: PinnedFeatures<'_, JtqkInputs> = PinnedFeatures::new(graphs);
        let extract = |g: &Graph| self.extract(g);
        self.kernel_tile(pairs, &pinned, extract, out);
    }

    /// The global (quantum) factor: `exp(-JT_q(ρ_p, ρ_q))` with zero-padded
    /// density matrices.
    pub fn quantum_factor(&self, a: &Graph, b: &Graph) -> f64 {
        self.quantum_factor_from_parts(&self.extract_quantum(a), &self.extract_quantum(b))
    }

    /// The local factor: the cosine-normalised WL subtree similarity,
    /// evaluated from the per-graph cached label histograms — one sparse
    /// dot instead of a WL refinement of both graphs.
    pub fn local_factor(&self, a: &Graph, b: &Graph) -> f64 {
        Self::local_factor_from(
            &cached_wl_histogram(a, self.wl_iterations),
            &cached_wl_histogram(b, self.wl_iterations),
        )
    }

    /// The normalised WL similarity from two cached histograms.
    fn local_factor_from(a: &WlHistogram, b: &WlHistogram) -> f64 {
        if a.self_similarity <= 0.0 || b.self_similarity <= 0.0 {
            0.0
        } else {
            sparse_dot(&a.features, &b.features) / (a.self_similarity * b.self_similarity).sqrt()
        }
    }

    /// Extracts the quantum half of the per-graph artifacts: the CTQW
    /// density and its Tsallis q-entropy (derived in O(n) from the cached
    /// spectrum).
    fn extract_quantum(&self, graph: &Graph) -> QuantumInputs {
        QuantumInputs {
            density: cached_ctqw_density(graph),
            tsallis: tsallis_entropy(&cached_graph_spectrals(graph).spectrum, self.q),
        }
    }

    /// Extracts everything a Gram pair evaluation consumes: the quantum
    /// artifacts plus the cached WL label histogram of the local factor.
    fn extract(&self, graph: &Graph) -> JtqkInputs {
        JtqkInputs {
            quantum: self.extract_quantum(graph),
            wl: cached_wl_histogram(graph, self.wl_iterations),
        }
    }

    fn quantum_factor_from_parts(&self, a: &QuantumInputs, b: &QuantumInputs) -> f64 {
        let n = a.density.dim().max(b.density.dim());
        let (mut sa, mut sb) = (None, None);
        let pa = crate::features::pad_to(&a.density, n, &mut sa);
        let pb = crate::features::pad_to(&b.density, n, &mut sb);
        (-jensen_tsallis_difference_with_entropies(pa, pb, a.tsallis, b.tsallis, self.q)).exp()
    }

    fn kernel_from_inputs(&self, a: &JtqkInputs, b: &JtqkInputs) -> f64 {
        self.quantum_factor_from_parts(&a.quantum, &b.quantum)
            * Self::local_factor_from(&a.wl, &b.wl)
    }

    /// Whole-tile fast path: all of the tile's quantum mixtures go through
    /// one batched Tsallis-entropy solve; the local factor stays a sparse
    /// dot per pair. Byte-identical to
    /// [`JensenTsallisKernel::kernel_from_inputs`].
    fn kernel_tile(
        &self,
        pairs: &[(usize, usize)],
        pinned: &PinnedFeatures<'_, JtqkInputs>,
        extract: impl Fn(&Graph) -> JtqkInputs + Copy,
        out: &mut [f64],
    ) {
        let inputs: Vec<(&JtqkInputs, &JtqkInputs)> = pairs
            .iter()
            .map(|&(i, j)| (pinned.get(i, extract), pinned.get(j, extract)))
            .collect();
        let mixtures: Vec<(&DensityMatrix, &DensityMatrix)> = inputs
            .iter()
            .map(|(a, b)| (&*a.quantum.density, &*b.quantum.density))
            .collect();
        let s_mix = batch_mixture_entropies(&mixtures, MixtureEntropy::Tsallis(self.q))
            .expect("padded mixtures share a dimension");
        for (k, (a, b)) in inputs.iter().enumerate() {
            let quantum =
                (-jensen_tsallis_from_entropies(s_mix[k], a.quantum.tsallis, b.quantum.tsallis))
                    .exp();
            out[k] = quantum * Self::local_factor_from(&a.wl, &b.wl);
        }
    }
}

/// The quantum-factor half of the per-graph JTQK artifacts.
struct QuantumInputs {
    density: Arc<DensityMatrix>,
    tsallis: f64,
}

/// Per-graph artifacts of the JTQK Gram pair loop.
struct JtqkInputs {
    quantum: QuantumInputs,
    wl: Arc<WlHistogram>,
}

impl GraphKernel for JensenTsallisKernel {
    fn name(&self) -> &'static str {
        "JTQK (simplified)"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        self.kernel_from_inputs(&self.extract(a), &self.extract(b))
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = crate::kernel::time_kernel_gram(self.name());
        // Every per-graph artifact — CTQW density, Tsallis entropy, WL
        // label histogram — is pinned once per Gram computation, so the
        // pair loop pays one batched values-only mixture solve per tile
        // plus one sparse WL dot per pair.
        let pinned: PinnedFeatures<'_, JtqkInputs> = PinnedFeatures::new(graphs);
        let extract = |g: &Graph| self.extract(g);
        let spec = RemoteGram {
            kernel_id: JensenTsallisKernel::REMOTE_KERNEL_ID,
            params: vec![("q", self.q), ("wl_iterations", self.wl_iterations as f64)],
            graphs,
            artifact: None,
        };
        gram_from_tiles(
            graphs.len(),
            backend,
            |pairs: &[(usize, usize)], out: &mut [f64]| {
                self.kernel_tile(pairs, &pinned, extract, out)
            },
            Some(&spec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn tsallis_entropy_limits() {
        // q -> 1 recovers Shannon entropy of the uniform distribution.
        let uniform = [0.25; 4];
        assert!((tsallis_entropy(&uniform, 1.0) - 4.0_f64.ln()).abs() < 1e-9);
        // q = 2: S_2 = 1 - sum p^2 = 1 - 0.25 = 0.75.
        assert!((tsallis_entropy(&uniform, 2.0) - 0.75).abs() < 1e-12);
        // Deterministic distribution has zero entropy for every q.
        assert_eq!(tsallis_entropy(&[1.0, 0.0], 2.0), 0.0);
        assert_eq!(tsallis_entropy(&[1.0, 0.0], 1.0), 0.0);
    }

    #[test]
    fn jensen_tsallis_difference_properties() {
        let a = DensityMatrix::pure_state(&[1.0, 0.0]).unwrap();
        let b = DensityMatrix::pure_state(&[0.0, 1.0]).unwrap();
        let d_self = jensen_tsallis_difference(&a, &a, 2.0);
        let d_cross = jensen_tsallis_difference(&a, &b, 2.0);
        assert!(d_self.abs() < 1e-12);
        assert!(d_cross > 0.0);
        // Symmetry.
        assert!((d_cross - jensen_tsallis_difference(&b, &a, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn kernel_self_similarity_dominates() {
        let kernel = JensenTsallisKernel::default();
        let g = cycle_graph(6);
        let h = star_graph(6);
        let self_sim = kernel.compute(&g, &g);
        let cross = kernel.compute(&g, &h);
        assert!(self_sim > cross);
        assert!(
            (self_sim - 1.0).abs() < 1e-9,
            "normalised local factor + zero JT difference"
        );
    }

    #[test]
    fn kernel_is_symmetric_and_in_unit_interval() {
        let kernel = JensenTsallisKernel::new(2.0, 2);
        let a = path_graph(6);
        let b = cycle_graph(7);
        let v = kernel.compute(&a, &b);
        assert!((v - kernel.compute(&b, &a)).abs() < 1e-9);
        assert!(v >= 0.0 && v <= 1.0 + 1e-9);
    }

    #[test]
    fn factors_are_individually_bounded() {
        let kernel = JensenTsallisKernel::default();
        let a = path_graph(5);
        let b = star_graph(8);
        let qf = kernel.quantum_factor(&a, &b);
        let lf = kernel.local_factor(&a, &b);
        assert!(qf > 0.0 && qf <= 1.0 + 1e-12);
        assert!(lf >= 0.0 && lf <= 1.0 + 1e-12);
    }
}
