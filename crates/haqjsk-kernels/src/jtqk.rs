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
//!
//! Both factors are fully factored through per-graph artifacts, which a
//! Gram extracts once per graph: the quantum factor through the memoised
//! spectrum of each graph's CTQW density (leaving one values-only mixture
//! solve per pair), and the local factor through WL label histograms
//! (leaving one merge-join sparse dot per pair instead of a full WL
//! refinement of both graphs). Like the QJSK baselines, every evaluation —
//! one pair or a Gram tile — is one call over a slice of input pairs, whose
//! mixtures go through one batched Tsallis-entropy solve.

use crate::features::WlHistogram;
use crate::kernel::{
    compute_pair, pair_batch_gram, sparse_dot, GraphKernel, PairBatchKernel, INPUTS,
};
use crate::matrix::KernelMatrix;
use haqjsk_engine::BackendKind;
use haqjsk_graph::Graph;
use haqjsk_linalg::LinalgError;
use haqjsk_quantum::{
    batch_mixture_entropies, ctqw_density_infinite, tsallis_entropy_of_spectrum, DensityMatrix,
    MixtureEntropy,
};

/// Jensen–Tsallis q-difference between two density matrices of equal
/// dimension: `S_q((ρ+σ)/2) - (S_q(ρ) + S_q(σ)) / 2`, clamped at zero.
/// Each spectrum is read from its state's memo.
pub fn jensen_tsallis_difference(
    rho: &DensityMatrix,
    sigma: &DensityMatrix,
    q: f64,
) -> Result<f64, LinalgError> {
    let s_q = |state: &DensityMatrix| {
        Ok::<_, LinalgError>(tsallis_entropy_of_spectrum(state.memoised_spectrum()?, q))
    };
    Ok(jensen_tsallis_from_entropies(
        s_q(&rho.mix(sigma)?)?,
        s_q(rho)?,
        s_q(sigma)?,
    ))
}

/// The Jensen–Tsallis q-difference once all three entropies are known:
/// `S_q(mix) - (S_q(ρ) + S_q(σ))/2`, clamped at zero. The kernel and
/// [`jensen_tsallis_difference`] both reduce through this one expression.
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
    /// Creates the kernel with Tsallis order `q` and `wl_iterations` rounds
    /// of WL refinement.
    pub fn new(q: f64, wl_iterations: usize) -> Self {
        JensenTsallisKernel { q, wl_iterations }
    }

    /// The global (quantum) factor: `exp(-JT_q(ρ_p, ρ_q))` with zero-padded
    /// density matrices.
    pub fn quantum_factor(&self, a: &Graph, b: &Graph) -> Result<f64, LinalgError> {
        let (a, b) = (self.extract(a)?, self.extract(b)?);
        let mut out = [0.0];
        self.quantum_factors(&[(&a, &b)], &mut out)?;
        Ok(out[0])
    }

    /// The local factor: the cosine-normalised WL subtree similarity,
    /// evaluated from the per-graph label histograms — one sparse dot
    /// instead of a WL refinement of both graphs.
    pub fn local_factor(&self, a: &Graph, b: &Graph) -> f64 {
        Self::local_factor_from(
            &WlHistogram::new(a, self.wl_iterations),
            &WlHistogram::new(b, self.wl_iterations),
        )
    }

    /// The normalised WL similarity from two histograms.
    fn local_factor_from(a: &WlHistogram, b: &WlHistogram) -> f64 {
        if a.self_similarity <= 0.0 || b.self_similarity <= 0.0 {
            0.0
        } else {
            sparse_dot(&a.features, &b.features) / (a.self_similarity * b.self_similarity).sqrt()
        }
    }

    /// The quantum factor of every input pair, the mixtures solved as one
    /// batch (which zero-pads the smaller state of each pair itself).
    fn quantum_factors(
        &self,
        pairs: &[(&JtqkInputs, &JtqkInputs)],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        let mixtures: Vec<(&DensityMatrix, &DensityMatrix)> = pairs
            .iter()
            .map(|(a, b)| (&a.density, &b.density))
            .collect();
        let s_mix = batch_mixture_entropies(&mixtures, MixtureEntropy::Tsallis(self.q))?;
        for (k, (a, b)) in pairs.iter().enumerate() {
            out[k] = (-jensen_tsallis_from_entropies(s_mix[k], a.tsallis, b.tsallis)).exp();
        }
        Ok(())
    }
}

/// Per-graph inputs of the JTQK pair evaluation: the CTQW density, its
/// Tsallis q-entropy (from the density's memoised spectrum, which
/// zero-padding leaves unchanged) and the WL label histogram.
pub(crate) struct JtqkInputs {
    density: DensityMatrix,
    tsallis: f64,
    wl: WlHistogram,
}

impl PairBatchKernel for JensenTsallisKernel {
    type Inputs = JtqkInputs;

    fn extract(&self, graph: &Graph) -> Result<JtqkInputs, LinalgError> {
        let density = ctqw_density_infinite(graph)?;
        let tsallis = tsallis_entropy_of_spectrum(density.memoised_spectrum()?, self.q);
        Ok(JtqkInputs {
            density,
            tsallis,
            wl: WlHistogram::new(graph, self.wl_iterations),
        })
    }

    /// The quantum factors of the whole slice, each times one sparse WL
    /// dot.
    fn kernel_batch(
        &self,
        pairs: &[(&JtqkInputs, &JtqkInputs)],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        self.quantum_factors(pairs, out)?;
        for (k, (a, b)) in pairs.iter().enumerate() {
            out[k] *= Self::local_factor_from(&a.wl, &b.wl);
        }
        Ok(())
    }
}

impl GraphKernel for JensenTsallisKernel {
    fn name(&self) -> &'static str {
        "JTQK (simplified)"
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
    fn tsallis_entropy_limits() {
        // q -> 1 recovers Shannon entropy of the uniform distribution.
        let uniform = [0.25; 4];
        assert!((tsallis_entropy_of_spectrum(&uniform, 1.0) - 4.0_f64.ln()).abs() < 1e-9);
        // q = 2: S_2 = 1 - sum p^2 = 1 - 0.25 = 0.75.
        assert!((tsallis_entropy_of_spectrum(&uniform, 2.0) - 0.75).abs() < 1e-12);
        // Deterministic distribution has zero entropy for every q.
        assert_eq!(tsallis_entropy_of_spectrum(&[1.0, 0.0], 2.0), 0.0);
        assert_eq!(tsallis_entropy_of_spectrum(&[1.0, 0.0], 1.0), 0.0);
    }

    #[test]
    fn jensen_tsallis_difference_properties() {
        let a = DensityMatrix::pure_state(&[1.0, 0.0]).unwrap();
        let b = DensityMatrix::pure_state(&[0.0, 1.0]).unwrap();
        let d_self = jensen_tsallis_difference(&a, &a, 2.0).unwrap();
        let d_cross = jensen_tsallis_difference(&a, &b, 2.0).unwrap();
        assert!(d_self.abs() < 1e-12);
        assert!(d_cross > 0.0);
        // Symmetry.
        assert!((d_cross - jensen_tsallis_difference(&b, &a, 2.0).unwrap()).abs() < 1e-12);
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
        assert!((0.0..=1.0 + 1e-9).contains(&v));
    }

    #[test]
    fn factors_are_individually_bounded() {
        let kernel = JensenTsallisKernel::default();
        let a = path_graph(5);
        let b = star_graph(8);
        let qf = kernel.quantum_factor(&a, &b).unwrap();
        let lf = kernel.local_factor(&a, &b);
        assert!(qf > 0.0 && qf <= 1.0 + 1e-12);
        assert!((0.0..=1.0 + 1e-12).contains(&lf));
    }
}
