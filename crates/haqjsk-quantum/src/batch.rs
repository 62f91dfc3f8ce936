//! Batched mixture-entropy evaluation for the kernel pair loops.
//!
//! Every QJSK/JTQK pair evaluation reduces to the entropy of one mixture
//! state `(ρ_p + ρ_q)/2` (endpoint entropies are per-graph and cached
//! upstream). [`batch_mixture_entropies`] performs that reduction for a
//! whole tile of pairs in one call: it forms the zero-padded mixtures with
//! exactly the per-pair arithmetic ([`DensityMatrix::zero_pad`] +
//! [`DensityMatrix::mix`]) one solver-lane-width chunk at a time (grouped
//! by mixture dimension, so batches stay full while live memory stays
//! bounded), runs each chunk through the lane-parallel SoA eigensolver
//! ([`haqjsk_linalg::batch_symmetric_eigenvalues`]), and applies the
//! requested entropy functional to each clamped spectrum. Because the
//! batched eigensolver is bit-identical to the scalar values-only driver
//! and every surrounding operation is shared with the per-pair path, the
//! returned entropies are **bit-identical** to evaluating each pair alone.

use crate::density::{clamp_spectrum, DensityMatrix};
use crate::entropy::{entropy_of_spectrum, tsallis_entropy_of_spectrum, von_neumann_entropy};
use crate::qjsd::qjsd_from_entropies;
use haqjsk_linalg::{batch_symmetric_eigenvalues, max_batch_lanes, LinalgError, Matrix};
use std::collections::BTreeMap;

/// The entropy functional applied to each batched mixture spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixtureEntropy {
    /// Von Neumann entropy `-Σ λ ln λ` (the QJSD core).
    VonNeumann,
    /// Tsallis q-entropy `(1 - Σ λ^q)/(q - 1)` (the JTQK core).
    Tsallis(f64),
}

impl MixtureEntropy {
    fn of_spectrum(self, spectrum: &[f64]) -> f64 {
        match self {
            MixtureEntropy::VonNeumann => entropy_of_spectrum(spectrum),
            MixtureEntropy::Tsallis(q) => tsallis_entropy_of_spectrum(spectrum, q),
        }
    }
}

/// Entropies of the K mixtures `(ρ_k + σ_k)/2`, one per input pair, with
/// the smaller state of each pair zero-padded up to its partner's
/// dimension first.
///
/// The mixtures are assembled with the same operations the per-pair path
/// uses and their spectra come from the batched values-only eigensolver
/// (clamped to `[0, 1]` exactly like [`DensityMatrix::spectrum`]), so each
/// returned entropy is bit-identical to
/// `entropy(pad(ρ).mix(pad(σ)).spectrum())` evaluated pair by pair — the
/// tile-batched Gram paths rely on this to stay byte-identical to the
/// per-pair fallback.
pub fn batch_mixture_entropies(
    pairs: &[(&DensityMatrix, &DensityMatrix)],
    entropy: MixtureEntropy,
) -> Result<Vec<f64>, LinalgError> {
    // Group pair indices by mixture dimension up front (known without
    // forming anything), then materialise only one lane-width chunk of
    // mixtures at a time: full batches for the solver, while live memory
    // stays bounded at the active SIMD path's lane width (16 under
    // AVX-512F, 8 otherwise) no matter how many pairs the caller's tile
    // carries.
    let lane_cap = max_batch_lanes();
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, &(rho, sigma)) in pairs.iter().enumerate() {
        groups
            .entry(rho.dim().max(sigma.dim()))
            .or_default()
            .push(idx);
    }
    let mut out = vec![0.0; pairs.len()];
    for (&n, idxs) in &groups {
        for chunk in idxs.chunks(lane_cap) {
            let mut mixtures: Vec<DensityMatrix> = Vec::with_capacity(chunk.len());
            for &idx in chunk {
                let (rho, sigma) = pairs[idx];
                let mixture = if rho.dim() == n && sigma.dim() == n {
                    rho.mix(sigma)?
                } else if rho.dim() == n {
                    rho.mix(&sigma.zero_pad(n)?)?
                } else {
                    rho.zero_pad(n)?.mix(sigma)?
                };
                mixtures.push(mixture);
            }
            let matrices: Vec<&Matrix> = mixtures.iter().map(DensityMatrix::matrix).collect();
            let spectra = batch_symmetric_eigenvalues(&matrices)?;
            for (&idx, spectrum) in chunk.iter().zip(spectra) {
                out[idx] = entropy.of_spectrum(&clamp_spectrum(spectrum));
            }
        }
    }
    Ok(out)
}

/// `D_QJS` of every pair: the `mixtures` (each pair's smaller state
/// zero-padded) solved as one batch by [`batch_mixture_entropies`], and the
/// endpoint entropies read from the memos of the matching `endpoints`
/// pair. The endpoints are the mixture's own states, or states with the
/// same spectrum (an aligned kernel mixes a permuted copy of its second
/// state). Each value is bit-identical to [`qjsd`](fn@crate::qjsd) on that pair.
pub fn batch_qjsd<'a>(
    mixtures: &[(&DensityMatrix, &DensityMatrix)],
    endpoints: impl IntoIterator<Item = (&'a DensityMatrix, &'a DensityMatrix)>,
) -> Result<Vec<f64>, LinalgError> {
    let h_mixtures = batch_mixture_entropies(mixtures, MixtureEntropy::VonNeumann)?;
    h_mixtures
        .into_iter()
        .zip(endpoints)
        .map(|(h_mixture, (rho, sigma))| {
            let (h_rho, h_sigma) = (von_neumann_entropy(rho)?, von_neumann_entropy(sigma)?);
            Ok(qjsd_from_entropies(h_mixture, h_rho, h_sigma))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctqw::ctqw_density_infinite;
    use haqjsk_graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};

    fn states() -> Vec<DensityMatrix> {
        let graphs = [
            path_graph(5),
            cycle_graph(6),
            star_graph(7),
            erdos_renyi(6, 0.4, 3),
            path_graph(7),
        ];
        graphs
            .iter()
            .map(|g| ctqw_density_infinite(g).unwrap())
            .collect()
    }

    #[test]
    fn batched_von_neumann_matches_per_pair_bitwise() {
        let rhos = states();
        let mut pairs = Vec::new();
        for i in 0..rhos.len() {
            for j in i..rhos.len() {
                pairs.push((&rhos[i], &rhos[j]));
            }
        }
        let batched = batch_mixture_entropies(&pairs, MixtureEntropy::VonNeumann).unwrap();
        for (k, &(rho, sigma)) in pairs.iter().enumerate() {
            let n = rho.dim().max(sigma.dim());
            let mixture = rho
                .zero_pad(n)
                .unwrap()
                .mix(&sigma.zero_pad(n).unwrap())
                .unwrap();
            let direct = von_neumann_entropy(&mixture).unwrap();
            assert_eq!(
                batched[k].to_bits(),
                direct.to_bits(),
                "pair {k}: batched mixture entropy must match the per-pair value bit for bit"
            );
        }
    }

    #[test]
    fn batched_tsallis_matches_per_pair_bitwise() {
        let rhos = states();
        let pairs: Vec<_> = (0..rhos.len() - 1)
            .map(|i| (&rhos[i], &rhos[i + 1]))
            .collect();
        for q in [1.0, 2.0, 3.0] {
            let batched = batch_mixture_entropies(&pairs, MixtureEntropy::Tsallis(q)).unwrap();
            for (k, &(rho, sigma)) in pairs.iter().enumerate() {
                let n = rho.dim().max(sigma.dim());
                let mixture = rho
                    .zero_pad(n)
                    .unwrap()
                    .mix(&sigma.zero_pad(n).unwrap())
                    .unwrap();
                let direct = tsallis_entropy_of_spectrum(&mixture.spectrum().unwrap(), q);
                assert_eq!(batched[k].to_bits(), direct.to_bits(), "pair {k} q={q}");
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(batch_mixture_entropies(&[], MixtureEntropy::VonNeumann)
            .unwrap()
            .is_empty());
    }
}
