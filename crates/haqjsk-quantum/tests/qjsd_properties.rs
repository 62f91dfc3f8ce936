//! Property-based tests for the QJSD fast path: supplying precomputed
//! endpoint entropies (the per-graph artifacts the kernel pair loops hoist)
//! must not change the divergence, including across zero-padding.

use haqjsk_linalg::Matrix;
use haqjsk_quantum::{qjsd, qjsd_padded, qjsd_with_entropies, von_neumann_entropy, DensityMatrix};
use proptest::prelude::*;

/// Strategy producing a random density matrix of dimension `n`: `AᵀA` is
/// symmetric PSD, and `from_unnormalized` scales it to unit trace.
fn density(n: usize) -> impl Strategy<Value = DensityMatrix> {
    proptest::collection::vec(-2.0..2.0_f64, n * n).prop_map(move |data| {
        let a = Matrix::from_vec(n, n, data).unwrap();
        DensityMatrix::from_unnormalized(&a.gram()).expect("AᵀA is a valid unnormalised state")
    })
}

/// Random density pairs of equal dimension.
fn density_pair() -> impl Strategy<Value = (DensityMatrix, DensityMatrix)> {
    (2usize..=8).prop_flat_map(|n| (density(n), density(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `qjsd_with_entropies` with independently computed endpoint entropies
    /// matches `qjsd` within 1e-12 on random density pairs.
    #[test]
    fn qjsd_with_entropies_matches_qjsd(pair in density_pair()) {
        let (rho, sigma) = pair;
        let direct = qjsd(&rho, &sigma).unwrap();
        let hoisted = qjsd_with_entropies(
            &rho,
            &sigma,
            von_neumann_entropy(&rho).unwrap(),
            von_neumann_entropy(&sigma).unwrap(),
        )
        .unwrap();
        prop_assert!((direct - hoisted).abs() < 1e-12, "{direct} vs {hoisted}");
    }

    /// Zero-padding invariance of the hoisted entropies: the QJSD of padded
    /// states computed against the *unpadded* endpoint entropies matches
    /// the all-padded reference — the exact substitution the Gram pair
    /// loops perform.
    #[test]
    fn unpadded_entropies_serve_padded_states(pair in density_pair(), pad in 0usize..4) {
        let (rho, sigma) = pair;
        let n = rho.dim() + pad;
        let pr = rho.zero_pad(n).unwrap();
        let ps = sigma.zero_pad(n).unwrap();
        let reference = qjsd_padded(&rho, &ps).unwrap();
        let hoisted = qjsd_with_entropies(
            &pr,
            &ps,
            von_neumann_entropy(&rho).unwrap(),
            von_neumann_entropy(&sigma).unwrap(),
        )
        .unwrap();
        prop_assert!((reference - hoisted).abs() < 1e-12, "{reference} vs {hoisted}");
    }
}
