//! Property-based tests for the QJSD fast path: reading the endpoint
//! entropies from the states' memos (the per-graph values the kernel pair
//! loops hoist) must not change the divergence, including across
//! zero-padding.

use haqjsk_linalg::Matrix;
use haqjsk_quantum::{
    entropy_of_spectrum, qjsd, qjsd_from_entropies, qjsd_padded, von_neumann_entropy, DensityMatrix,
};
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

/// Entropy from a fresh values-only solve, bypassing every memo.
fn fresh_entropy(rho: &DensityMatrix) -> f64 {
    entropy_of_spectrum(&rho.spectrum().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `qjsd_from_entropies` over memoised endpoint entropies is `qjsd`
    /// bit for bit, and both equal the divergence assembled from fresh
    /// solves of all three states.
    #[test]
    fn memoised_entropies_match_fresh_solves(pair in density_pair()) {
        let (rho, sigma) = pair;
        let mixture = rho.mix(&sigma).unwrap();
        let h = |state: &DensityMatrix| von_neumann_entropy(state).unwrap();
        let reference =
            qjsd_from_entropies(fresh_entropy(&mixture), fresh_entropy(&rho), fresh_entropy(&sigma));
        let direct = qjsd(&rho, &sigma).unwrap();
        let hoisted = qjsd_from_entropies(h(&mixture), h(&rho), h(&sigma));
        prop_assert_eq!(direct.to_bits(), reference.to_bits());
        prop_assert_eq!(hoisted.to_bits(), reference.to_bits());
    }

    /// Zero-padding invariance of the hoisted entropies: the QJSD of padded
    /// states computed against the *unpadded* states' memoised entropies
    /// matches the all-padded reference — the exact substitution the Gram
    /// pair loops perform.
    #[test]
    fn unpadded_memos_serve_padded_states(pair in density_pair(), pad in 0usize..4) {
        let (rho, sigma) = pair;
        let n = rho.dim() + pad;
        let pr = rho.zero_pad(n).unwrap();
        let ps = sigma.zero_pad(n).unwrap();
        let reference = qjsd_padded(&rho, &ps).unwrap();
        let h = |state: &DensityMatrix| von_neumann_entropy(state).unwrap();
        let hoisted = qjsd_from_entropies(h(&pr.mix(&ps).unwrap()), h(&rho), h(&sigma));
        prop_assert!((reference - hoisted).abs() < 1e-12, "{} vs {}", reference, hoisted);
    }
}
