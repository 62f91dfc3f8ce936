//! Property-based tests for the quantum-walk machinery.

use haqjsk_graph::generators::erdos_renyi;
use haqjsk_quantum::entropy::max_entropy;
use haqjsk_quantum::{ctqw_density_infinite, qjsd, qjsd_padded, von_neumann_entropy};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = haqjsk_graph::Graph> {
    (3usize..14, 0.15f64..0.9, 0u64..500).prop_map(|(n, p, seed)| erdos_renyi(n, p, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CTQW density matrix is always a valid quantum state: symmetric,
    /// unit trace, non-negative spectrum.
    #[test]
    fn ctqw_density_is_valid_state(g in graph_strategy()) {
        let rho = ctqw_density_infinite(&g).unwrap();
        let m = rho.matrix();
        prop_assert!((m.trace() - 1.0).abs() < 1e-8);
        prop_assert!(m.is_symmetric(1e-8));
        for l in rho.spectrum().unwrap() {
            prop_assert!(l >= -1e-8);
            prop_assert!(l <= 1.0 + 1e-8);
        }
    }

    /// Von Neumann entropy is bounded by 0 and ln(n).
    #[test]
    fn entropy_bounds(g in graph_strategy()) {
        let rho = ctqw_density_infinite(&g).unwrap();
        let h = von_neumann_entropy(&rho).unwrap();
        prop_assert!(h >= -1e-10);
        prop_assert!(h <= max_entropy(rho.dim()) + 1e-8);
    }

    /// The QJSD between CTQW densities of two random graphs is symmetric,
    /// non-negative, bounded by ln 2, and zero for identical graphs.
    #[test]
    fn qjsd_properties(g1 in graph_strategy(), g2 in graph_strategy()) {
        let r1 = ctqw_density_infinite(&g1).unwrap();
        let r2 = ctqw_density_infinite(&g2).unwrap();
        let d12 = qjsd_padded(&r1, &r2).unwrap();
        let d21 = qjsd_padded(&r2, &r1).unwrap();
        prop_assert!((d12 - d21).abs() < 1e-9);
        prop_assert!(d12 >= 0.0);
        prop_assert!(d12 <= std::f64::consts::LN_2 + 1e-9);
        let self_d = qjsd(&r1, &r1).unwrap();
        prop_assert!(self_d.abs() < 1e-9);
    }

    /// The von Neumann entropy of a CTQW density matrix is invariant under
    /// graph relabelling, and the density matrix itself is covariant.
    #[test]
    fn entropy_is_permutation_invariant(g in graph_strategy(), seed in 0u64..100) {
        let n = g.num_vertices();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed + 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let pg = g.permute(&perm).unwrap();
        let h1 = von_neumann_entropy(&ctqw_density_infinite(&g).unwrap()).unwrap();
        let h2 = von_neumann_entropy(&ctqw_density_infinite(&pg).unwrap()).unwrap();
        prop_assert!((h1 - h2).abs() < 1e-7);
    }
}
