//! Property-based integration tests of the paper's theoretical claims,
//! exercised across crates on randomly generated datasets.

use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::graph::generators::{barabasi_albert, erdos_renyi, random_tree, watts_strogatz};
use haqjsk::graph::Graph;
use haqjsk::kernels::GraphKernel;
use haqjsk::quantum::{ctqw_density_infinite, qjsd_padded, von_neumann_entropy};
use proptest::prelude::*;

/// A mixed bag of random graphs from several generative families.
fn random_dataset(seed: u64, count: usize) -> Vec<Graph> {
    (0..count)
        .map(|i| {
            let s = seed.wrapping_mul(31).wrapping_add(i as u64);
            match i % 4 {
                0 => erdos_renyi(6 + i % 5, 0.35, s),
                1 => barabasi_albert(7 + i % 4, 2, s),
                2 => watts_strogatz(8 + i % 4, 4, 0.2, s),
                _ => random_tree(7 + i % 6, s),
            }
        })
        .collect()
}

fn quick_config() -> HaqjskConfig {
    HaqjskConfig {
        hierarchy_levels: 2,
        num_prototypes: 10,
        layer_cap: 3,
        kmeans_max_iterations: 20,
        ..HaqjskConfig::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Lemma of Sec. III-B: the HAQJSK Gram matrix is positive semidefinite
    /// on arbitrary datasets (checked via its minimum eigenvalue).
    #[test]
    fn haqjsk_gram_is_psd_on_random_datasets(seed in 0u64..200, count in 6usize..10) {
        let graphs = random_dataset(seed, count);
        for variant in [HaqjskVariant::AlignedAdjacency, HaqjskVariant::AlignedDensity] {
            let model = HaqjskModel::fit(&graphs, quick_config(), variant).unwrap();
            let gram = model.gram_matrix(&graphs).unwrap();
            let min_eig = gram.min_eigenvalue().unwrap();
            prop_assert!(
                min_eig > -1e-7 * gram.matrix().max_abs().max(1.0),
                "{}: min eigenvalue {min_eig}",
                variant.label()
            );
        }
    }

    /// HAQJSK kernel values are symmetric, positive, and bounded by the
    /// number of hierarchy levels, with self-similarity attaining the bound.
    #[test]
    fn haqjsk_kernel_bounds(seed in 0u64..200) {
        let graphs = random_dataset(seed, 6);
        let model = HaqjskModel::fit(&graphs, quick_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let bound = model.max_kernel_value();
        for i in 0..graphs.len() {
            let self_sim = model.kernel_between(&graphs[i], &graphs[i]).unwrap();
            prop_assert!((self_sim - bound).abs() < 1e-8);
            for j in (i + 1)..graphs.len() {
                let ij = model.kernel_between(&graphs[i], &graphs[j]).unwrap();
                let ji = model.kernel_between(&graphs[j], &graphs[i]).unwrap();
                prop_assert!((ij - ji).abs() < 1e-8);
                prop_assert!(ij > 0.0);
                prop_assert!(ij <= bound + 1e-8);
            }
        }
    }

    /// The QJSD between CTQW densities of random graphs respects its bounds
    /// and vanishes only on identical states.
    #[test]
    fn qjsd_respects_bounds_across_random_graphs(seed in 0u64..500) {
        let a = erdos_renyi(8, 0.4, seed);
        let b = barabasi_albert(10, 2, seed + 1);
        let rho_a = ctqw_density_infinite(&a).unwrap();
        let rho_b = ctqw_density_infinite(&b).unwrap();
        let d = qjsd_padded(&rho_a, &rho_b).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d <= std::f64::consts::LN_2 + 1e-9);
        let h_a = von_neumann_entropy(&rho_a).unwrap();
        prop_assert!(h_a >= 0.0);
        prop_assert!(h_a <= (a.num_vertices() as f64).ln() + 1e-9);
    }

    /// Implementing the GraphKernel trait, the fitted model agrees with its
    /// inherent API on random inputs.
    #[test]
    fn trait_and_inherent_api_agree(seed in 0u64..100) {
        let graphs = random_dataset(seed, 5);
        let model = HaqjskModel::fit(&graphs, quick_config(), HaqjskVariant::AlignedDensity).unwrap();
        let via_trait = GraphKernel::compute(&model, &graphs[0], &graphs[1]);
        let direct = model.kernel_between(&graphs[0], &graphs[1]).unwrap();
        prop_assert!((via_trait - direct).abs() < 1e-12);
    }
}
