//! Property-based tests of the HAQJSK kernels' theoretical guarantees on
//! randomly generated datasets: positive semidefiniteness of the Gram
//! matrix, permutation invariance, symmetry and boundedness, plus shape
//! invariants of the intermediate aligned structures.

use haqjsk_core::aligned::{aligned_adjacency_family, aligned_density_family};
use haqjsk_core::correspondence::GraphCorrespondences;
use haqjsk_core::db_representation::DbRepresentations;
use haqjsk_core::{HaqjskConfig, HaqjskModel, HaqjskVariant, PrototypeHierarchy};
use haqjsk_graph::generators::{barabasi_albert, erdos_renyi, random_tree, watts_strogatz};
use haqjsk_graph::Graph;
use proptest::prelude::*;

fn random_dataset(seed: u64, count: usize) -> Vec<Graph> {
    (0..count)
        .map(|i| {
            let s = seed.wrapping_mul(97).wrapping_add(i as u64);
            match i % 4 {
                0 => erdos_renyi(6 + i % 4, 0.4, s),
                1 => barabasi_albert(7 + i % 3, 2, s),
                2 => watts_strogatz(8 + i % 3, 4, 0.3, s),
                _ => random_tree(6 + i % 5, s),
            }
        })
        .collect()
}

fn tiny_config() -> HaqjskConfig {
    HaqjskConfig {
        hierarchy_levels: 2,
        num_prototypes: 8,
        layer_cap: 3,
        kmeans_max_iterations: 15,
        ..HaqjskConfig::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Aligned structures have the prototype-determined fixed shape, conserve
    /// adjacency mass, and the aligned densities are valid quantum states.
    #[test]
    fn aligned_structures_shape_and_mass(seed in 0u64..300) {
        let graphs = random_dataset(seed, 5);
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = tiny_config();
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        for (gi, graph) in graphs.iter().enumerate() {
            let corr = GraphCorrespondences::compute(&reps, gi, &hierarchy);
            let adjacency_family = aligned_adjacency_family(graph, &corr);
            for (h, aligned) in adjacency_family.iter().enumerate() {
                let m = hierarchy.prototypes_at(h + 1, 1);
                prop_assert_eq!(aligned.shape(), (m, m));
                prop_assert!(aligned.is_symmetric(1e-9));
                prop_assert!((aligned.sum() - graph.adjacency_matrix().sum()).abs() < 1e-8);
            }
            let density_family = aligned_density_family(graph, &corr).unwrap();
            for rho in &density_family {
                prop_assert!((rho.matrix().trace() - 1.0).abs() < 1e-8);
                prop_assert!(rho.spectrum().unwrap().iter().all(|&l| l >= -1e-7));
            }
        }
    }

    /// The fitted model's Gram matrix is PSD and its entries obey symmetry
    /// and the self-similarity bound.
    #[test]
    fn gram_matrix_properties(seed in 0u64..300) {
        let graphs = random_dataset(seed, 6);
        let model = HaqjskModel::fit(&graphs, tiny_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let gram = model.gram_matrix(&graphs).unwrap();
        prop_assert!(gram.is_positive_semidefinite(1e-6).unwrap());
        let bound = model.max_kernel_value();
        for i in 0..graphs.len() {
            prop_assert!((gram.get(i, i) - bound).abs() < 1e-8);
            for j in 0..graphs.len() {
                prop_assert!((gram.get(i, j) - gram.get(j, i)).abs() < 1e-10);
                prop_assert!(gram.get(i, j) > 0.0);
                prop_assert!(gram.get(i, j) <= bound + 1e-8);
            }
        }
    }

    /// Permutation invariance of the kernel value for arbitrary relabellings.
    #[test]
    fn permutation_invariance(seed in 0u64..300, perm_seed in 0u64..50) {
        let graphs = random_dataset(seed, 5);
        let model = HaqjskModel::fit(&graphs, tiny_config(), HaqjskVariant::AlignedDensity).unwrap();
        let target = &graphs[0];
        let n = target.num_vertices();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = perm_seed + 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let relabelled = target.permute(&perm).unwrap();
        for other in &graphs {
            let before = model.kernel_between(target, other).unwrap();
            let after = model.kernel_between(&relabelled, other).unwrap();
            prop_assert!((before - after).abs() < 1e-8);
        }
    }

    /// Fitting is deterministic: the same dataset, config and seed give the
    /// same Gram matrix.
    #[test]
    fn fitting_is_deterministic(seed in 0u64..200) {
        let graphs = random_dataset(seed, 5);
        let a = HaqjskModel::fit(&graphs, tiny_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let b = HaqjskModel::fit(&graphs, tiny_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let ga = a.gram_matrix(&graphs).unwrap();
        let gb = b.gram_matrix(&graphs).unwrap();
        prop_assert!((ga.matrix() - gb.matrix()).max_abs() < 1e-12);
    }
}
