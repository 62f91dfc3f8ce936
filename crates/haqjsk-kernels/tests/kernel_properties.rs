//! Property-based tests shared by all baseline kernels: symmetry, bounds,
//! positive semidefiniteness of feature-map kernels, and behaviour of the
//! kernel-matrix utilities on random Gram matrices.

use haqjsk_graph::generators::{barabasi_albert, erdos_renyi, random_tree, watts_strogatz};
use haqjsk_graph::Graph;
use haqjsk_kernels::{
    DepthBasedAlignedKernel, GraphKernel, GraphletKernel, JensenTsallisKernel, KernelMatrix,
    QjskUnaligned, RandomWalkKernel, ShortestPathKernel, WeisfeilerLehmanKernel,
};
use haqjsk_linalg::Matrix;
use proptest::prelude::*;

fn random_graph(seed: u64, which: usize) -> Graph {
    match which % 4 {
        0 => erdos_renyi(5 + (seed % 6) as usize, 0.4, seed),
        1 => barabasi_albert(6 + (seed % 5) as usize, 2, seed),
        2 => watts_strogatz(7 + (seed % 5) as usize, 4, 0.25, seed),
        _ => random_tree(6 + (seed % 7) as usize, seed),
    }
}

fn classical_kernels() -> Vec<Box<dyn GraphKernel>> {
    vec![
        Box::new(WeisfeilerLehmanKernel::new(2)),
        Box::new(ShortestPathKernel::new()),
        Box::new(GraphletKernel::three_only()),
        Box::new(RandomWalkKernel::new(3, 0.1)),
        Box::new(DepthBasedAlignedKernel::new(3, 1.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every kernel is symmetric and produces finite, non-negative values on
    /// random graph pairs.
    #[test]
    fn kernels_are_symmetric_and_finite(seed_a in 0u64..300, seed_b in 0u64..300, fam_a in 0usize..4, fam_b in 0usize..4) {
        let a = random_graph(seed_a, fam_a);
        let b = random_graph(seed_b, fam_b);
        for kernel in classical_kernels() {
            let ab = kernel.compute(&a, &b);
            let ba = kernel.compute(&b, &a);
            prop_assert!(ab.is_finite(), "{}", kernel.name());
            prop_assert!(ab >= 0.0, "{}", kernel.name());
            prop_assert!((ab - ba).abs() < 1e-7, "{}: {ab} vs {ba}", kernel.name());
        }
    }

    /// Feature-map kernels (WL, SP, graphlet) produce PSD Gram matrices on
    /// random datasets.
    #[test]
    fn feature_map_kernels_are_psd(seed in 0u64..200, count in 4usize..8) {
        let graphs: Vec<Graph> = (0..count).map(|i| random_graph(seed + i as u64, i)).collect();
        for kernel in [
            &WeisfeilerLehmanKernel::new(2) as &dyn GraphKernel,
            &ShortestPathKernel::new(),
            &GraphletKernel::three_only(),
        ] {
            let gram = kernel.gram_matrix(&graphs);
            prop_assert!(
                gram.is_positive_semidefinite(1e-7).unwrap(),
                "{} should be PSD, min eigenvalue {}",
                kernel.name(),
                gram.min_eigenvalue().unwrap()
            );
        }
    }

    /// The unaligned QJSK kernel lies in (0, 1] with 1 exactly on identical
    /// graphs; the Weisfeiler-Lehman kernel dominates cross terms with its
    /// self-similarity (Cauchy-Schwarz).
    #[test]
    fn kernel_value_bounds(seed in 0u64..200) {
        let a = random_graph(seed, 0);
        let b = random_graph(seed + 17, 1);
        let qjsk = QjskUnaligned::default();
        let v = qjsk.compute(&a, &b);
        prop_assert!(v > 0.0 && v <= 1.0 + 1e-9);
        prop_assert!((qjsk.compute(&a, &a) - 1.0).abs() < 1e-9);

        let wl = WeisfeilerLehmanKernel::new(2);
        let ab = wl.compute(&a, &b);
        let aa = wl.compute(&a, &a);
        let bb = wl.compute(&b, &b);
        prop_assert!(ab * ab <= aa * bb + 1e-6);
    }

    /// Normalising any symmetric PSD Gram matrix keeps it PSD and bounds
    /// entries by 1; centring makes row sums vanish.
    #[test]
    fn kernel_matrix_utilities(raw in proptest::collection::vec(0.0..2.0f64, 25)) {
        let m = Matrix::from_vec(5, 5, raw).unwrap();
        // Make it symmetric PSD via M Mᵀ.
        let psd = m.matmul(&m.transpose()).unwrap();
        let gram = KernelMatrix::new(psd).unwrap();
        let normalized = gram.normalized();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!(normalized.get(i, j).abs() <= 1.0 + 1e-9);
            }
        }
        prop_assert!(normalized.is_positive_semidefinite(1e-7).unwrap());
        let centered = gram.centered();
        for i in 0..5 {
            let s: f64 = (0..5).map(|j| centered.get(i, j)).sum();
            prop_assert!(s.abs() < 1e-8);
        }
        // PSD projection never lowers the minimum eigenvalue below zero.
        let projected = gram.project_psd().unwrap();
        prop_assert!(projected.min_eigenvalue().unwrap() >= -1e-8);
    }

    /// The simplified JTQK kernel stays within [0, 1] and is symmetric.
    #[test]
    fn jtqk_bounds(seed in 0u64..100) {
        let a = random_graph(seed, 2);
        let b = random_graph(seed + 31, 3);
        let kernel = JensenTsallisKernel::new(2.0, 2);
        let ab = kernel.compute(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - kernel.compute(&b, &a)).abs() < 1e-9);
    }

    /// WL and SP kernels are invariant under vertex relabelling.
    #[test]
    fn r_convolution_kernels_are_permutation_invariant(seed in 0u64..150) {
        let g = random_graph(seed, 1);
        let n = g.num_vertices();
        let perm: Vec<usize> = (0..n).rev().collect();
        let h = g.permute(&perm).unwrap();
        let probe = random_graph(seed + 5, 2);
        for kernel in [
            &WeisfeilerLehmanKernel::new(2) as &dyn GraphKernel,
            &ShortestPathKernel::new(),
            &GraphletKernel::three_only(),
        ] {
            let before = kernel.compute(&g, &probe);
            let after = kernel.compute(&h, &probe);
            prop_assert!((before - after).abs() < 1e-8, "{}", kernel.name());
        }
    }
}
