//! Acceptance tests for the tile-batched Gram paths.
//!
//! 1. The tile-batched QJSK/JTQK Gram matrices (whole tiles of mixtures
//!    through one batched values-only eigensolve) must be **byte-identical**
//!    to the per-pair fallback on every execution backend — the batched
//!    eigensolver's bit-identity must survive the full kernel stack.
//! 2. JTQK's cached-WL local factor (content-hashed per-graph histograms,
//!    merge-join cross dot) must reproduce the original per-pair
//!    dictionary-based WL refinement within 1e-12 on the 32-graph
//!    acceptance dataset.

use haqjsk_engine::{per_pair, BackendKind};
use haqjsk_graph::generators::{barabasi_albert, cycle_graph, erdos_renyi, star_graph};
use haqjsk_graph::Graph;
use haqjsk_kernels::kernel::gram_from_tiles;
use haqjsk_kernels::{GraphKernel, JensenTsallisKernel, QjskAligned, QjskUnaligned};
use std::collections::HashMap;

/// The 32-graph synthetic acceptance dataset (mixed generator families,
/// mixed sizes so zero-padding and dimension-class chunking are exercised).
fn acceptance_dataset() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..8 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(5 + i));
        graphs.push(erdos_renyi(6 + i, 0.35, i as u64));
        graphs.push(barabasi_albert(7 + i, 2, 100 + i as u64));
    }
    assert_eq!(graphs.len(), 32);
    graphs
}

fn assert_bytes_equal(name: &str, backend: BackendKind, tile: &[f64], pairwise: &[f64]) {
    assert_eq!(tile.len(), pairwise.len());
    for (k, (a, b)) in tile.iter().zip(pairwise).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} on {backend}: entry {k} drifted ({a} vs {b})"
        );
    }
}

#[test]
fn tile_batched_gram_is_byte_identical_to_per_pair_on_all_backends() {
    let graphs = acceptance_dataset();
    let before = haqjsk_linalg::batch_solve_stats();
    let kernels: Vec<(&str, &dyn GraphKernel)> = vec![
        ("QJSK (unaligned)", &QjskUnaligned { mu: 1.0 }),
        ("QJSK (aligned)", &QjskAligned { mu: 1.0 }),
        (
            "JTQK",
            &JensenTsallisKernel {
                q: 2.0,
                wl_iterations: 3,
            },
        ),
    ];
    for (name, kernel) in kernels {
        // Per-pair reference: one pair at a time through the same cached
        // per-graph artifacts, scheduled by the same backend.
        for backend in BackendKind::ALL {
            let tile = kernel.gram_matrix_on(&graphs, Some(backend));
            let per_pair = per_pair(|i, j| kernel.compute(&graphs[i], &graphs[j]));
            let pairwise = gram_from_tiles(graphs.len(), Some(backend), per_pair, None);
            assert_bytes_equal(
                name,
                backend,
                tile.matrix().data(),
                pairwise.matrix().data(),
            );
        }
    }
    let after = haqjsk_linalg::batch_solve_stats();
    assert!(
        after.batched_matrices > before.batched_matrices,
        "the tile paths must actually route mixtures through the batched eigensolver"
    );
}

/// Forcing each compiled eigensolver SIMD path must leave every tile-batched
/// Gram matrix byte-identical: the explicit-SIMD lanes are a pure execution
/// strategy, invisible in the numbers all the way up the kernel stack. The
/// scalar-forced Gram is the reference; each other available ISA is forced
/// via the process-global override and compared entry by entry.
#[test]
fn forced_simd_paths_leave_grams_byte_identical() {
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            haqjsk_linalg::set_simd_path(None).expect("clearing the override never fails");
        }
    }

    let graphs = acceptance_dataset();
    let kernels: Vec<(&str, &dyn GraphKernel)> = vec![
        ("QJSK (unaligned)", &QjskUnaligned { mu: 1.0 }),
        ("QJSK (aligned)", &QjskAligned { mu: 1.0 }),
        (
            "JTQK",
            &JensenTsallisKernel {
                q: 2.0,
                wl_iterations: 3,
            },
        ),
    ];
    let _guard = ClearOverride;
    for (name, kernel) in kernels {
        haqjsk_linalg::set_simd_path(Some(haqjsk_linalg::SimdPath::Scalar)).unwrap();
        let reference = kernel.gram_matrix(&graphs);
        for path in haqjsk_linalg::available_simd_paths() {
            if path == haqjsk_linalg::SimdPath::Scalar {
                continue;
            }
            haqjsk_linalg::set_simd_path(Some(path)).unwrap();
            let forced = kernel.gram_matrix(&graphs);
            for (k, (a, b)) in forced
                .matrix()
                .data()
                .iter()
                .zip(reference.matrix().data())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} with forced '{}' lanes: Gram entry {k} drifted ({a} vs {b})",
                    path.label()
                );
            }
        }
    }
}

/// The original dictionary-based WL refinement (pre-content-hashing), as the
/// JTQK local factor ran it per pair: a joint two-graph refinement with a
/// shared compressed-label dictionary, reproduced here as the regression
/// reference for the cached-histogram local factor.
fn legacy_wl_feature_maps(iterations: usize, graphs: &[Graph]) -> Vec<HashMap<u64, f64>> {
    let mut features: Vec<HashMap<u64, f64>> = vec![HashMap::new(); graphs.len()];
    let mut labels: Vec<Vec<u64>> = graphs
        .iter()
        .map(|g| g.effective_labels().iter().map(|&l| l as u64).collect())
        .collect();
    let mut dictionary: HashMap<String, u64> = HashMap::new();
    let mut next_label: u64 = 1_000_000;

    for (gi, graph_labels) in labels.iter().enumerate() {
        for &label in graph_labels {
            *features[gi].entry(label).or_insert(0.0) += 1.0;
        }
    }
    for round in 0..iterations {
        let round_offset = (round as u64 + 1) << 32;
        let mut new_labels: Vec<Vec<u64>> = Vec::with_capacity(graphs.len());
        for (gi, graph) in graphs.iter().enumerate() {
            let mut updated = Vec::with_capacity(graph.num_vertices());
            for v in 0..graph.num_vertices() {
                let mut neigh: Vec<u64> = graph.neighbors(v).map(|u| labels[gi][u]).collect();
                neigh.sort_unstable();
                let signature = format!("{}|{:?}", labels[gi][v], neigh);
                let compressed = *dictionary.entry(signature).or_insert_with(|| {
                    next_label += 1;
                    next_label
                });
                updated.push(compressed);
            }
            new_labels.push(updated);
        }
        labels = new_labels;
        for (gi, graph_labels) in labels.iter().enumerate() {
            for &label in graph_labels {
                *features[gi].entry(round_offset ^ label).or_insert(0.0) += 1.0;
            }
        }
    }
    features
}

fn legacy_dot(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .filter_map(|(k, va)| large.get(k).map(|vb| va * vb))
        .sum()
}

fn legacy_local_factor(iterations: usize, a: &Graph, b: &Graph) -> f64 {
    let maps = legacy_wl_feature_maps(iterations, &[a.clone(), b.clone()]);
    let ab = legacy_dot(&maps[0], &maps[1]);
    let aa = legacy_dot(&maps[0], &maps[0]);
    let bb = legacy_dot(&maps[1], &maps[1]);
    if aa <= 0.0 || bb <= 0.0 {
        0.0
    } else {
        ab / (aa * bb).sqrt()
    }
}

#[test]
fn jtqk_cached_wl_local_factor_matches_direct_refinement() {
    let graphs = acceptance_dataset();
    let kernel = JensenTsallisKernel::default();
    let gram = kernel.gram_matrix(&graphs);
    let mut worst = 0.0_f64;
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            let reference = kernel.quantum_factor(&graphs[i], &graphs[j]).unwrap()
                * legacy_local_factor(kernel.wl_iterations, &graphs[i], &graphs[j]);
            let diff = (gram.get(i, j) - reference).abs();
            worst = worst.max(diff);
            assert!(
                diff < 1e-12,
                "pair ({i},{j}): cached-WL local factor drifted by {diff} from the \
                 direct per-pair refinement"
            );
        }
    }
    println!("JTQK cached-WL local factor: max drift {worst:.3e}");
}

#[test]
fn jtqk_local_factor_stays_in_unit_interval_and_normalises_self() {
    let kernel = JensenTsallisKernel::default();
    let graphs = acceptance_dataset();
    for g in graphs.iter().take(6) {
        let self_factor = kernel.local_factor(g, g);
        assert!(
            (self_factor - 1.0).abs() < 1e-12,
            "self similarity normalises to 1"
        );
    }
    let cross = kernel.local_factor(&graphs[0], &graphs[5]);
    assert!((0.0..=1.0 + 1e-12).contains(&cross));
}
