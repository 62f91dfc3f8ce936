//! Integration tests for the engine's acceptance criteria:
//!
//! * the tiled parallel Gram matrix is byte-identical to the serial path on
//!   a ≥30-graph synthetic dataset,
//! * each graph's CTQW density matrix is computed **exactly once** for the
//!   whole Gram computation (instrumented through the feature cache).

use haqjsk_engine::{gram, graph_key, per_pair, Engine, FeatureCache, WorkerPool};
use haqjsk_graph::generators::{barabasi_albert, cycle_graph, erdos_renyi, star_graph};
use haqjsk_graph::Graph;
use haqjsk_quantum::{ctqw_density_infinite, qjsd_padded, DensityMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A 32-graph synthetic dataset mixing the generator families.
fn synthetic_dataset() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..8 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(5 + i));
        graphs.push(erdos_renyi(6 + i, 0.35, i as u64));
        graphs.push(barabasi_albert(7 + i, 2, 100 + i as u64));
    }
    assert!(graphs.len() >= 30);
    graphs
}

/// The QJSK-style pair kernel used by the tests: `exp(-D_QJS)` of the
/// cached CTQW densities.
fn pair_kernel(densities: &[Arc<DensityMatrix>], i: usize, j: usize) -> f64 {
    let d = qjsd_padded(&densities[i], &densities[j]).expect("valid densities");
    (-d).exp()
}

#[test]
fn tiled_parallel_gram_is_byte_identical_to_serial_with_exactly_once_features() {
    let graphs = synthetic_dataset();
    let n = graphs.len();
    let engine = Engine::builder().threads(4).build();

    // Extract every graph's density matrix through the instrumented cache,
    // in parallel, counting how often the expensive compute actually runs.
    let cache: FeatureCache<DensityMatrix> = FeatureCache::new();
    let compute_calls = AtomicUsize::new(0);
    let densities: Vec<Arc<DensityMatrix>> = engine.map(n, |i| {
        cache.get_or_compute(graph_key(&graphs[i]), || {
            compute_calls.fetch_add(1, Ordering::SeqCst);
            ctqw_density_infinite(&graphs[i]).expect("non-empty graph")
        })
    });

    // Exactly once per graph: the dataset has no duplicate structures, so
    // every distinct graph triggered one compute and the cache holds them.
    assert_eq!(compute_calls.load(Ordering::SeqCst), n);
    let stats = cache.stats();
    assert_eq!(stats.misses, n);
    assert_eq!(stats.entries, n);

    // The n(n+1)/2 pair evaluations only read cached state; the parallel
    // tiled schedule must reproduce the serial result bit for bit.
    // Tile width 5 is deliberately off-by-one against n.
    let eval = per_pair(|i, j| pair_kernel(&densities, i, j));
    let parallel = gram::run_tiles(Some(engine.pool()), n, 5, &eval);
    let serial = gram::gram_serial(n, |i, j| pair_kernel(&densities, i, j));
    assert_eq!(parallel, serial, "tiled schedule must not change any bit");

    // And no pair evaluation recomputed a density: the counters only moved
    // through cache hits.
    let after = cache.stats();
    assert_eq!(after.misses, n, "pair loop must never recompute a density");

    // Re-requesting every graph is now pure cache hits.
    for g in &graphs {
        let hit = cache.get_or_compute(graph_key(g), || unreachable!("must be cached"));
        assert!(hit.dim() > 0);
    }
    assert_eq!(cache.stats().hits, after.hits + n);
}

#[test]
fn gram_agreement_holds_across_tile_sizes_and_thread_counts() {
    let graphs = synthetic_dataset();
    let n = graphs.len();
    let densities: Vec<Arc<DensityMatrix>> = graphs
        .iter()
        .map(|g| Arc::new(ctqw_density_infinite(g).expect("non-empty graph")))
        .collect();
    let reference = gram::gram_serial(n, |i, j| pair_kernel(&densities, i, j));
    let eval = per_pair(|i, j| pair_kernel(&densities, i, j));
    for (threads, tile) in [(1, 7), (2, 16), (8, 1), (3, 64)] {
        let pool = WorkerPool::new(threads);
        assert_eq!(
            gram::run_tiles(Some(&pool), n, tile, &eval),
            reference,
            "threads={threads} tile={tile} must match the serial path"
        );
    }
}
