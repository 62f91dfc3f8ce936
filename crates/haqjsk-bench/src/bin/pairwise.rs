//! Per-pair latency micro-benchmark for the quantum kernels.
//!
//! The QJSD core (Eq. 6–9) is evaluated O(N²) times per Gram matrix, so the
//! per-pair cost of the inner loop is the single biggest wall-clock lever in
//! the codebase. This binary measures it directly, before and after the
//! spectral-caching refactor, for the three baseline kernels and for the
//! paper's HAQJSK(A)/(D):
//!
//! * **before** — the pre-refactor *algorithm*: densities (for HAQJSK, the
//!   aligned per-level states) cached, but every pair recomputes both
//!   endpoint entropies from scratch and (for the aligned QJSK)
//!   eigendecomposes both padded densities for the Umeyama matching — up
//!   to five eigensolves per pair, three per level for HAQJSK. It executes on
//!   today's primitives, so its entropy solves already benefit from the
//!   values-only driver; the reported speedups are therefore a
//!   **conservative lower bound** on the improvement over the actual
//!   pre-refactor build.
//! * **after** — the shipped fast path: per-graph spectral artifacts
//!   (entropies, alignment bases, WL histograms; for HAQJSK the aligned
//!   states with their memoised entropies) hoisted out of the loop, and the
//!   tile-batched pipeline solving each tile's values-only mixture
//!   eigenproblems as one lane-parallel SoA batch (per level, for HAQJSK).
//!   The `batch` column reports the mean number of mixtures per batched
//!   solve during the warm run. A baseline Gram extracts its artifacts
//!   itself, so its warm and cold runs do the same work; only HAQJSK's
//!   warm run reads a resident aligned-feature cache.
//! * **fit rows** — `fit db_traces` and `fit prototypes` time the two
//!   layers of `HaqjskModel::fit` on 64 graphs per node size (small
//!   config), per training graph: `before` is the code they replaced
//!   (the all-pairs diameter BFS with per-layer neighbour counts, and the
//!   per-point `Vec` κ-means chain), `after` the library's, checked bit
//!   for bit against it first. A fit has no cache, so both `after`
//!   columns are one interleaved estimate.
//!
//! The pair loops run serially (`before` inline, `after` as Grams on
//! `BackendKind::Serial`), so the numbers are per-pair latencies, not
//! parallel throughput. The per-graph work in
//! front of them does not: `Engine::map` runs a baseline Gram's feature
//! extraction and HAQJSK's transforms on the engine's pool unless the
//! engine's own default backend is `serial`, so a cold column's extraction
//! share runs in parallel. `before` and warm `after` are timed in
//! interleaved rounds (a short block of each per round, ~0.4 s in all), so
//! both sides of their ratio see the same host load; the warm column is
//! the median `before` block scaled by the median per-round warm/before
//! ratio. That ratio is what the CI regression guard (`pairwise_check`)
//! diffs, and the median discards rounds that a burst of host noise hit.
//! The cold column is the minimum over ~0.2 s of repeats.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin pairwise [--smoke] [--json <path>] [--metrics]
//! ```
//!
//! `--smoke` shrinks the sweep to seconds (CI keeps the binary executable
//! with it); `--json` writes `BENCH_pairwise.json`-style machine-readable
//! results for the perf trajectory; `--metrics` dumps the process metrics
//! registry as Prometheus text after the run.

use haqjsk_bench::{dump_metrics_if_requested, engine_banner, json_output_path, write_json_report};
use haqjsk_core::db_representation::DbRepresentations;
use haqjsk_core::{AlignedGraph, HaqjskConfig, HaqjskModel, HaqjskVariant, PrototypeHierarchy};
use haqjsk_engine::{BackendKind, CacheStats, Engine, FeatureCache, Json};
use haqjsk_graph::generators::erdos_renyi;
use haqjsk_graph::Graph;
use haqjsk_kernels::jtqk::jensen_tsallis_difference;
use haqjsk_kernels::{GraphKernel, JensenTsallisKernel, QjskAligned, QjskUnaligned};
use haqjsk_quantum::{
    ctqw_density_infinite, entropy_of_spectrum, qjsd, qjsd_from_entropies, DensityMatrix,
};
use std::hint::black_box;
use std::time::Instant;

/// Training graphs per fit-layer row: a perfbench fit's training set.
const FIT_GRAPHS: usize = 64;

/// One benchmarked configuration.
struct Row {
    kernel: &'static str,
    node_size: usize,
    n_graphs: usize,
    pairs: usize,
    /// Pre-refactor pair loop (densities precomputed, everything else per
    /// pair).
    before_ms: f64,
    /// Fast-path Gram from cold caches — includes the hoisted per-graph
    /// artifact extraction.
    after_cold_ms: f64,
    /// Fast-path Gram with HAQJSK's aligned features already cached (a
    /// baseline extracts its own on every Gram) — `before_ms` times the
    /// median per-round warm/before ratio.
    after_warm_ms: f64,
    /// Aligned-cache hit rate of HAQJSK's cold Gram; 0 for a baseline,
    /// which has no cache.
    hit_rate: f64,
    /// Mean mixtures per batched eigensolve during the warm run (0 when
    /// the kernel never reached the batched path).
    eigen_batch: f64,
}

fn dataset(node_size: usize, n_graphs: usize) -> Vec<Graph> {
    (0..n_graphs)
        // Slight size jitter so the zero-padding paths are exercised.
        .map(|i| erdos_renyi(node_size + i % 3, 0.3, (node_size * 1000 + i) as u64))
        .collect()
}

/// Pre-refactor per-pair evaluations, replicated through public APIs, and
/// the fit layers as they ran before their rewrite.
mod legacy {
    use super::*;
    use haqjsk_graph::shortest_paths::{bfs_distances, diameter};
    use haqjsk_linalg::vector::{shannon_entropy, squared_distance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn unaligned(mu: f64, a: &DensityMatrix, b: &DensityMatrix) -> f64 {
        let n = a.dim().max(b.dim());
        let pa = a.zero_pad(n).unwrap();
        let pb = b.zero_pad(n).unwrap();
        (-mu * qjsd(&pa, &pb).unwrap()).exp()
    }

    pub fn aligned(mu: f64, a: &DensityMatrix, b: &DensityMatrix) -> f64 {
        let n = a.dim().max(b.dim());
        let pa = a.zero_pad(n).unwrap();
        let pb = b.zero_pad(n).unwrap();
        let perm = QjskAligned::umeyama_match(pa.matrix(), pb.matrix()).unwrap();
        let aligned_b = pb.permute(&perm).unwrap();
        (-mu * qjsd(&pa, &aligned_b).unwrap()).exp()
    }

    pub fn jtqk(
        kernel: &JensenTsallisKernel,
        ga: &Graph,
        gb: &Graph,
        a: &DensityMatrix,
        b: &DensityMatrix,
    ) -> f64 {
        let n = a.dim().max(b.dim());
        let pa = a.zero_pad(n).unwrap();
        let pb = b.zero_pad(n).unwrap();
        (-jensen_tsallis_difference(&pa, &pb, kernel.q).unwrap()).exp()
            * kernel.local_factor(ga, gb)
    }

    /// `Σ_h exp(-μ · D_QJS)` with all three entropies of every level —
    /// both endpoints and the mixture — solved from scratch.
    pub fn haqjsk(model: &HaqjskModel, a: &AlignedGraph, b: &AlignedGraph) -> f64 {
        let entropy = |rho: &DensityMatrix| entropy_of_spectrum(&rho.spectrum().unwrap());
        let variant = model.variant();
        let mut total = 0.0;
        for (rho, sigma) in a.densities(variant).iter().zip(b.densities(variant)) {
            let mixture = rho.mix(sigma).unwrap();
            let d = qjsd_from_entropies(entropy(&mixture), entropy(rho), entropy(sigma));
            total += (-model.config().mu * d).exp();
        }
        total
    }

    /// The DB traces as a fit computed them before the one-sweep rewrite:
    /// an all-pairs BFS per graph for its diameter, then, at the clamped
    /// greatest diameter `K`, per root and layer a pass over every vertex
    /// counting its neighbours inside the ball.
    pub fn db_traces(graphs: &[Graph], layer_cap: usize) -> Vec<Vec<Vec<f64>>> {
        let engine = Engine::global();
        let greatest = engine.map(graphs.len(), |g| diameter(&graphs[g]));
        let max_k = greatest
            .into_iter()
            .max()
            .unwrap_or(0)
            .clamp(1, layer_cap.max(1));
        engine.map(graphs.len(), |g| {
            let graph = &graphs[g];
            let n = graph.num_vertices();
            let mut degrees = Vec::with_capacity(n);
            (0..n)
                .map(|root| {
                    let dist = bfs_distances(graph, root);
                    (1..=max_k)
                        .map(|k| {
                            degrees.clear();
                            degrees.extend((0..n).filter(|&u| dist[u] <= k).map(|u| {
                                graph.neighbors(u).filter(|&v| dist[v] <= k).count() as f64
                            }));
                            shannon_entropy(&degrees)
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// The prototype hierarchy as a fit built it before the flat rewrite:
    /// per layer on the engine's pool, a κ-means chain over one `Vec` per
    /// point, ending each run with an assignment and inertia pass.
    pub fn prototypes(traces: &[Vec<Vec<f64>>], config: &HaqjskConfig) -> Vec<Vec<Vec<Vec<f64>>>> {
        let max_k = traces.iter().flatten().map(Vec::len).max().unwrap_or(0);
        Engine::global().map(max_k, |layer| {
            let k = layer + 1;
            let mut levels = Vec::new();
            let mut current: Vec<Vec<f64>> = traces
                .iter()
                .flatten()
                .map(|trace| trace[..k].to_vec())
                .collect();
            for h in 1..=config.hierarchy_levels {
                let seed = config
                    .seed
                    .wrapping_add(h as u64)
                    .wrapping_mul(1_000_003)
                    .wrapping_add(k as u64);
                current = kmeans(
                    &current,
                    config.prototypes_at_level(h),
                    config.kmeans_max_iterations,
                    seed,
                );
                levels.push(current.clone());
                if current.is_empty() {
                    break;
                }
            }
            levels
        })
    }

    /// Lloyd's algorithm from k-means++ seeding over one `Vec` per point.
    fn kmeans(points: &[Vec<f64>], k: usize, max_iterations: usize, seed: u64) -> Vec<Vec<f64>> {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        let k = k.max(1).min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..n)].clone());
        let mut d2 = vec![0.0_f64; n];
        while centroids.len() < k {
            let mut total = 0.0;
            for (i, p) in points.iter().enumerate() {
                d2[i] = squared_distance(p, centroids.last().expect("non-empty")).min(
                    if centroids.len() == 1 {
                        f64::INFINITY
                    } else {
                        d2[i]
                    },
                );
                total += d2[i];
            }
            if total <= 0.0 {
                centroids.push(points[rng.gen_range(0..n)].clone());
                continue;
            }
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target <= w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            centroids.push(points[chosen].clone());
        }
        let mut assignments = vec![0usize; n];
        for _ in 0..max_iterations {
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            if update(points, &assignments, &mut centroids) <= 1e-9 {
                break;
            }
        }
        let mut inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (c, d2) = nearest(p, &centroids);
            assignments[i] = c;
            inertia += d2;
        }
        std::hint::black_box((&assignments, inertia));
        centroids
    }

    fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (c, centroid) in centroids.iter().enumerate() {
            let d2 = squared_distance(point, centroid);
            if d2 < best.1 {
                best = (c, d2);
            }
        }
        best
    }

    /// The update step with the O(n + k) re-seed of empty clusters.
    fn update(points: &[Vec<f64>], assignments: &[usize], centroids: &mut [Vec<f64>]) -> f64 {
        let k = centroids.len();
        let dim = points[0].len();
        let mut sums = vec![vec![0.0_f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &c) in points.iter().zip(assignments) {
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(p.iter()) {
                *s += x;
            }
        }
        let means: Vec<Option<Vec<f64>>> = sums
            .iter()
            .zip(&counts)
            .map(|(sum, &count)| {
                (count > 0).then(|| sum.iter().map(|&s| s / count as f64).collect())
            })
            .collect();
        let mut reseeds = if counts.contains(&0) {
            reseed_points(points, assignments, centroids, &means)
        } else {
            Vec::new()
        }
        .into_iter();
        let mut movement = 0.0_f64;
        for (centroid, mean) in centroids.iter_mut().zip(means) {
            let next = mean.unwrap_or_else(|| {
                points[reseeds.next().expect("one re-seed per empty cluster")].clone()
            });
            movement += squared_distance(centroid, &next);
            *centroid = next;
        }
        movement
    }

    type Far = Option<(f64, usize)>;

    fn farther(a: Far, b: Far) -> Far {
        match (a, b) {
            (Some(x), Some(y)) => {
                let order = x.0.partial_cmp(&y.0).expect("finite distances");
                Some(if order.then(x.1.cmp(&y.1)).is_gt() {
                    x
                } else {
                    y
                })
            }
            (x, None) => x,
            (None, y) => y,
        }
    }

    fn reseed_points(
        points: &[Vec<f64>],
        assignments: &[usize],
        centroids: &[Vec<f64>],
        means: &[Option<Vec<f64>>],
    ) -> Vec<usize> {
        let k = centroids.len();
        let mut by_old: Vec<Far> = vec![None; k];
        let mut by_new: Vec<Far> = vec![None; k];
        for (i, (p, &c)) in points.iter().zip(assignments).enumerate() {
            let mean = means[c].as_deref().expect("an assigned cluster has a mean");
            by_old[c] = farther(by_old[c], Some((squared_distance(p, &centroids[c]), i)));
            by_new[c] = farther(by_new[c], Some((squared_distance(p, mean), i)));
        }
        let mut after: Vec<Far> = vec![None; k + 1];
        for c in (0..k).rev() {
            after[c] = farther(after[c + 1], by_old[c]);
        }
        let mut before: Far = None;
        let mut reseeds = Vec::new();
        for c in 0..k {
            if means[c].is_none() {
                let (_, far) = farther(before, after[c]).expect("non-empty point set");
                reseeds.push(far);
            }
            before = farther(before, by_new[c]);
        }
        reseeds
    }
}

/// The fast path under test, with the per-graph cache it runs from.
enum FastPath<'a> {
    /// A baseline kernel, which extracts its per-graph artifacts per Gram.
    Baseline(&'a dyn GraphKernel),
    /// A fitted HAQJSK model over its aligned-feature cache.
    Haqjsk(&'a HaqjskModel, FeatureCache<AlignedGraph>),
}

impl FastPath<'_> {
    fn clear(&self) {
        if let FastPath::Haqjsk(_, cache) = self {
            cache.clear();
        }
    }

    fn cache_stats(&self) -> CacheStats {
        match self {
            FastPath::Baseline(_) => CacheStats::default(),
            FastPath::Haqjsk(_, cache) => cache.stats(),
        }
    }

    /// One serial Gram through the cache.
    fn gram(&self, graphs: &[Graph]) {
        let serial = Some(BackendKind::Serial);
        match self {
            FastPath::Baseline(kernel) => {
                kernel
                    .try_gram_matrix_on(graphs, serial)
                    .expect("a benchmark Gram evaluates");
            }
            FastPath::Haqjsk(model, cache) => {
                let aligned = model
                    .transform_all_cached(graphs, cache)
                    .expect("a benchmark graph transforms");
                model
                    .gram_over_transforms(graphs, &aligned, serial)
                    .expect("a benchmark Gram evaluates");
            }
        }
    }
}

/// Times a serial loop over all unordered pairs; returns total seconds.
fn time_pairs(n: usize, mut f: impl FnMut(usize, usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        for j in i..n {
            f(i, j);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Minimum over enough repeats of `measure` to accumulate `budget_s` of
/// wall-clock (at least one repeat), so even sub-millisecond smoke rows
/// get a stable figure. The repeat cap only backstops a pathologically
/// fast clock.
fn min_over(budget_s: f64, mut measure: impl FnMut() -> f64) -> f64 {
    const MAX_REPEATS: usize = 20_000;
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut repeats = 0;
    while (repeats == 0 || spent < budget_s) && repeats < MAX_REPEATS {
        let sample = measure();
        best = best.min(sample);
        spent += sample;
        repeats += 1;
    }
    best
}

/// Median of a non-empty sample.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the anchor (`before`) and the subject (`warm`) in interleaved
/// rounds — per round, the minimum over a short block of each — and
/// returns `(before_s, warm_s)`: the median anchor block minimum and that
/// median scaled by the median per-round `warm / before` ratio. A slow
/// spell of the host lands on both blocks of a round, so it cancels in
/// that round's ratio; the median drops the rounds it hit unevenly.
fn interleaved_rounds(
    mut before: impl FnMut() -> f64,
    mut warm: impl FnMut() -> f64,
) -> (f64, f64) {
    const ROUNDS: usize = 9;
    // ~0.4 s in all, split evenly over both sides of every round.
    const BLOCK_S: f64 = 0.4 / (2 * ROUNDS) as f64;
    let mut befores = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let before_s = min_over(BLOCK_S, &mut before);
        let warm_s = min_over(BLOCK_S, &mut warm);
        befores.push(before_s);
        ratios.push(warm_s / before_s.max(1e-12));
    }
    let before_s = median(&mut befores);
    (before_s, before_s * median(&mut ratios))
}

fn bench_kernel(
    name: &'static str,
    node_size: usize,
    graphs: &[Graph],
    mut legacy_pair: impl FnMut(usize, usize),
    fast: &FastPath<'_>,
) -> Row {
    let n = graphs.len();
    let pairs = n * (n + 1) / 2;

    // After, cold: caches dropped, so the run pays the hoisted per-graph
    // artifact extraction too — the end-to-end cost of one Gram matrix.
    fast.clear();
    let stats_before = fast.cache_stats();
    let start = Instant::now();
    fast.gram(graphs);
    let first_cold_s = start.elapsed().as_secs_f64();
    let stats_after = fast.cache_stats();
    let hits = stats_after.hits - stats_before.hits;
    let misses = stats_after.misses - stats_before.misses;
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let after_cold_s = first_cold_s.min(min_over(0.2, || {
        fast.clear();
        let start = Instant::now();
        fast.gram(graphs);
        start.elapsed().as_secs_f64()
    }));

    // After, warm: HAQJSK's aligned features resident, so its column is
    // the steady-state per-pair latency — the counterpart of the `before`
    // column, which also had its per-graph state precomputed (densities;
    // everything else recomputed inside the pair loop). A baseline Gram
    // extracts its artifacts every time, so its warm run repeats its cold
    // one.
    let warm_gram = || {
        let start = Instant::now();
        fast.gram(graphs);
        start.elapsed().as_secs_f64()
    };
    let batch_before = haqjsk_linalg::batch_solve_stats();
    warm_gram();
    let batch_after = haqjsk_linalg::batch_solve_stats();
    let (before_s, after_warm_s) =
        interleaved_rounds(|| time_pairs(n, &mut legacy_pair), warm_gram);
    let batched_calls = batch_after.batched_calls - batch_before.batched_calls;
    let batched_matrices = batch_after.batched_matrices - batch_before.batched_matrices;
    let eigen_batch = if batched_calls == 0 {
        0.0
    } else {
        batched_matrices as f64 / batched_calls as f64
    };

    Row {
        kernel: name,
        node_size,
        n_graphs: n,
        pairs,
        before_ms: before_s * 1000.0 / pairs as f64,
        after_cold_ms: after_cold_s * 1000.0 / pairs as f64,
        after_warm_ms: after_warm_s * 1000.0 / pairs as f64,
        hit_rate,
        eigen_batch,
    }
}

/// Times one fit layer, the code it replaced (`legacy`) against the
/// library's (`library`), in interleaved rounds. A fit has no cache, so
/// both `after` columns are that one estimate, and a row's "pair" is one
/// training graph.
fn bench_fit_layer(
    name: &'static str,
    node_size: usize,
    n_graphs: usize,
    mut legacy: impl FnMut(),
    mut library: impl FnMut(),
) -> Row {
    let timed = |run: &mut dyn FnMut()| {
        let start = Instant::now();
        run();
        start.elapsed().as_secs_f64()
    };
    let (before_s, after_s) = interleaved_rounds(|| timed(&mut legacy), || timed(&mut library));
    let per_graph_ms = |seconds: f64| seconds * 1000.0 / n_graphs as f64;
    Row {
        kernel: name,
        node_size,
        n_graphs,
        pairs: n_graphs,
        before_ms: per_graph_ms(before_s),
        after_cold_ms: per_graph_ms(after_s),
        after_warm_ms: per_graph_ms(after_s),
        hit_rate: 0.0,
        eigen_batch: 0.0,
    }
}

/// The two fit-layer rows of one node size: DB traces with the dataset's
/// `K`, and the prototype hierarchy over them, each checked bit for bit
/// against its legacy code before it is timed.
fn bench_fit_layers(node_size: usize) -> [Row; 2] {
    let graphs = dataset(node_size, FIT_GRAPHS);
    let config = HaqjskConfig::small();
    let traces = legacy::db_traces(&graphs, config.layer_cap);
    let reps = DbRepresentations::compute_auto(&graphs, config.layer_cap);
    let hierarchy = PrototypeHierarchy::build(&reps, &config);
    let bits = |levels: &[Vec<Vec<f64>>]| -> Vec<u64> {
        levels
            .iter()
            .flatten()
            .flatten()
            .map(|x| x.to_bits())
            .collect()
    };
    for (g, graph_traces) in traces.iter().enumerate() {
        for (v, trace) in graph_traces.iter().enumerate() {
            assert_eq!(trace.as_slice(), reps.representation(g, v, trace.len()));
        }
    }
    for (layer, levels) in legacy::prototypes(&traces, &config).iter().enumerate() {
        assert_eq!(bits(levels), bits(&hierarchy.layer(layer + 1).levels));
    }
    [
        bench_fit_layer(
            "fit db_traces",
            node_size,
            graphs.len(),
            || {
                black_box(legacy::db_traces(&graphs, config.layer_cap));
            },
            || {
                black_box(DbRepresentations::compute_auto(&graphs, config.layer_cap));
            },
        ),
        bench_fit_layer(
            "fit prototypes",
            node_size,
            graphs.len(),
            || {
                black_box(legacy::prototypes(&traces, &config));
            },
            || {
                black_box(PrototypeHierarchy::build(&reps, &config));
            },
        ),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_output_path();
    // The smoke sweep keeps the full sweep's graph count so its node-8 row
    // is directly comparable (same pair count, same tile/batch utilisation)
    // to the committed baseline the `pairwise_check` CI guard diffs against.
    let (node_sizes, n_graphs): (&[usize], usize) = if smoke {
        (&[6, 8], 12)
    } else {
        (&[8, 16, 32], 12)
    };

    println!("{}\n", engine_banner());
    println!(
        "Per-pair latency — before (pre-refactor per-pair eigensolves) vs after (per-graph spectral caching)\n"
    );
    println!(
        "{:<18} {:>6} {:>8} {:>7} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "kernel",
        "nodes",
        "graphs",
        "pairs",
        "before ms",
        "cold ms",
        "warm ms",
        "speedup",
        "hit rate",
        "batch"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &node_size in node_sizes {
        let first = rows.len();
        let graphs = dataset(node_size, n_graphs);
        let rhos: Vec<DensityMatrix> = graphs
            .iter()
            .map(|g| ctqw_density_infinite(g).expect("non-empty graph"))
            .collect();

        let unaligned = QjskUnaligned::default();
        rows.push(bench_kernel(
            "QJSK (unaligned)",
            node_size,
            &graphs,
            |i, j| {
                let _ = legacy::unaligned(unaligned.mu, &rhos[i], &rhos[j]);
            },
            &FastPath::Baseline(&unaligned),
        ));

        let aligned = QjskAligned::default();
        rows.push(bench_kernel(
            "QJSK (aligned)",
            node_size,
            &graphs,
            |i, j| {
                let _ = legacy::aligned(aligned.mu, &rhos[i], &rhos[j]);
            },
            &FastPath::Baseline(&aligned),
        ));

        let jtqk = JensenTsallisKernel::default();
        rows.push(bench_kernel(
            "JTQK",
            node_size,
            &graphs,
            |i, j| {
                let _ = legacy::jtqk(&jtqk, &graphs[i], &graphs[j], &rhos[i], &rhos[j]);
            },
            &FastPath::Baseline(&jtqk),
        ));

        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant)
                .expect("the benchmark dataset fits");
            let features = model
                .transform_all(&graphs)
                .expect("a benchmark graph transforms");
            rows.push(bench_kernel(
                variant.label(),
                node_size,
                &graphs,
                |i, j| {
                    let _ = legacy::haqjsk(&model, &features[i], &features[j]);
                },
                &FastPath::Haqjsk(&model, FeatureCache::new()),
            ));
        }

        rows.extend(bench_fit_layers(node_size));

        for row in &rows[first..] {
            println!(
                "{:<18} {:>6} {:>8} {:>7} {:>11.4} {:>9.4} {:>9.4} {:>8.2}x {:>8.1}% {:>7.2}",
                row.kernel,
                row.node_size,
                row.n_graphs,
                row.pairs,
                row.before_ms,
                row.after_cold_ms,
                row.after_warm_ms,
                row.before_ms / row.after_warm_ms.max(1e-12),
                row.hit_rate * 100.0,
                row.eigen_batch
            );
        }
    }

    if let Some(path) = json_path {
        let results: Vec<Json> = rows
            .iter()
            .map(|row| {
                Json::obj([
                    ("kernel", Json::Str(row.kernel.to_string())),
                    ("node_size", Json::Num(row.node_size as f64)),
                    ("n_graphs", Json::Num(row.n_graphs as f64)),
                    ("pairs", Json::Num(row.pairs as f64)),
                    ("before_ms_per_pair", Json::Num(row.before_ms)),
                    ("after_cold_ms_per_pair", Json::Num(row.after_cold_ms)),
                    ("after_warm_ms_per_pair", Json::Num(row.after_warm_ms)),
                    (
                        "speedup",
                        Json::Num(row.before_ms / row.after_warm_ms.max(1e-12)),
                    ),
                    ("cache_hit_rate", Json::Num(row.hit_rate)),
                    ("eigen_batch_mean", Json::Num(row.eigen_batch)),
                ])
            })
            .collect();
        let report = Json::obj([
            ("bench", Json::Str("pairwise".to_string())),
            ("smoke", Json::Bool(smoke)),
            // Which eigensolver SIMD path produced these timings; recorded
            // runs from different machines (or forced `HAQJSK_SIMD` legs)
            // must be comparable.
            (
                "simd_path",
                Json::Str(haqjsk_linalg::active_simd_label().to_string()),
            ),
            ("results", Json::Arr(results)),
        ]);
        write_json_report(&path, &report);
    }

    println!(
        "\nThe aligned QJSK drops from five per-pair eigensolves (two full Umeyama decompositions, \
         three entropy decompositions) to one values-only mixture solve; unaligned QJSK and JTQK \
         drop from three to one. The warm path additionally batches each scheduling tile's mixture \
         solves through the lane-parallel SoA eigensolver ('batch' column = mean mixtures per \
         batched solve) and evaluates JTQK's WL factor as a sparse dot of per-graph histograms. HAQJSK drops from \
         three eigensolves per pair and level to one batched mixture solve: its aligned states \
         memoise their entropies."
    );

    dump_metrics_if_requested();
}
