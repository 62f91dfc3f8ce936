//! Empirical check of the complexity analysis of Sec. III-D: the per-graph
//! cost of the HAQJSK pipeline is dominated by the `O(n^3)` CTQW
//! eigendecomposition, and the Gram-matrix cost grows as `O(N^2)` in the
//! number of graphs.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin scaling [--json <path>] [--metrics]
//! ```
//!
//! `--json` writes the measured sections as a machine-readable report so
//! the perf trajectory can be tracked across PRs; `--metrics` dumps the
//! process metrics registry as Prometheus text after the run. The
//! distributed section doubles as an integration check of the dist
//! observability: it asserts the per-worker RPC round-trip histograms were
//! populated by the two-worker run.

use haqjsk_bench::{dump_metrics_if_requested, engine_banner, json_output_path, write_json_report};
use haqjsk_core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk_engine::{graph_key, per_pair, BackendKind, CacheConfig, Engine, FeatureCache, Json};
use haqjsk_graph::generators::erdos_renyi;
use haqjsk_graph::Graph;
use haqjsk_kernels::{GraphKernel, QjskUnaligned};
use haqjsk_quantum::{ctqw_density_infinite, DensityMatrix};
use std::time::Instant;

fn main() {
    let json_path = json_output_path();
    let mut ctqw_rows: Vec<Json> = Vec::new();
    let mut gram_rows: Vec<Json> = Vec::new();
    let mut engine_rows: Vec<Json> = Vec::new();
    let mut sweep_rows: Vec<Json> = Vec::new();
    println!("{}\n", engine_banner());
    println!("Scaling — CTQW density matrix cost vs graph size n\n");
    println!("{:>6} {:>14}", "n", "milliseconds");
    for n in [16usize, 32, 64, 128, 256] {
        let g = erdos_renyi(n, 0.2, 1);
        let start = Instant::now();
        let reps = if n <= 64 { 20 } else { 5 };
        for _ in 0..reps {
            let _ = ctqw_density_infinite(&g).unwrap();
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        println!("{:>6} {:>14.2}", n, ms);
        ctqw_rows.push(Json::obj([
            ("n", Json::Num(n as f64)),
            ("wall_ms", Json::Num(ms)),
        ]));
    }

    println!("\nScaling — HAQJSK(A) Gram-matrix cost vs number of graphs N\n");
    println!("{:>6} {:>14}", "N", "seconds");
    let config = HaqjskConfig {
        hierarchy_levels: 3,
        num_prototypes: 16,
        layer_cap: 3,
        ..HaqjskConfig::small()
    };
    for n_graphs in [8usize, 16, 32, 64] {
        let graphs: Vec<Graph> = (0..n_graphs)
            .map(|i| erdos_renyi(20 + i % 10, 0.25, i as u64))
            .collect();
        let start = Instant::now();
        let model = HaqjskModel::fit(&graphs, config.clone(), HaqjskVariant::AlignedAdjacency)
            .expect("fit succeeds");
        let _ = model.gram_matrix(&graphs).expect("gram succeeds");
        let seconds = start.elapsed().as_secs_f64();
        println!("{:>6} {:>14.2}", n_graphs, seconds);
        gram_rows.push(Json::obj([
            ("n_graphs", Json::Num(n_graphs as f64)),
            ("wall_ms", Json::Num(seconds * 1000.0)),
        ]));
    }

    println!("\nEngine — tiled parallel Gram vs serial\n");
    println!("{:>6} {:>12} {:>12}", "N", "serial s", "tiled s");
    for n_graphs in [16usize, 32, 64] {
        let graphs: Vec<Graph> = (0..n_graphs)
            .map(|i| erdos_renyi(24 + i % 8, 0.25, i as u64))
            .collect();
        let kernel = QjskUnaligned::default();

        // Serial reference: per-graph densities once, pairs on one thread.
        let start = Instant::now();
        let densities = Engine::global().map(n_graphs, |i| {
            ctqw_density_infinite(&graphs[i]).expect("non-empty graph")
        });
        let _ = Engine::gram_serial(n_graphs, |i, j| {
            let d = haqjsk_quantum::qjsd_padded(&densities[i], &densities[j]).unwrap();
            (-d).exp()
        });
        let serial = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let _ = kernel.gram_matrix(&graphs);
        let tiled = start.elapsed().as_secs_f64();
        println!("{:>6} {:>12.3} {:>12.3}", n_graphs, serial, tiled);
        engine_rows.push(Json::obj([
            ("n_graphs", Json::Num(n_graphs as f64)),
            ("serial_ms", Json::Num(serial * 1000.0)),
            ("tiled_ms", Json::Num(tiled * 1000.0)),
        ]));
    }
    println!("\nBackend sweep — QJSK Gram on 32 graphs, per-backend budgeted cache\n");
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>10}",
        "backend", "cold s", "warm s", "hit rate", "evictions"
    );
    let sweep_graphs: Vec<Graph> = (0..32)
        .map(|i| erdos_renyi(20 + i % 8, 0.25, 1000 + i as u64))
        .collect();
    let n = sweep_graphs.len();
    // A budget sized to roughly half the working set, so the sweep also
    // exercises LRU eviction.
    let one_density = (28usize * 28 * 8) + 64;
    let budget = one_density * n / 2;
    for backend in BackendKind::ALL {
        let cache: FeatureCache<DensityMatrix> =
            FeatureCache::with_config(CacheConfig::with_budget(budget));
        let density = |i: usize| {
            cache.get_or_compute(graph_key(&sweep_graphs[i]), || {
                ctqw_density_infinite(&sweep_graphs[i]).expect("non-empty graph")
            })
        };
        let entry = |i: usize, j: usize| {
            let d = haqjsk_quantum::qjsd_padded(&density(i), &density(j)).unwrap();
            (-d).exp()
        };
        let run = || {
            let start = Instant::now();
            let _ = Engine::global().gram(Some(backend), n, per_pair(entry), None);
            start.elapsed().as_secs_f64()
        };
        let cold = run();
        let warm = run();
        let stats = cache.stats();
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>8.1}% {:>10}",
            backend.label(),
            cold,
            warm,
            stats.hit_rate() * 100.0,
            stats.evictions
        );
        sweep_rows.push(Json::obj([
            ("backend", Json::Str(backend.label().to_string())),
            ("cold_ms", Json::Num(cold * 1000.0)),
            ("warm_ms", Json::Num(warm * 1000.0)),
            ("cache_hit_rate", Json::Num(stats.hit_rate())),
            ("evictions", Json::Num(stats.evictions as f64)),
        ]));
    }

    let dist_rows = distributed_section();

    if let Some(path) = json_path {
        let report = Json::obj([
            ("bench", Json::Str("scaling".to_string())),
            // Which eigensolver SIMD path produced these timings.
            (
                "simd_path",
                Json::Str(haqjsk_linalg::active_simd_label().to_string()),
            ),
            ("ctqw_density", Json::Arr(ctqw_rows)),
            ("haqjsk_gram", Json::Arr(gram_rows)),
            ("engine_gram", Json::Arr(engine_rows)),
            ("backend_sweep", Json::Arr(sweep_rows)),
            ("distributed", Json::Arr(dist_rows)),
        ]);
        write_json_report(&path, &report);
    }

    println!("\n{}", engine_banner());

    println!("\nPer-graph cost is cubic in n (eigendecomposition); Gram cost is quadratic in N — matching the O(N^2 n^3) analysis of Sec. III-D.");

    dump_metrics_if_requested();
}

/// A worker process spawned next to this benchmark binary, killed on drop.
struct BenchWorker {
    child: std::process::Child,
    addr: String,
}

impl Drop for BenchWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `haqjsk-worker` (built into the same target directory by the
/// workspace build) with `threads` engine workers; `None` when the binary
/// is not present.
fn spawn_bench_worker(threads: usize) -> Option<BenchWorker> {
    use std::io::BufRead;
    let bin = std::env::current_exe()
        .ok()?
        .parent()?
        .join("haqjsk-worker");
    if !bin.exists() {
        return None;
    }
    let mut child = std::process::Command::new(bin)
        .arg("127.0.0.1:0")
        .env("HAQJSK_THREADS", threads.to_string())
        .env_remove("HAQJSK_BACKEND")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .ok()?;
    let stdout = child.stdout.take()?;
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).ok()?;
    let addr = line.trim().rsplit(' ').next()?.to_string();
    addr.contains(':').then_some(BenchWorker { child, addr })
}

/// Distributed vs single-process execution of a 64-graph HAQJSK(A) model
/// Gram over already-transformed graphs (the workers transform their own
/// copies, cold on the first Gram): two worker processes whose thread
/// counts sum to the driver's `Local` thread count (same total compute
/// threads; the coordinator threads only do IO), plus the
/// distributed-pool counters the ROADMAP asks the bench to surface.
fn distributed_section() -> Vec<Json> {
    use haqjsk_dist::{Coordinator, DistConfig, WorkerOptions, WorkerServer};

    let n_graphs = 64usize;
    // Graphs big enough that the per-pair mixture eigensolves dominate the
    // wire/scheduling overhead — the regime distribution is for.
    let graphs: Vec<Graph> = (0..n_graphs)
        .map(|i| erdos_renyi(34 + i % 8, 0.3, 4000 + i as u64))
        .collect();
    let model = HaqjskModel::fit(
        &graphs,
        HaqjskConfig::small(),
        HaqjskVariant::AlignedAdjacency,
    )
    .expect("fit succeeds");
    let aligned = model.transform_all(&graphs).expect("transform succeeds");
    let threads = Engine::global().threads();
    let per_worker = threads.div_ceil(2).max(1);
    let mut rows = Vec::new();

    println!(
        "\nDistributed — 2 workers x {per_worker} threads vs single-process local x {threads} threads, {n_graphs}-graph Gram\n"
    );
    println!("{:>10} {:>10} {:>10}", "backend", "cold s", "warm s");

    let gram_seconds = |backend: BackendKind| {
        let start = Instant::now();
        model
            .gram_over_transforms(&graphs, &aligned, Some(backend))
            .expect("gram succeeds");
        start.elapsed().as_secs_f64()
    };
    let timed = |backend: BackendKind| {
        let cold = gram_seconds(backend);
        // Warm: everything cacheable is resident (worker stores, models
        // and transform caches); min over repeats for guard stability.
        let warm = (0..3)
            .map(|_| gram_seconds(backend))
            .fold(f64::INFINITY, f64::min);
        (cold, warm)
    };

    let (local_cold, local_warm) = timed(BackendKind::Local);
    println!("{:>10} {:>10.3} {:>10.3}", "local", local_cold, local_warm);
    rows.push(Json::obj([
        ("backend", Json::Str("local".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("cold_ms", Json::Num(local_cold * 1000.0)),
        ("warm_ms", Json::Num(local_warm * 1000.0)),
    ]));

    // Prefer real worker processes (the acceptance configuration); fall
    // back to in-process workers when the binary is absent (e.g. running
    // the bench from a partial build).
    let processes: Vec<BenchWorker> = (0..2)
        .filter_map(|_| spawn_bench_worker(per_worker))
        .collect();
    let mut in_process: Vec<WorkerServer> = Vec::new();
    let addrs: Vec<String> = if processes.len() == 2 {
        processes.iter().map(|w| w.addr.clone()).collect()
    } else {
        println!("(haqjsk-worker binary not found; using in-process workers)");
        in_process = (0..2)
            .map(|_| {
                WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default())
                    .expect("bind in-process worker")
            })
            .collect();
        in_process
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    };
    let mode = if processes.len() == 2 {
        "processes"
    } else {
        "in-process"
    };

    let coordinator = match Coordinator::connect(&addrs, DistConfig::from_env()) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => {
            println!("(distributed section skipped: {e})");
            return rows;
        }
    };
    haqjsk_dist::set_coordinator(Some(std::sync::Arc::clone(&coordinator)));
    let (dist_cold, dist_warm) = timed(BackendKind::Distributed);
    println!("{:>10} {:>10.3} {:>10.3}", "dist", dist_cold, dist_warm);
    println!(
        "\n  warm dist/local: {:.2}x ({mode}); dataset dedup hit rate {:.1}%",
        dist_warm / local_warm,
        coordinator.stats().dedup_hit_rate() * 100.0
    );
    println!(
        "  {:>22} {:>11} {:>10} {:>12} {:>13}",
        "worker", "dispatched", "completed", "redispatched", "bytes shipped"
    );
    let stats = coordinator.stats();
    for w in &stats.workers {
        println!(
            "  {:>22} {:>11} {:>10} {:>12} {:>13}",
            w.addr, w.tiles_dispatched, w.tiles_completed, w.tiles_redispatched, w.bytes_shipped
        );
    }
    // The two-worker run must have fed the per-worker RPC round-trip
    // histograms (dataset shipping alone touches every worker), so this
    // section doubles as an integration check of the dist observability.
    let snapshot = haqjsk_obs::registry().snapshot();
    for w in &stats.workers {
        let histogram = snapshot
            .histogram("haqjsk_dist_rpc_seconds", &[("worker", w.addr.as_str())])
            .unwrap_or_else(|| panic!("no RPC round-trip histogram for worker {}", w.addr));
        assert!(
            histogram.count > 0,
            "RPC round-trip histogram for worker {} is empty",
            w.addr
        );
        println!(
            "  {:>22} rpc round trips: {} (p50 {:.1} ms, p99 {:.1} ms)",
            w.addr,
            histogram.count,
            histogram.quantile(0.5) * 1000.0,
            histogram.quantile(0.99) * 1000.0
        );
    }
    rows.push(Json::obj([
        ("backend", Json::Str("dist".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("workers", Json::Num(2.0)),
        ("threads_per_worker", Json::Num(per_worker as f64)),
        ("cold_ms", Json::Num(dist_cold * 1000.0)),
        ("warm_ms", Json::Num(dist_warm * 1000.0)),
        ("dedup_hit_rate", Json::Num(stats.dedup_hit_rate())),
        (
            "workers_detail",
            Json::Arr(
                stats
                    .workers
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("addr", Json::Str(w.addr.clone())),
                            ("tiles_dispatched", Json::Num(w.tiles_dispatched as f64)),
                            ("tiles_completed", Json::Num(w.tiles_completed as f64)),
                            ("tiles_redispatched", Json::Num(w.tiles_redispatched as f64)),
                            ("bytes_shipped", Json::Num(w.bytes_shipped as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
    haqjsk_dist::set_coordinator(None);
    drop(in_process);
    rows
}
