//! Deterministic chaos soak of the self-healing distributed backend.
//!
//! Spawns **real** `haqjsk-worker` processes with a seeded
//! [`ChaosPlan`] in their environment, then drives hundreds of HAQJSK(A)
//! and HAQJSK(D) model Grams (one model per variant, fitted once at
//! [`HaqjskConfig::small`], the variants alternating Gram by Gram) through
//! a coordinator while the workers inject connection kills, mid-stream
//! hangups, bounded delays and transient `store_miss` replies (each evicts
//! a stored graph and the tile's model) — all drawn from a fixed seed, so
//! a failing run replays bit-for-bit. Mid-soak the harness **joins** a
//! third worker to the running coordinator and later **drains** one of
//! the originals, exercising elastic membership under fire.
//!
//! Every Gram is byte-compared against the serial backend, and the run
//! ends by asserting the self-healing invariants from the metrics
//! registry:
//!
//! * zero lost tiles — `tiles_scheduled == tiles_committed + local_fallback_tiles`,
//! * at least one reconnect-after-probation and one observed death,
//! * at least one `store_miss` repaired by targeted re-shipping,
//! * at least one model artifact re-shipped after a worker lost it: more
//!   artifact ships than first copies (one per model per worker),
//! * the joiner completed tiles, and the membership epoch moved,
//! * with `HAQJSK_CACHE_BUDGET` set (the workers inherit it), at least one
//!   aligned-transform cache eviction on the workers.
//!
//! ```text
//! cargo build --release            # builds the haqjsk-worker binary too
//! HAQJSK_CHAOS=seed:42,kill:25,hang:15,delay:40:30,miss:25 \
//!     cargo run --release -p haqjsk-bench --bin chaos -- --grams 200
//! ```
//!
//! Flags: `--grams N` (default 200), `--chaos PLAN` (overrides the
//! `HAQJSK_CHAOS` environment variable; worker `i` runs with `seed+i` so
//! the three fault schedules differ), `--store-budget BYTES` (optional:
//! byte-budgets the worker graph stores so evictions and re-shipping join
//! the chaos mix). Exits non-zero on any divergence or failed invariant.

use haqjsk_core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk_dist::{ChaosPlan, Coordinator, DistConfig, CHAOS_ENV_VAR};
use haqjsk_engine::{BackendKind, CacheConfig, Json};
use haqjsk_graph::generators::{barabasi_albert, cycle_graph, erdos_renyi, star_graph};
use haqjsk_graph::Graph;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A spawned `haqjsk-worker` process with its bound address.
struct WorkerProcess {
    child: Child,
    addr: String,
}

impl WorkerProcess {
    /// Spawns the worker binary on an ephemeral port with the given chaos
    /// plan (and optional store budget) in its environment, parsing the
    /// bound address from the startup banner.
    fn spawn(binary: &PathBuf, plan: &ChaosPlan, store_budget: Option<u64>) -> WorkerProcess {
        let mut command = Command::new(binary);
        command
            .arg("127.0.0.1:0")
            .env("HAQJSK_THREADS", "2")
            .env(CHAOS_ENV_VAR, plan.to_env_string())
            // The child must not try to join a distributed pool itself.
            .env_remove("HAQJSK_BACKEND")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match store_budget {
            Some(bytes) => {
                command.env(haqjsk_dist::WORKER_STORE_BUDGET_ENV_VAR, bytes.to_string());
            }
            None => {
                command.env_remove(haqjsk_dist::WORKER_STORE_BUDGET_ENV_VAR);
            }
        }
        let mut child = command.spawn().expect("spawn haqjsk-worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read worker banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner ends with the address")
            .to_string();
        assert!(addr.contains(':'), "unexpected worker banner: {line:?}");
        WorkerProcess { child, addr }
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `haqjsk-worker` binary next to this one (`cargo build` puts every
/// workspace binary in the same `target/<profile>/` directory).
fn worker_binary() -> PathBuf {
    let mut path = std::env::current_exe().expect("locate current executable");
    path.pop();
    path.push(format!("haqjsk-worker{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "worker binary not found at {} — run `cargo build` for the whole \
         workspace first so the haqjsk-worker binary exists",
        path.display()
    );
    path
}

/// Four small rotating datasets with mixed families and sizes, so dedup
/// shipping, zero-padding and dimension-class chunking all stay exercised.
fn datasets() -> Vec<Vec<Graph>> {
    (0..4u64)
        .map(|d| {
            let mut graphs = Vec::new();
            for i in 0..3usize {
                graphs.push(cycle_graph(5 + i + d as usize));
                graphs.push(star_graph(5 + i + d as usize));
                graphs.push(erdos_renyi(6 + i, 0.35, d * 17 + i as u64));
                graphs.push(barabasi_albert(7 + i, 2, 100 + d * 17 + i as u64));
            }
            graphs
        })
        .collect()
}

fn parse_args() -> (usize, ChaosPlan, Option<u64>) {
    let mut grams = 200usize;
    let mut plan_text = std::env::var(CHAOS_ENV_VAR)
        .ok()
        .filter(|raw| !raw.trim().is_empty())
        .unwrap_or_else(|| "seed:42,kill:25,hang:15,delay:40:30,miss:25".to_string());
    let mut store_budget = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--grams" => grams = value("--grams").parse().expect("--grams takes an integer"),
            "--chaos" => plan_text = value("--chaos"),
            "--store-budget" => {
                store_budget = Some(
                    value("--store-budget")
                        .parse()
                        .expect("--store-budget takes bytes"),
                )
            }
            other => {
                panic!("unknown flag {other:?} (--grams N | --chaos PLAN | --store-budget BYTES)")
            }
        }
    }
    let plan = ChaosPlan::parse(&plan_text).expect("chaos plan");
    (grams, plan, store_budget)
}

/// The plan for worker `index`: same rates, shifted seed, so the three
/// workers inject different (but individually deterministic) schedules.
fn worker_plan(base: &ChaosPlan, index: u64) -> ChaosPlan {
    ChaosPlan {
        seed: base.seed + index,
        ..*base
    }
}

/// One worker's `stats` reply, read over a fresh connection (control
/// traffic, so chaos never fires on it).
fn worker_stats(addr: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect for worker stats");
    stream
        .write_all(b"{\"cmd\":\"stats\"}\n")
        .expect("send stats request");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read worker stats");
    Json::parse(line.trim()).expect("worker stats parse")
}

fn assert_bytes_equal(gram: usize, distributed: &[f64], serial: &[f64]) {
    assert_eq!(distributed.len(), serial.len());
    for (k, (a, b)) in distributed.iter().zip(serial).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "gram {gram}: entry {k} drifted ({a} vs {b})"
        );
    }
}

fn main() {
    let (grams, plan, store_budget) = parse_args();
    let binary = worker_binary();
    println!(
        "chaos soak: {grams} grams, plan {} (worker i runs seed+i){}",
        plan.to_env_string(),
        store_budget.map_or(String::new(), |b| format!(", store budget {b} B")),
    );

    let mut workers = vec![
        WorkerProcess::spawn(&binary, &worker_plan(&plan, 0), store_budget),
        WorkerProcess::spawn(&binary, &worker_plan(&plan, 1), store_budget),
    ];
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let config = DistConfig {
        deadline: Duration::from_secs(10),
        // Fast probation retries: a killed connection should revive well
        // within one Gram, so the soak observes reconnects, not fallback.
        reconnect_base: Duration::from_millis(50),
        reconnect_max: Duration::from_millis(400),
        ..DistConfig::default()
    };
    let coordinator =
        Arc::new(Coordinator::connect(&addrs, config).expect("connect to worker processes"));
    haqjsk_dist::set_coordinator(Some(Arc::clone(&coordinator)));
    haqjsk_dist::register_dist_metrics();

    // One model per variant, fitted once on the first dataset; serial
    // references once per (model, dataset), and every soak Gram
    // byte-compares.
    let datasets = datasets();
    let models: Vec<HaqjskModel> = [
        HaqjskVariant::AlignedAdjacency,
        HaqjskVariant::AlignedDensity,
    ]
    .into_iter()
    .map(|variant| {
        HaqjskModel::fit(&datasets[0], HaqjskConfig::small(), variant).expect("fit soak model")
    })
    .collect();
    let gram = |model: &HaqjskModel, graphs: &[Graph], backend| {
        model
            .gram_matrix_on(graphs, Some(backend))
            .expect("model gram")
            .matrix()
            .data()
            .to_vec()
    };
    let references: Vec<Vec<Vec<f64>>> = models
        .iter()
        .map(|model| {
            datasets
                .iter()
                .map(|graphs| gram(model, graphs, BackendKind::Serial))
                .collect()
        })
        .collect();

    let join_at = grams / 2;
    let drain_at = grams * 3 / 4;
    let mut joiner_addr = None;
    let started = Instant::now();
    for g in 0..grams {
        if g == join_at {
            let joiner = WorkerProcess::spawn(&binary, &worker_plan(&plan, 2), store_budget);
            coordinator
                .add_worker(&joiner.addr)
                .expect("join third worker mid-soak");
            println!(
                "gram {g}: joined worker {} (epoch {})",
                joiner.addr,
                coordinator.epoch()
            );
            joiner_addr = Some(joiner.addr.clone());
            workers.push(joiner);
        }
        if g == drain_at {
            // Materialise the original worker's per-address counters in the
            // registry before its link leaves the membership list.
            let _ = haqjsk_obs::registry().snapshot();
            coordinator
                .remove_worker(&addrs[0])
                .expect("drain an original worker mid-soak");
            println!(
                "gram {g}: drained worker {} (epoch {})",
                addrs[0],
                coordinator.epoch()
            );
        }
        // Variants alternate Gram by Gram; each pair of Grams moves to
        // the next dataset, so every (variant, dataset) pair recurs.
        let (model, which) = (g % models.len(), (g / models.len()) % datasets.len());
        let distributed = gram(&models[model], &datasets[which], BackendKind::Distributed);
        assert_bytes_equal(g, &distributed, &references[model][which]);
        if (g + 1) % 25 == 0 {
            let stats = coordinator.stats();
            println!(
                "gram {:>4}/{grams}: epoch {}, {} reconnects, {} store misses, \
                 {} artifacts shipped, {} fallback tiles, {:.1}s",
                g + 1,
                stats.epoch,
                stats.reconnects(),
                stats.store_misses(),
                stats.artifacts_shipped,
                stats.local_fallback_tiles,
                started.elapsed().as_secs_f64()
            );
        }
    }

    // Final invariants, read back from the metrics registry (the snapshot
    // refreshes every collector, including the dist collector).
    let snapshot = haqjsk_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counter_value(name, &[]).unwrap_or(0);
    let per_worker = |name: &str| -> u64 {
        let mut all: Vec<&str> = addrs.iter().map(String::as_str).collect();
        if let Some(joiner) = &joiner_addr {
            all.push(joiner);
        }
        all.iter()
            .map(|addr| {
                snapshot
                    .counter_value(name, &[("worker", addr)])
                    .unwrap_or(0)
            })
            .sum()
    };

    let scheduled = counter("haqjsk_dist_tiles_scheduled_total");
    let committed = counter("haqjsk_dist_tiles_committed_total");
    let fallback = counter("haqjsk_dist_local_fallback_tiles_total");
    let deaths = per_worker("haqjsk_dist_worker_deaths_total");
    let reconnects = per_worker("haqjsk_dist_reconnects_total");
    let misses = per_worker("haqjsk_dist_store_misses_total");
    let joiner_tiles = joiner_addr
        .as_deref()
        .map(|addr| {
            snapshot
                .counter_value("haqjsk_dist_tiles_completed_total", &[("worker", addr)])
                .unwrap_or(0)
        })
        .unwrap_or(0);
    let epoch = snapshot
        .gauge_value("haqjsk_dist_membership_epoch", &[])
        .unwrap_or(0.0) as usize;
    let keys_shipped = counter("haqjsk_dist_dataset_keys_shipped_total");
    let artifacts = counter("haqjsk_dist_artifacts_shipped_total");
    // A worker holds each model from its first copy on until a store miss
    // evicts it, so every ship past one per (worker, model) re-shipped a
    // lost artifact.
    let first_copies = (workers.len() * models.len()) as u64;
    let artifact_reships = artifacts.saturating_sub(first_copies);
    let aligned_evictions: usize = workers
        .iter()
        .map(|w| {
            worker_stats(&w.addr)
                .get("aligned_cache_evictions")
                .and_then(Json::as_usize)
                .expect("worker stats report aligned cache evictions")
        })
        .sum();

    println!(
        "soak done in {:.1}s: {scheduled} tiles scheduled, {committed} committed, \
         {fallback} local fallback, {deaths} deaths, {reconnects} reconnects, \
         {misses} store misses, {keys_shipped} dataset keys shipped, \
         {artifacts} artifacts shipped ({artifact_reships} re-ships), \
         {aligned_evictions} worker aligned-cache evictions, \
         joiner completed {joiner_tiles}, epoch {epoch}",
        started.elapsed().as_secs_f64()
    );

    assert_eq!(
        scheduled,
        committed + fallback,
        "lost tiles: scheduled != committed + fallback"
    );
    assert!(deaths >= 1, "the chaos plan never killed a connection");
    assert!(
        reconnects >= 1,
        "no worker revived out of probation — self-healing did not engage"
    );
    assert!(
        misses >= 1,
        "no store_miss was injected/repaired — the re-ship path went unexercised"
    );
    assert!(
        artifact_reships >= 1,
        "{artifacts} artifact ships for {first_copies} first copies — no lost \
         model was re-shipped through the repair path"
    );
    if CacheConfig::from_env().budget_bytes.is_some() {
        assert!(
            aligned_evictions >= 1,
            "the workers' aligned caches never evicted under the budget"
        );
    }
    assert!(
        joiner_tiles >= 1,
        "the mid-soak joiner never completed a tile"
    );
    // Two initial connects + join + drain + at least one death/revival pair.
    assert!(
        epoch >= 5,
        "membership epoch {epoch} moved less than expected"
    );

    haqjsk_dist::set_coordinator(None);
    drop(workers);
    println!("chaos soak PASS ({grams} grams byte-identical to serial)");
}
