//! Acceptance tests of the distributed tile-execution backend, over
//! loopback TCP with in-process workers. Every distributed Gram is a
//! fitted HAQJSK model's — the one tile kind a worker evaluates.
//!
//! * **Byte identity.** A multi-worker distributed Gram must be
//!   byte-identical to the `Serial` backend on the 32-graph acceptance
//!   dataset, for HAQJSK(A) and HAQJSK(D).
//! * **Fault tolerance.** Killing a worker mid-Gram (deterministically,
//!   via a chaos plan that kills every tile) must not change a single bit
//!   of the result — surviving workers and the local fallback absorb the
//!   loss.
//! * **Dedup shipping.** A second Gram over the same dataset ships zero
//!   graphs, and over the same model no artifact.
//! * **Local baselines.** The closed-form QJSK and JTQK baselines never
//!   reach the coordinator: they run on the local scheduler under the
//!   distributed backend.
//!
//! The coordinator slot is process-global, so the tests serialise on one
//! mutex.

use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::dist::{wire, ChaosPlan, Coordinator, DistConfig, WorkerOptions, WorkerServer};
use haqjsk::engine::{BackendKind, Json};
use haqjsk::graph::generators::{barabasi_albert, cycle_graph, erdos_renyi, star_graph};
use haqjsk::graph::Graph;
use haqjsk::kernels::{GraphKernel, JensenTsallisKernel, QjskAligned, QjskUnaligned};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Serialises tests that install a process-wide coordinator. A test that
/// panicked while holding the lock poisons it; the next test recovers the
/// guard, so one failure reports once.
fn dist_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The 32-graph synthetic acceptance dataset (same construction as the
/// engine and tile-batch acceptance tests: mixed families, mixed sizes so
/// zero-padding and dimension-class chunking are exercised).
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

fn spawn_workers(count: usize) -> (Vec<WorkerServer>, Vec<String>) {
    let servers: Vec<WorkerServer> = (0..count)
        .map(|_| {
            WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default())
                .expect("bind in-process worker")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, addrs)
}

/// Arms the worker at `addr` with a chaos plan that kills every tile
/// request: each answers an error and drops its connection.
fn kill_every_tile(addr: &str) {
    let plan = ChaosPlan::parse("seed:0,kill:1000").expect("chaos plan");
    let mut stream = TcpStream::connect(addr).expect("connect to worker");
    writeln!(stream, "{}", wire::chaos_request(Some(&plan))).expect("send chaos plan");
    let mut ack = String::new();
    BufReader::new(stream)
        .read_line(&mut ack)
        .expect("chaos ack");
    let ack = Json::parse(ack.trim()).expect("chaos ack is JSON");
    assert_eq!(
        ack.get("armed").and_then(Json::as_bool),
        Some(true),
        "{ack}"
    );
}

fn connect(addrs: &[String]) -> Arc<Coordinator> {
    let config = DistConfig {
        deadline: Duration::from_secs(20),
        ..DistConfig::default()
    };
    Arc::new(Coordinator::connect(addrs, config).expect("connect worker pool"))
}

/// A HAQJSK model of `variant` fitted on `graphs` at the small
/// configuration.
fn fit(graphs: &[Graph], variant: HaqjskVariant) -> HaqjskModel {
    HaqjskModel::fit(graphs, HaqjskConfig::small(), variant).expect("fit test model")
}

/// The model's Gram over `graphs` on `backend`, as raw entries.
fn gram(model: &HaqjskModel, graphs: &[Graph], backend: BackendKind) -> Vec<f64> {
    model
        .gram_matrix_on(graphs, Some(backend))
        .expect("model gram")
        .matrix()
        .data()
        .to_vec()
}

fn assert_bytes_equal(name: &str, distributed: &[f64], serial: &[f64]) {
    assert_eq!(distributed.len(), serial.len());
    for (k, (a, b)) in distributed.iter().zip(serial).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}: entry {k} drifted ({a} vs {b})"
        );
    }
}

#[test]
fn multi_worker_gram_is_byte_identical_to_serial_for_all_quantum_kernels() {
    let _guard = dist_lock();
    let graphs = acceptance_dataset();
    let (mut servers, addrs) = spawn_workers(2);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    let variants = [
        HaqjskVariant::AlignedAdjacency,
        HaqjskVariant::AlignedDensity,
    ];
    for variant in variants {
        let model = fit(&graphs, variant);
        assert_bytes_equal(
            &format!("{variant:?}"),
            &gram(&model, &graphs, BackendKind::Distributed),
            &gram(&model, &graphs, BackendKind::Serial),
        );
    }

    let stats = coordinator.stats();
    assert_eq!(stats.grams, 2, "every Gram routed through the coordinator");
    assert_eq!(
        stats.local_fallback_grams, 0,
        "healthy workers mean no whole-Gram fallback"
    );
    let completed: usize = stats.workers.iter().map(|w| w.tiles_completed).sum();
    assert!(completed > 0, "workers computed tiles: {stats:?}");
    assert_eq!(
        stats.local_fallback_tiles, 0,
        "healthy workers mean no per-tile fallback: {stats:?}"
    );
    // The dataset shipped once per worker for the first Gram; the second
    // was a pure dedup hit. Each model travelled once to each worker.
    assert_eq!(stats.dataset_keys_total, 2 * 2 * graphs.len());
    assert_eq!(stats.dataset_keys_shipped, 2 * graphs.len());
    assert_eq!(stats.dedup_hit_rate(), 0.5, "{stats:?}");
    assert_eq!(stats.artifacts_shipped, 2 * 2, "{stats:?}");

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn killing_a_worker_mid_gram_keeps_the_result_byte_identical() {
    let _guard = dist_lock();
    let graphs = acceptance_dataset();
    let (mut servers, addrs) = spawn_workers(2);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    // Worker 0 fails its first tile and hangs up — a deterministic
    // mid-Gram death, however many of the Gram's tiles it wins.
    kill_every_tile(&addrs[0]);

    let model = fit(&graphs, HaqjskVariant::AlignedAdjacency);
    let serial = gram(&model, &graphs, BackendKind::Serial);
    let distributed = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("HAQJSK(A) under fault injection", &distributed, &serial);

    let stats = coordinator.stats();
    // The faulted worker died at least once. It may already be alive again
    // — its server process survived the hangup, so the background
    // probation thread redials and revives it within its backoff — which
    // is exactly the self-healing the elastic pool promises.
    assert!(stats.workers[0].deaths >= 1, "{stats:?}");
    assert!(
        stats.epoch >= 3,
        "the two joins plus the death (and any revival) each bumped the \
         membership epoch: {stats:?}"
    );
    assert!(
        stats.workers[1].tiles_completed > 0,
        "the survivor picked up work: {stats:?}"
    );
    // The dead worker's in-flight tiles were recovered — every tile was
    // eventually committed by the survivor or the local fallback, which the
    // byte-identity assertion above already proves; the counters must show
    // the recovery happened at all.
    assert!(
        stats.workers[0].tiles_dispatched > stats.workers[0].tiles_completed,
        "the dead worker lost in-flight tiles: {stats:?}"
    );

    // The pool recovers for the next Gram: worker 0 reconnects (its
    // chaos plan still kills every tile, so it keeps failing — but
    // worker 1 and the local fallback still complete the Gram).
    let again = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("HAQJSK(A) after the fault", &again, &serial);

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

/// Replacing the installed coordinator drops the old one at once: its
/// probation thread is unparked and joined, not left to finish a poll.
#[test]
fn replacing_the_coordinator_never_waits_out_a_probation_poll() {
    let _guard = dist_lock();
    let (mut servers, addrs) = spawn_workers(1);
    let started = Instant::now();
    for _ in 0..20 {
        haqjsk::dist::set_coordinator(Some(connect(&addrs)));
    }
    haqjsk::dist::set_coordinator(None);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 connect-and-replace cycles took {elapsed:?}"
    );
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn total_worker_loss_falls_back_to_local_execution() {
    let _guard = dist_lock();
    let graphs: Vec<Graph> = acceptance_dataset().into_iter().take(12).collect();
    let (mut servers, addrs) = spawn_workers(1);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    // Kill the only worker before the Gram even starts: every tile request
    // fails immediately.
    kill_every_tile(&addrs[0]);

    let model = fit(&graphs, HaqjskVariant::AlignedDensity);
    assert_bytes_equal(
        "HAQJSK(D) with a dead pool",
        &gram(&model, &graphs, BackendKind::Distributed),
        &gram(&model, &graphs, BackendKind::Serial),
    );
    let stats = coordinator.stats();
    assert!(
        stats.local_fallback_tiles > 0 || stats.local_fallback_grams > 0,
        "the local fallback must have absorbed the loss: {stats:?}"
    );

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn serving_fit_accepts_workers_and_stats_reports_the_pool() {
    use haqjsk::engine::serve::graph_to_json;

    let _guard = dist_lock();
    haqjsk::dist::set_coordinator(None);
    let (mut workers, addrs) = spawn_workers(2);

    let mut server = haqjsk::serving::spawn_server("127.0.0.1:0").expect("bind serving");
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut request = |body: String| -> Json {
        writer.write_all(body.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };

    let graphs: Vec<Json> = acceptance_dataset()
        .iter()
        .take(8)
        .map(graph_to_json)
        .collect();
    let workers_json: Vec<Json> = addrs.iter().map(|a| Json::Str(a.clone())).collect();
    let fit = request(format!(
        r#"{{"cmd":"fit","graphs":{},"workers":{}}}"#,
        Json::Arr(graphs),
        Json::Arr(workers_json)
    ));
    assert_eq!(fit.get("ok").and_then(Json::as_bool), Some(true), "{fit}");
    assert_eq!(fit.get("backend").and_then(Json::as_str), Some("dist"));
    assert_eq!(fit.get("workers").and_then(Json::as_usize), Some(2));

    let stats = request(r#"{"cmd":"stats"}"#.to_string());
    let dist = stats.get("distributed").expect("stats reports the pool");
    let pool_workers = dist.get("workers").and_then(Json::as_array).unwrap();
    assert_eq!(pool_workers.len(), 2);
    for w in pool_workers {
        assert!(w.get("tiles_dispatched").and_then(Json::as_usize).is_some());
        assert!(w.get("bytes_shipped").and_then(Json::as_usize).is_some());
    }
    assert!(dist.get("dedup_hit_rate").and_then(Json::as_f64).is_some());
    // An unreachable worker pool is a loud fit error, not a silent local
    // fit.
    let bad = request(
        r#"{"cmd":"fit","graphs":[{"n":3,"edges":[[0,1],[1,2]]}],"workers":["127.0.0.1:1"]}"#
            .to_string(),
    );
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    haqjsk::dist::set_coordinator(None);
    server.shutdown();
    for worker in &mut workers {
        worker.shutdown();
    }
}

#[test]
fn model_grams_distribute_via_artifacts_byte_identically() {
    let _guard = dist_lock();
    let graphs: Vec<Graph> = acceptance_dataset().into_iter().take(16).collect();
    let (mut servers, addrs) = spawn_workers(2);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    let config = HaqjskConfig {
        max_layers: Some(2),
        ..HaqjskConfig::default()
    };
    let model = HaqjskModel::fit(&graphs, config, HaqjskVariant::AlignedAdjacency)
        .expect("fit acceptance model");
    let serial = gram(&model, &graphs, BackendKind::Serial);
    let distributed = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("fitted-model Gram", &distributed, &serial);

    let stats = coordinator.stats();
    assert!(
        stats.artifacts_shipped >= 1,
        "the persisted model travelled as an artifact: {stats:?}"
    );
    let completed: usize = stats.workers.iter().map(|w| w.tiles_completed).sum();
    assert!(completed > 0, "workers evaluated model tiles: {stats:?}");
    assert_eq!(stats.local_fallback_tiles, 0, "{stats:?}");

    // A second Gram over the same model re-ships nothing: the workers
    // already hold the content-addressed artifact.
    let again = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("repeat fitted-model Gram", &again, &serial);
    assert_eq!(
        coordinator.stats().artifacts_shipped,
        stats.artifacts_shipped,
        "the repeat Gram was an artifact dedup hit"
    );

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn workers_join_and_drain_on_a_running_coordinator() {
    let _guard = dist_lock();
    let graphs = acceptance_dataset();
    let (mut servers, addrs) = spawn_workers(2);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    let model = fit(&graphs, HaqjskVariant::AlignedDensity);
    let serial = gram(&model, &graphs, BackendKind::Serial);
    let first = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("before membership changes", &first, &serial);
    let epoch_before = coordinator.epoch();

    // Join a third worker mid-run: it must receive the dataset and the
    // model through the ordinary shipping phase of the next Gram, before
    // taking tiles.
    let joiner = WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default()).expect("bind joiner");
    let joiner_addr = joiner.local_addr().to_string();
    servers.push(joiner);
    coordinator.add_worker(&joiner_addr).expect("join worker");
    assert_eq!(coordinator.num_workers(), 3);
    assert!(coordinator.epoch() > epoch_before, "joins bump the epoch");
    // Joining twice is rejected.
    assert!(coordinator.add_worker(&joiner_addr).is_err());

    let artifacts_before = coordinator.stats().artifacts_shipped;
    let second = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("after a join", &second, &serial);
    let stats = coordinator.stats();
    let joined = stats
        .workers
        .iter()
        .find(|w| w.addr == joiner_addr)
        .expect("joiner in stats");
    assert_eq!(
        joined.datasets_shipped, 1,
        "the joiner received the dataset on its first Gram: {stats:?}"
    );
    assert_eq!(
        stats.artifacts_shipped,
        artifacts_before + 1,
        "the joiner alone received the model: {stats:?}"
    );

    // Drain the first worker out; Grams keep working on the remainder.
    let drain_epoch = coordinator.epoch();
    coordinator.remove_worker(&addrs[0]).expect("drain worker");
    assert_eq!(coordinator.num_workers(), 2);
    assert!(coordinator.epoch() > drain_epoch, "drains bump the epoch");
    assert!(coordinator.remove_worker(&addrs[0]).is_err());

    let third = gram(&model, &graphs, BackendKind::Distributed);
    assert_bytes_equal("after a drain", &third, &serial);
    assert_eq!(
        coordinator.stats().local_fallback_tiles,
        0,
        "the remaining pool absorbed all tiles"
    );

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn bounded_worker_stores_recover_evictions_through_reshipping() {
    let _guard = dist_lock();
    // Spawn the worker under a budget far below the dataset size: most
    // graphs are evicted whenever the store is idle, so tiles keep hitting
    // store misses that the scheduler must repair by re-shipping.
    std::env::set_var("HAQJSK_WORKER_STORE_BUDGET", "4096");
    let (mut servers, addrs) = spawn_workers(1);
    std::env::remove_var("HAQJSK_WORKER_STORE_BUDGET");

    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    let graphs: Vec<Graph> = acceptance_dataset().into_iter().take(12).collect();
    let model = fit(&graphs, HaqjskVariant::AlignedAdjacency);
    assert_bytes_equal(
        "HAQJSK(A) under a starved store",
        &gram(&model, &graphs, BackendKind::Distributed),
        &gram(&model, &graphs, BackendKind::Serial),
    );

    let stats = coordinator.stats();
    assert_eq!(
        stats.workers[0].deaths, 0,
        "evictions are repaired, never treated as deaths: {stats:?}"
    );
    assert_eq!(stats.local_fallback_tiles, 0, "{stats:?}");

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn distributed_kind_without_a_coordinator_executes_locally() {
    let _guard = dist_lock();
    haqjsk::dist::set_coordinator(None);
    let graphs: Vec<Graph> = acceptance_dataset().into_iter().take(8).collect();
    let model = fit(&graphs, HaqjskVariant::AlignedDensity);
    assert_bytes_equal(
        "HAQJSK(D) without coordinator",
        &gram(&model, &graphs, BackendKind::Distributed),
        &gram(&model, &graphs, BackendKind::Serial),
    );
}

#[test]
fn closed_form_baselines_schedule_no_dist_tiles_beside_a_live_coordinator() {
    let _guard = dist_lock();
    let graphs: Vec<Graph> = acceptance_dataset().into_iter().take(12).collect();
    let (mut servers, addrs) = spawn_workers(2);
    let coordinator = connect(&addrs);
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

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
        let serial = kernel.gram_matrix_on(&graphs, Some(BackendKind::Serial));
        let distributed = kernel.gram_matrix_on(&graphs, Some(BackendKind::Distributed));
        assert_bytes_equal(name, distributed.matrix().data(), serial.matrix().data());
    }

    let stats = coordinator.stats();
    assert_eq!(
        stats.grams, 0,
        "no baseline Gram reached the pool: {stats:?}"
    );
    assert_eq!(stats.tiles_scheduled, 0, "{stats:?}");
    assert!(
        stats.workers.iter().all(|w| w.tiles_dispatched == 0),
        "{stats:?}"
    );

    haqjsk::dist::set_coordinator(None);
    for server in &mut servers {
        server.shutdown();
    }
}
