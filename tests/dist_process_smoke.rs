//! Distributed smoke test against **real worker processes**: spawns two
//! `haqjsk-worker` binaries on ephemeral loopback ports, fans HAQJSK(A)
//! and HAQJSK(D) model Grams out over them, and checks byte identity
//! against the serial backend — then kills one process outright and
//! checks the pool still answers.
//!
//! Marked `#[ignore]` so the default `cargo test` stays hermetic and fast;
//! CI runs it explicitly (release build) with
//! `cargo test --release --test dist_process_smoke -- --ignored`.

use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::dist::{Coordinator, DistConfig};
use haqjsk::engine::BackendKind;
use haqjsk::graph::generators::{cycle_graph, erdos_renyi, star_graph};
use haqjsk::graph::Graph;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

struct WorkerProcess {
    child: Child,
    addr: String,
}

impl WorkerProcess {
    /// Spawns the worker binary on an ephemeral port and parses the bound
    /// address from its first stdout line.
    fn spawn(threads: usize) -> WorkerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_haqjsk-worker"))
            .arg("127.0.0.1:0")
            .env("HAQJSK_THREADS", threads.to_string())
            // The child must not try to join a distributed pool itself.
            .env_remove("HAQJSK_BACKEND")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn haqjsk-worker");
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

fn dataset() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..8 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(5 + i));
        graphs.push(erdos_renyi(6 + i, 0.35, i as u64));
        graphs.push(erdos_renyi(8 + i, 0.25, 50 + i as u64));
    }
    graphs
}

#[test]
#[ignore = "spawns worker processes; run explicitly (CI does, in release)"]
fn two_worker_processes_compute_byte_identical_grams_and_survive_a_kill() {
    let workers = [WorkerProcess::spawn(2), WorkerProcess::spawn(2)];
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let config = DistConfig {
        deadline: Duration::from_secs(30),
        ..DistConfig::default()
    };
    let coordinator =
        Arc::new(Coordinator::connect(&addrs, config).expect("connect to worker processes"));
    haqjsk::dist::set_coordinator(Some(Arc::clone(&coordinator)));

    // One model per variant, fitted once; the Grams alternate variants.
    let graphs = dataset();
    let models: Vec<HaqjskModel> = [
        HaqjskVariant::AlignedAdjacency,
        HaqjskVariant::AlignedDensity,
    ]
    .into_iter()
    .map(|variant| HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap())
    .collect();
    let gram = |model: &HaqjskModel, backend| -> Vec<u64> {
        let gram = model.gram_matrix_on(&graphs, Some(backend)).unwrap();
        gram.matrix().data().iter().map(|v| v.to_bits()).collect()
    };
    let serial: Vec<Vec<u64>> = models
        .iter()
        .map(|model| gram(model, BackendKind::Serial))
        .collect();
    for (model, serial) in models.iter().zip(&serial) {
        assert_eq!(&gram(model, BackendKind::Distributed), serial);
    }
    let stats = coordinator.stats();
    let completed: usize = stats.workers.iter().map(|w| w.tiles_completed).sum();
    assert!(completed > 0, "worker processes computed tiles: {stats:?}");
    assert!(
        stats.workers.iter().all(|w| w.tiles_completed > 0),
        "both processes participated: {stats:?}"
    );

    // Kill one process outright; the next Grams must still be byte-exact
    // (survivor + local fallback) and must not hang.
    let mut workers = workers;
    workers[0].child.kill().expect("kill worker process");
    workers[0].child.wait().expect("reap worker process");
    for (model, serial) in models.iter().zip(&serial) {
        assert_eq!(
            &gram(model, BackendKind::Distributed),
            serial,
            "post-kill Gram drifted"
        );
    }

    haqjsk::dist::set_coordinator(None);
}
