//! Distributed smoke tests against **real worker processes**: spawn two
//! `haqjsk-worker` binaries on ephemeral loopback ports, then
//!
//! * fan HAQJSK(A) and HAQJSK(D) model Grams out over them, check byte
//!   identity against the serial backend, kill one process outright and
//!   check the pool still answers;
//! * start a release `haqjsk-serve` with `HAQJSK_BACKEND=dist:<a>,<b>`
//!   beside a plain one: a `fit` without `workers` builds its Gram on the
//!   startup pool, and the `fit`, `kernel_row`, `gram` and `save` replies
//!   match the plain server's byte for byte.
//!
//! Marked `#[ignore]` so the default `cargo test` stays hermetic and fast;
//! CI runs it explicitly (release build) with
//! `cargo test --release --test dist_process_smoke -- --ignored`.

use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::dist::{Coordinator, DistConfig};
use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::{BackendKind, Json};
use haqjsk::graph::generators::{cycle_graph, erdos_renyi, star_graph};
use haqjsk::graph::Graph;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
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

/// A `haqjsk-serve` process on an ephemeral port and one connection to it.
struct ServeProcess {
    child: Child,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeProcess {
    /// Spawns the server binary with `HAQJSK_BACKEND` set to `backend`
    /// (removed for `None`) and connects to the address its banner names.
    fn spawn(backend: Option<&str>) -> ServeProcess {
        let mut command = Command::new(env!("CARGO_BIN_EXE_haqjsk-serve"));
        command
            .arg("127.0.0.1:0")
            .env("HAQJSK_THREADS", "2")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match backend {
            Some(backend) => command.env("HAQJSK_BACKEND", backend),
            None => command.env_remove("HAQJSK_BACKEND"),
        };
        let mut child = command.spawn().expect("spawn haqjsk-serve");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read server banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected server banner: {banner:?}"))
            .to_string();
        let stream = TcpStream::connect(&addr).expect("connect to haqjsk-serve");
        stream.set_nodelay(true).expect("disable Nagle");
        ServeProcess {
            child,
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and returns its raw reply line, which must be
    /// `ok`.
    fn request(&mut self, body: &str) -> String {
        writeln!(self.writer, "{body}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let reply = Json::parse(line.trim()).expect("reply is valid JSON");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{body}: {line}"
        );
        line
    }
}

impl Drop for ServeProcess {
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
    let coordinator = Coordinator::connect(&addrs, config).expect("connect to worker processes");

    // One model per variant, fitted once; the Grams alternate variants.
    let graphs = dataset();
    let models: Vec<HaqjskModel> = [
        HaqjskVariant::AlignedAdjacency,
        HaqjskVariant::AlignedDensity,
    ]
    .into_iter()
    .map(|variant| HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap())
    .collect();
    let bits = |values: &[f64]| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
    let serial: Vec<Vec<u64>> = models
        .iter()
        .map(|model| {
            let gram = model.gram_matrix_on(&graphs, Some(BackendKind::Serial));
            bits(gram.unwrap().matrix().data())
        })
        .collect();
    let distributed = |model: &HaqjskModel| -> Vec<u64> {
        let transforms = model.transform_all(&graphs).unwrap();
        bits(
            coordinator
                .model_gram(model, &graphs, &transforms)
                .unwrap()
                .data(),
        )
    };
    for (model, serial) in models.iter().zip(&serial) {
        assert_eq!(&distributed(model), serial);
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
        assert_eq!(&distributed(model), serial, "post-kill Gram drifted");
    }
}

#[test]
#[ignore = "spawns worker and server processes; run explicitly (CI does, in release)"]
fn a_dist_server_fits_on_its_startup_workers_with_plain_server_bytes() {
    let workers = [WorkerProcess::spawn(2), WorkerProcess::spawn(2)];
    let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let mut dist = ServeProcess::spawn(Some(&format!("dist:{}", addrs.join(","))));
    let mut plain = ServeProcess::spawn(None);

    let graphs = Json::Arr(dataset().iter().map(graph_to_json).collect());
    let mut requests = vec![format!(
        "{{\"cmd\":\"fit\",\"graphs\":{graphs},\"variant\":\"D\",\
         \"config\":{{\"hierarchy_levels\":3,\"num_prototypes\":32,\"layer_cap\":4}}}}"
    )];
    for query in [cycle_graph(12), erdos_renyi(9, 0.4, 77)] {
        let query = graph_to_json(&query);
        requests.push(format!("{{\"cmd\":\"kernel_row\",\"graph\":{query}}}"));
    }
    requests.push("{\"cmd\":\"gram\"}".to_string());
    requests.push("{\"cmd\":\"save\"}".to_string());
    for request in &requests {
        assert_eq!(dist.request(request), plain.request(request), "{request}");
    }

    let stats = Json::parse(dist.request("{\"cmd\":\"stats\"}").trim()).unwrap();
    let pool = stats
        .get("distributed")
        .expect("stats reports the startup pool");
    let committed = pool.get("tiles_committed").and_then(Json::as_usize);
    assert!(
        committed > Some(0),
        "the fit's tiles ran on the workers: {pool}"
    );
}
