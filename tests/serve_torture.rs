//! Wire-torture suite for the hardened serving stack: binary garbage,
//! oversized frames, half-written lines, pipelined requests, mid-request
//! disconnects, admission sheds and deadline trips thrown at the
//! production handler over real loopback sockets. The invariants: the
//! process never panics, every answered line is valid JSON in the uniform
//! error envelope, limits fire with the documented error strings, and the
//! corresponding metrics move.

use haqjsk::engine::serve::{graph_to_json, ServeConfig, Server};
use haqjsk::engine::{Engine, Json};
use haqjsk::graph::generators::{cycle_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::serving::{Serving, ServingConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    /// Reads one response line; `None` on a clean close.
    fn read_response(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("every answered line is valid JSON")),
            Err(_) => None,
        }
    }

    fn request(&mut self, body: &str) -> Json {
        self.send_raw(body.as_bytes());
        self.send_raw(b"\n");
        self.read_response().expect("response line")
    }
}

/// The uniform error envelope: `ok:false` plus a string `error`.
fn assert_error_envelope(response: &Json) -> String {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(false),
        "error envelope has ok:false: {response}"
    );
    response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("error envelope has a string 'error': {response}"))
        .to_string()
}

fn tight_config() -> ServingConfig {
    ServingConfig {
        serve: ServeConfig {
            max_conns: 64,
            max_frame_bytes: 64 * 1024,
            io_timeout: Some(Duration::from_millis(200)),
            tick: Duration::from_millis(10),
        },
        default_deadline: None,
        max_inflight_heavy: 4,
    }
}

fn spawn(config: ServingConfig) -> (Serving, Server) {
    let serving = Serving::new(config);
    let server = serving.spawn("127.0.0.1:0").expect("bind ephemeral port");
    (serving, server)
}

fn small_fit_request() -> String {
    let graphs: Vec<Graph> = (5..9)
        .flat_map(|n| [cycle_graph(n), star_graph(n)])
        .collect();
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    format!(
        "{{\"cmd\":\"fit\",\"graphs\":{graphs_json},\"variant\":\"A\",\
         \"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":6,\
         \"layer_cap\":2,\"kmeans_max_iterations\":8}}}}"
    )
}

#[test]
fn garbage_and_malformed_lines_get_error_envelopes() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    // Binary garbage (invalid UTF-8, no JSON structure).
    client.send_raw(&[0xff, 0xfe, 0x00, 0x9b, 0x7f, b'\n']);
    let error = assert_error_envelope(&client.read_response().expect("answered"));
    assert!(error.contains("malformed"), "got: {error}");

    // Structured-looking but invalid JSON.
    client.send_raw(b"{\"cmd\": \n");
    let error = assert_error_envelope(&client.read_response().expect("answered"));
    assert!(error.contains("malformed"), "got: {error}");

    // Valid JSON, meaningless command.
    let response = client.request("{\"cmd\":\"launch_missiles\"}");
    let error = assert_error_envelope(&response);
    assert!(error.contains("unknown command"), "got: {error}");

    // Valid JSON, no command at all.
    let response = client.request("[1,2,3]");
    assert_error_envelope(&response);

    // The connection survived all of it.
    let response = client.request("{\"cmd\":\"ping\"}");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn oversized_graph_is_rejected_and_the_server_keeps_answering() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());
    let fitted = client.request(&small_fit_request());
    assert_eq!(fitted.get("ok").and_then(Json::as_bool), Some(true));

    // A ~60-byte line declaring 10^12 vertices: allocating that graph
    // would abort the process, so it must be refused before allocation.
    let huge = r#"{"cmd":"transform","graph":{"n":1000000000000,"edges":[]}}"#;
    let error = assert_error_envelope(&client.request(huge));
    assert!(error.contains("limit"), "got: {error}");
    let huge_fit = r#"{"cmd":"fit","graphs":[{"n":20000,"edges":[]}],"variant":"A"}"#;
    let error = assert_error_envelope(&client.request(huge_fit));
    assert!(error.contains("limit"), "got: {error}");

    let response = client.request(r#"{"cmd":"ping"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn malformed_model_loads_are_refused_and_the_server_keeps_answering() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.request(&small_fit_request()).get("ok"),
        Some(&Json::Bool(true))
    );
    let saved = client.request(r#"{"cmd":"save"}"#);
    let text = saved.get("model").and_then(Json::as_str).unwrap();
    let line = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).unwrap();
    let with = |prefix: &str, new: &str| text.replacen(line(prefix), new, 1);
    let config = line("config ");
    let mu = |mu: &str| format!("{} {mu}", &config[..config.rfind(' ').unwrap()]);
    for bad in [
        with("level 1 ", "level 1 100000000000000000"),
        with("level 1 ", "level 1 1000000000000000000"),
        with("proto ", "proto"),
        with("proto ", "proto NaN"),
        with("max_layers ", "max_layers 0"),
        with("config ", &mu("-1")),
        with("config ", &mu("NaN")),
    ] {
        let load = Json::obj([("cmd", Json::Str("load".into())), ("model", Json::Str(bad))]);
        let error = assert_error_envelope(&client.request(&load.to_string()));
        assert!(error.contains("model parse error"), "got: {error}");
    }
    let response = client.request(r#"{"cmd":"ping"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn an_unbounded_hierarchy_fit_is_refused_and_the_server_keeps_answering() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());
    // Sizing the prototype hierarchy from this count would abort the
    // process on a 24-petabyte allocation.
    let fit = small_fit_request().replace(
        "\"hierarchy_levels\":2",
        "\"hierarchy_levels\":1000000000000000",
    );
    let error = assert_error_envelope(&client.request(&fit));
    assert!(error.contains("hierarchy_levels"), "got: {error}");
    let response = client.request(r#"{"cmd":"ping"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn wrong_typed_fields_are_errors_that_name_the_field() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());
    let fit = small_fit_request();
    for (from, to, field) in [
        (
            "\"kmeans_max_iterations\":8",
            "\"kmeans_max_iterations\":8,\"mu\":\"0.5\"",
            "mu",
        ),
        (
            "\"hierarchy_levels\":2",
            "\"hierarchy_levels\":\"x\"",
            "hierarchy_levels",
        ),
        ("\"layer_cap\":2", "\"layer_cap\":-2", "layer_cap"),
        (
            "\"kmeans_max_iterations\":8",
            "\"kmeans_max_iterations\":8,\"small\":\"no\"",
            "small",
        ),
        (
            "\"kmeans_max_iterations\":8",
            "\"kmeans_max_iterations\":8,\"cache_budget_bytes\":\"1MB\"",
            "cache_budget_bytes",
        ),
        ("\"variant\":\"A\"", "\"variant\":5", "variant"),
    ] {
        assert!(fit.contains(from));
        let error = assert_error_envelope(&client.request(&fit.replacen(from, to, 1)));
        assert!(error.contains(field), "{to}: got {error}");
    }
    let error = assert_error_envelope(
        &client.request(r#"{"cmd":"fit","graphs":[{"n":3,"edges":[[0,1]]}],"config":5}"#),
    );
    assert!(error.contains("config"), "got: {error}");

    let graph = graph_to_json(&cycle_graph(6));
    // A model fitted without labels refuses a label rather than dropping it.
    assert_eq!(client.request(&fit).get("ok"), Some(&Json::Bool(true)));
    let append = |label: &str| format!("{{\"cmd\":\"append\",\"graph\":{graph}{label}}}");
    let error = assert_error_envelope(&client.request(&append(",\"label\":7")));
    assert!(error.contains("label"), "got: {error}");
    let appended = client.request(&append(""));
    assert_eq!(appended.get("num_graphs").and_then(Json::as_usize), Some(9));

    // A labelled model names a malformed label instead of calling it absent.
    let labelled = fit.replacen("\"variant\"", "\"labels\":[0,1,0,1,0,1,0,1],\"variant\"", 1);
    assert_eq!(client.request(&labelled).get("ok"), Some(&Json::Bool(true)));
    let error = assert_error_envelope(&client.request(&append(",\"label\":-1")));
    assert!(error.contains("'label' must be"), "got: {error}");
    let appended = client.request(&append(",\"label\":1"));
    assert_eq!(appended.get("num_graphs").and_then(Json::as_usize), Some(9));
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_with_metric_delta() {
    let before = haqjsk::obs::registry()
        .snapshot()
        .counter_value("haqjsk_serve_frames_oversized_total", &[])
        .unwrap_or(0);
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    // A frame well past the 64 KiB cap, no newline anywhere.
    let huge = vec![b'a'; 256 * 1024];
    client.send_raw(&huge);
    client.send_raw(b"\n");
    let error = assert_error_envelope(&client.read_response().expect("error line before close"));
    assert!(error.contains("frame too large"), "got: {error}");
    assert!(client.read_response().is_none(), "connection closed");

    let after = haqjsk::obs::registry()
        .snapshot()
        .counter_value("haqjsk_serve_frames_oversized_total", &[])
        .unwrap_or(0);
    assert!(
        after > before,
        "oversized counter moved: {before} -> {after}"
    );
    server.shutdown();
}

#[test]
fn half_written_line_times_out_with_metric_delta() {
    let before = haqjsk::obs::registry()
        .snapshot()
        .counter_value("haqjsk_serve_io_timeouts_total", &[])
        .unwrap_or(0);
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    // Half a request, then silence: the slow-loris defense must cut in.
    client.send_raw(b"{\"cmd\":\"pi");
    let error = assert_error_envelope(&client.read_response().expect("timeout error line"));
    assert!(error.contains("timed out"), "got: {error}");
    assert!(client.read_response().is_none(), "connection closed");

    let after = haqjsk::obs::registry()
        .snapshot()
        .counter_value("haqjsk_serve_io_timeouts_total", &[])
        .unwrap_or(0);
    assert!(
        after > before,
        "io-timeout counter moved: {before} -> {after}"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_all_answered_in_order() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    // A burst of pings and nonsense in one write; every line answered, in
    // order, each one valid JSON.
    let mut burst = String::new();
    for _ in 0..10 {
        burst.push_str("{\"cmd\":\"ping\"}\n");
        burst.push_str("not json at all\n");
    }
    client.send_raw(burst.as_bytes());
    for i in 0..10 {
        let pong = client.read_response().expect("pong line");
        assert_eq!(
            pong.get("pong").and_then(Json::as_bool),
            Some(true),
            "burst item {i}"
        );
        let error = client.read_response().expect("error line");
        assert_error_envelope(&error);
    }
    server.shutdown();
}

#[test]
fn mid_request_disconnects_do_not_wedge_the_server() {
    let (_serving, mut server) = spawn(tight_config());

    // A crowd of clients that hang up at every awkward moment.
    for _ in 0..8 {
        // Partial frame, then vanish.
        let mut c = Client::connect(server.local_addr());
        c.send_raw(b"{\"cmd\":\"st");
        drop(c);
        // Full request, gone before reading the answer.
        let mut c = Client::connect(server.local_addr());
        c.send_raw(b"{\"cmd\":\"stats\"}\n");
        drop(c);
        // Connect and say nothing.
        let c = Client::connect(server.local_addr());
        drop(c);
    }

    // The server still answers, and the connection guards drain back to
    // zero (no leaked threads pinning the gauge).
    let mut client = Client::connect(server.local_addr());
    let response = client.request("{\"cmd\":\"ping\"}");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.active_connections(),
        0,
        "active connections back to baseline"
    );
    server.shutdown();
}

#[test]
fn admission_control_sheds_heavy_ops_but_cheap_ops_answer() {
    // A zero high-water mark sheds every heavy request deterministically.
    let config = ServingConfig {
        max_inflight_heavy: 0,
        ..tight_config()
    };
    let before = {
        let snapshot = haqjsk::obs::registry().snapshot();
        snapshot
            .family("haqjsk_serve_rejected_total")
            .iter()
            .map(|e| match &e.value {
                haqjsk::obs::MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum::<u64>()
    };
    let (_serving, mut server) = spawn(config);
    let mut client = Client::connect(server.local_addr());

    for cmd in ["fit", "transform", "kernel_row", "append", "predict"] {
        let response = client.request(&format!("{{\"cmd\":\"{cmd}\"}}"));
        let error = assert_error_envelope(&response);
        assert!(error.contains("overloaded"), "{cmd}: {error}");
        assert_eq!(
            response.get("rejected").and_then(Json::as_str),
            Some("overloaded"),
            "{cmd} carries the shed marker"
        );
    }

    // Cheap ops keep answering while everything heavy sheds.
    for cmd in ["ping", "stats", "metrics"] {
        let response = client.request(&format!("{{\"cmd\":\"{cmd}\"}}"));
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{cmd} stayed available"
        );
    }

    let after = {
        let snapshot = haqjsk::obs::registry().snapshot();
        snapshot
            .family("haqjsk_serve_rejected_total")
            .iter()
            .map(|e| match &e.value {
                haqjsk::obs::MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum::<u64>()
    };
    assert!(
        after >= before + 5,
        "rejected counters moved: {before} -> {after}"
    );
    server.shutdown();
}

/// Sets its flag when dropped, so a failing assertion still ends a hold
/// that a scoped thread is waiting on.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn busy_pool_workers_do_not_shed_closed_loop_predicts() {
    // Admission counts heavy requests in flight, never the pool's queue:
    // with every pool worker held by work that is not a served request,
    // each predict runs on its caller and leaves its helper jobs queued,
    // yet one request at a time stays far under the cap.
    let config = ServingConfig::default();
    let requests = 2 * config.max_inflight_heavy + 1;
    let serving = Serving::new(config);
    // 64 graphs: a predict row spans at least `threads` lane-width chunks.
    let graphs: Vec<Graph> = (5..37)
        .flat_map(|n| [cycle_graph(n), star_graph(n)])
        .collect();
    let fit = Json::obj([
        ("cmd", Json::Str("fit".into())),
        (
            "graphs",
            Json::Arr(graphs.iter().map(graph_to_json).collect()),
        ),
        (
            "labels",
            Json::Arr(
                (0..graphs.len())
                    .map(|i| Json::Num((i % 2) as f64))
                    .collect(),
            ),
        ),
        ("variant", Json::Str("A".into())),
        (
            "config",
            Json::obj([
                ("hierarchy_levels", Json::Num(2.0)),
                ("num_prototypes", Json::Num(6.0)),
                ("layer_cap", Json::Num(2.0)),
                ("kmeans_max_iterations", Json::Num(8.0)),
            ]),
        ),
    ]);
    let fitted = serving.handle(&fit);
    assert_eq!(
        fitted.get("ok").and_then(Json::as_bool),
        Some(true),
        "{fitted}"
    );
    let predict = Json::obj([
        ("cmd", Json::Str("predict".into())),
        ("graph", graph_to_json(&cycle_graph(9))),
    ]);

    let pool = Engine::global().pool();
    let holders = pool.threads() + 1;
    let started = AtomicUsize::new(0);
    let released = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Every pool worker plus the dispatching thread hold one index
        // each until the flag is set: no timer ends the hold.
        scope.spawn(|| {
            pool.scoped_run(holders, &|_| {
                started.fetch_add(1, Ordering::AcqRel);
                while !released.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        let _release = Release(&released);
        while started.load(Ordering::Acquire) < holders {
            std::thread::sleep(Duration::from_millis(1));
        }
        let refused: Vec<(usize, Json)> = (1..=requests)
            .map(|i| (i, serving.handle(&predict)))
            .filter(|(_, reply)| reply.get("ok").and_then(Json::as_bool) != Some(true))
            .collect();
        let health = serving.http_respond("/healthz");
        assert!(
            refused.is_empty() && health.status == 200,
            "{} of {requests} predicts refused beside busy pool workers \
             (first: {:?}); /healthz {} {:?}",
            refused.len(),
            refused.first(),
            health.status,
            health.body
        );
    });
}

#[test]
fn deadline_zero_trips_with_the_distinct_envelope() {
    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    // Fit something so heavy ops get past the "no model" error.
    let fit = client.request(&small_fit_request());
    assert_eq!(fit.get("ok").and_then(Json::as_bool), Some(true));

    let graph = graph_to_json(&cycle_graph(6));
    let response = client.request(&format!(
        "{{\"cmd\":\"kernel_row\",\"graph\":{graph},\"deadline_ms\":0}}"
    ));
    let error = assert_error_envelope(&response);
    assert!(error.contains("deadline exceeded"), "got: {error}");
    assert_eq!(
        response.get("rejected").and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    // Without the zero deadline the same request succeeds.
    let response = client.request(&format!("{{\"cmd\":\"kernel_row\",\"graph\":{graph}}}"));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    // The deadline-exceeded counter moved for the op.
    let count = haqjsk::obs::registry()
        .snapshot()
        .counter_value(
            "haqjsk_serve_deadline_exceeded_total",
            &[("op", "kernel_row")],
        )
        .unwrap_or(0);
    assert!(count >= 1, "deadline counter recorded: {count}");
    server.shutdown();
}

#[test]
fn drain_op_stops_accepts_and_finishes_in_flight() {
    let (serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());

    assert!(!serving.drain_requested());
    let response = client.request("{\"cmd\":\"drain\"}");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("draining").and_then(Json::as_bool), Some(true));
    assert!(serving.drain_requested(), "handler observed the drain");

    // The host process would now call Server::drain; emulate it.
    let report = server.drain(Duration::from_secs(5));
    assert!(report.drained, "drain completed: {report:?}");
    assert_eq!(server.active_connections(), 0);
}

#[test]
fn save_file_and_load_file_roundtrip_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("haqjsk-serve-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.haqjsk");
    let path_str = path.to_str().unwrap();

    let (_serving, mut server) = spawn(tight_config());
    let mut client = Client::connect(server.local_addr());
    let fit = client.request(&small_fit_request());
    assert_eq!(fit.get("ok").and_then(Json::as_bool), Some(true));

    // Save to disk; the response reports the artifact id of the bytes.
    let response = client.request(&format!(
        "{{\"cmd\":\"save_file\",\"path\":\"{path_str}\"}}"
    ));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let artifact = response
        .get("artifact_id")
        .and_then(Json::as_str)
        .expect("artifact id")
        .to_string();
    assert_eq!(artifact.len(), 32);

    // In-memory `save` and the file agree on content (the file adds only
    // the checksum footer).
    let save = client.request("{\"cmd\":\"save\"}");
    let text = save.get("model").and_then(Json::as_str).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert!(on_disk.starts_with(text));
    assert!(on_disk.contains("\nchecksum "));

    // Reload through the wire; the served model answers identically.
    let graph = graph_to_json(&star_graph(6));
    let row_before = client.request(&format!("{{\"cmd\":\"kernel_row\",\"graph\":{graph}}}"));
    let response = client.request(&format!(
        "{{\"cmd\":\"load_file\",\"path\":\"{path_str}\"}}"
    ));
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "load_file: {response}"
    );
    // The restored model has no training graphs (none were sent), so
    // kernel_row yields an empty row — but transform still works and the
    // model text round-trips byte-identically.
    let save_again = client.request("{\"cmd\":\"save\"}");
    assert_eq!(
        save_again.get("model").and_then(Json::as_str),
        Some(text),
        "model text survives the disk roundtrip byte-identically"
    );
    drop(row_before);

    // Corruption detection over the wire: flip a byte, load_file fails.
    let mut bytes = std::fs::read(&path).unwrap();
    let idx = bytes.len() / 3;
    bytes[idx] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    let response = client.request(&format!(
        "{{\"cmd\":\"load_file\",\"path\":\"{path_str}\"}}"
    ));
    let error = assert_error_envelope(&response);
    assert!(
        error.contains("checksum mismatch") || error.contains("parse"),
        "got: {error}"
    );

    // A missing file with a stray .tmp is reported as an interrupted save.
    let crashed = dir.join("crashed.haqjsk");
    std::fs::write(
        haqjsk::core::tmp_sibling(&crashed),
        b"haqjsk-model v1\ntorn",
    )
    .unwrap();
    let crashed_str = crashed.to_str().unwrap();
    let response = client.request(&format!(
        "{{\"cmd\":\"load_file\",\"path\":\"{crashed_str}\"}}"
    ));
    let error = assert_error_envelope(&response);
    assert!(error.contains("interrupted mid-write"), "got: {error}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
