//! Integration tests of the HTTP observability sidecar mounted on the
//! production serving application, over real loopback sockets.
//!
//! * **Causal tracing acceptance.** A `fit` through a 2-worker distributed
//!   backend must leave one trace — a single `trace` id — linking the
//!   `serve_request` root span, at least one coordinator-side `dist_tile`
//!   span, and at least one worker-side span merged back over the wire
//!   (tagged with its worker's address in `src`), all observable in one
//!   `GET /traces` drain. Its one `dist.connect` span sits directly under
//!   the `serve_request` span. The same server's `GET /metrics` must survive
//!   the strict exposition parser.
//! * **Abuse battery.** The GET endpoint answers 404 on unknown paths,
//!   serves pipelined requests in order, rejects an oversized request line
//!   with 431 and a stalled header section with 408, and its connection
//!   gauge returns to baseline when the clients go away.
//! * **Configured limits.** The sidecar enforces the `ServingConfig` its
//!   `Serving` was built with: a connection over its cap gets one `503`.
//!
//! The span rings, the flight recorder and the coordinator slot are
//! process-global, so the tests serialise on one mutex.

use haqjsk::dist::{WorkerOptions, WorkerServer};
use haqjsk::engine::serve::{graph_to_json, ServeConfig};
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, star_graph};
use haqjsk::obs::parse_exposition;
use haqjsk::serving::{Serving, ServingConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serialises tests: the trace rings, flight recorder, HTTP connection
/// gauge and coordinator slot are all process-global.
fn global_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// One HTTP/1.1 GET over a fresh connection; returns status and body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to http listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send http request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read http response");
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("malformed status line: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

/// JSON-lines wire client against the serving port (same idiom as the
/// serve smoke test).
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

    fn expect_ok(&mut self, body: &str) -> Json {
        self.writer.write_all(body.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let response = Json::parse(line.trim()).expect("response is valid JSON");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {body} failed: {response}"
        );
        response
    }
}

/// Acceptance: one causal trace spans the serving request, the
/// coordinator's tile dispatches and the workers' merged spans — across
/// the dist wire — and is observable through `GET /traces`.
#[test]
fn one_trace_links_serve_request_to_distributed_worker_spans() {
    let _guard = global_lock().lock().unwrap_or_else(|p| p.into_inner());
    if !haqjsk::obs::trace_enabled() {
        return; // HAQJSK_TRACE=0: nothing to assert.
    }

    let servers: Vec<WorkerServer> = (0..2)
        .map(|_| {
            WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default())
                .expect("bind in-process worker")
        })
        .collect();
    let worker_addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    let serving = Serving::new(ServingConfig::from_env().expect("serving config"));
    let server = serving.spawn("127.0.0.1:0").expect("bind serving port");
    let http = serving
        .spawn_http("127.0.0.1:0")
        .expect("bind http sidecar");

    // Start from empty rings so the drain below holds only this test's
    // spans (the rings are process-global).
    let _ = haqjsk::obs::drain_trace_jsonl();

    let mut client = Client::connect(server.local_addr());
    let graphs: Vec<Json> = (5..9)
        .flat_map(|n| {
            [
                graph_to_json(&cycle_graph(n)),
                graph_to_json(&star_graph(n)),
            ]
        })
        .collect();
    let workers_json = Json::Arr(worker_addrs.iter().cloned().map(Json::Str).collect());
    let fitted = client.expect_ok(&format!(
        "{{\"cmd\":\"fit\",\"graphs\":{},\"workers\":{workers_json},\"variant\":\"A\",\
         \"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":8,\"layer_cap\":3,\
         \"kmeans_max_iterations\":15}}}}",
        Json::Arr(graphs)
    ));
    assert_eq!(fitted.get("workers").and_then(Json::as_usize), Some(2));
    assert_eq!(
        fitted.get("workers_unreachable").and_then(Json::as_usize),
        Some(0)
    );

    // The distributed backend really ran: the pool completed tiles.
    let stats = client.expect_ok("{\"cmd\":\"stats\"}");
    let dist = stats.get("distributed").expect("distributed stats present");
    let completed: usize = dist
        .get("workers")
        .and_then(Json::as_array)
        .expect("per-worker stats")
        .iter()
        .map(|w| w.get("tiles_completed").and_then(Json::as_usize).unwrap())
        .sum();
    assert!(completed > 0, "no tiles reached the workers: {dist}");

    // The flight recorder names the fit's trace id.
    let (status, flight) = http_get(http.local_addr(), "/debug/requests");
    assert_eq!(status, 200, "/debug/requests: {flight}");
    let fit_trace = flight
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|entry| entry.get("op").and_then(Json::as_str) == Some("fit"))
        .and_then(|entry| {
            entry
                .get("trace")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .expect("flight recorder holds the fit with its trace id");

    // One /traces drain: the fit's trace must link all three layers.
    let (status, traces) = http_get(http.local_addr(), "/traces");
    assert_eq!(status, 200);
    let meta = Json::parse(traces.lines().next().expect("meta line")).expect("meta parses");
    assert_eq!(meta.get("kind").and_then(Json::as_str), Some("meta"));
    assert_eq!(meta.get("enabled").and_then(Json::as_bool), Some(true));
    let spans: Vec<Json> = traces
        .lines()
        .skip(1)
        .map(|line| Json::parse(line).expect("span line parses"))
        .filter(|span| span.get("trace").and_then(Json::as_str) == Some(&fit_trace))
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    assert!(
        named("serve_request") >= 1,
        "trace {fit_trace} misses its serving root span: {spans:?}"
    );
    assert!(
        named("dist_tile") >= 1,
        "trace {fit_trace} misses coordinator tile spans: {spans:?}"
    );
    // The worker-pool connect (with the install and the replaced
    // coordinator's drop) is one span under the fit's request span.
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_str).map(str::to_string);
    let connects: Vec<&Json> = spans
        .iter()
        .filter(|s| field(s, "name").as_deref() == Some("dist.connect"))
        .collect();
    assert_eq!(
        connects.len(),
        1,
        "trace {fit_trace} holds one dist.connect span: {spans:?}"
    );
    let parent = field(connects[0], "parent").expect("dist.connect has a parent span");
    let request_span = spans
        .iter()
        .find(|s| field(s, "span").as_deref() == Some(parent.as_str()))
        .expect("dist.connect's parent is in the fit's trace");
    assert_eq!(
        field(request_span, "name").as_deref(),
        Some("serve_request")
    );
    let merged_worker_spans = spans
        .iter()
        .filter(|s| {
            s.get("name").and_then(Json::as_str) == Some("worker_tile")
                && s.get("src")
                    .and_then(Json::as_str)
                    .is_some_and(|src| worker_addrs.iter().any(|a| a == src))
        })
        .count();
    assert!(
        merged_worker_spans >= 1,
        "trace {fit_trace} misses worker spans merged over the wire: {spans:?}"
    );

    // A second drain is empty of this trace (drains consume).
    let (_, again) = http_get(http.local_addr(), "/traces");
    assert!(
        !again.contains(&fit_trace),
        "spans of {fit_trace} survived their drain"
    );

    // The stock-format scrape parses strictly and carries build identity.
    let (status, text) = http_get(http.local_addr(), "/metrics");
    assert_eq!(status, 200);
    let exposition = parse_exposition(&text).expect("http /metrics parses strictly");
    assert!(exposition.has_family("haqjsk_build_info"));
    assert!(exposition.has_family("haqjsk_http_requests_total"));
    assert!(exposition.has_family("haqjsk_serve_requests_total"));

    let (status, body) = http_get(http.local_addr(), "/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));

    haqjsk::dist::set_coordinator(None);
    drop(servers);
    drop(server);
    drop(http);
}

/// Abuse battery against the production routes behind a short-timeout
/// listener: unknown paths, pipelining, an oversized request line, a
/// stalled header section, and the connection gauge's return to baseline.
#[test]
fn http_endpoint_survives_abuse_and_returns_to_baseline() {
    let _guard = global_lock().lock().unwrap_or_else(|p| p.into_inner());

    let serving = Serving::new(ServingConfig {
        serve: ServeConfig {
            io_timeout: Some(Duration::from_millis(300)),
            tick: Duration::from_millis(20),
            ..ServeConfig::default()
        },
        ..ServingConfig::from_env().expect("serving config")
    });
    let http = serving
        .spawn_http("127.0.0.1:0")
        .expect("bind http listener");
    let addr = http.local_addr();
    let baseline = http.active_connections();

    // Unknown path: 404, connection stays usable for the next request.
    let (status, body) = http_get(addr, "/definitely/not/a/route");
    assert_eq!(status, 404);
    assert_eq!(body.trim(), "not found");

    // Pipelined GETs in one packet: both answered, in order.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /debug/requests HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .expect("send pipelined requests");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("read both responses");
    assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 2, "{raw:?}");
    let healthz_at = raw.find("ok\n").expect("healthz body present");
    let flight_at = raw.find("\"kind\":\"meta\"").expect("flight body present");
    assert!(healthz_at < flight_at, "responses out of order: {raw:?}");
    drop(stream);

    // Oversized request line: 431 and a close, not a hang or a crash.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let long_path = "x".repeat(16 << 10);
    stream
        .write_all(format!("GET /{long_path} HTTP/1.1\r\n").as_bytes())
        .expect("send oversized request line");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read 431");
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw:?}");
    drop(stream);

    // Slow-loris: a request line then silence must 408 within the
    // listener's io timeout, not hold the connection forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        .expect("send partial head");
    let stalled = Instant::now();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read 408");
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw:?}");
    assert!(
        stalled.elapsed() < Duration::from_secs(8),
        "408 took {:?}",
        stalled.elapsed()
    );
    drop(stream);

    // Every abused connection is gone: the gauge returns to baseline.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if http.active_connections() == baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections never returned to baseline {baseline}: {}",
            http.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The sidecar obeys the `ServingConfig` of its `Serving`, not only the
/// environment: with `max_conns = 1`, a second concurrent connection gets
/// one `503` and a clean close, and the slot frees when the first leaves.
#[test]
fn http_sidecar_enforces_its_serving_config_connection_cap() {
    let _guard = global_lock().lock().unwrap_or_else(|p| p.into_inner());

    let serving = Serving::new(ServingConfig {
        serve: ServeConfig {
            max_conns: 1,
            tick: Duration::from_millis(20),
            ..ServeConfig::default()
        },
        ..ServingConfig::default()
    });
    let http = serving
        .spawn_http("127.0.0.1:0")
        .expect("bind http listener");
    let addr = http.local_addr();

    // A keep-alive client holds the only slot.
    let mut first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    first
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send keep-alive request");
    let mut status = [0u8; 13];
    first.read_exact(&mut status).expect("healthz answered");
    assert_eq!(&status, b"HTTP/1.1 200 ");
    assert_eq!(http.active_connections(), 1);

    // The second concurrent connection: one 503, then a clean close.
    let mut second = TcpStream::connect(addr).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut raw = String::new();
    second
        .read_to_string(&mut raw)
        .expect("clean close after the 503");
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw:?}");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "{raw:?}");
    assert!(raw.ends_with("\r\n\r\nbusy\n"), "{raw:?}");

    // Once the first client leaves, the slot serves again.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    while http.active_connections() > 0 {
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));
}
