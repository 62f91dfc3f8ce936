//! `metrics_check` — CI guard over the Prometheus exposition.
//!
//! Launches the `haqjsk-serve` binary built into the same target directory,
//! drives one small fit over the wire so every layer records samples, then
//! scrapes the `metrics` op once and fails when:
//!
//! * the exposition does not survive the strict parser — malformed lines,
//!   missing or duplicate `# TYPE` declarations (a family registered twice
//!   with conflicting types can never render a single consistent TYPE
//!   line), non-cumulative histogram buckets, or a `+Inf` bucket that
//!   disagrees with `_count`; or
//! * any of the engine / cache / dist / serve metric families is absent
//!   from the single scrape.
//!
//! It then exercises the HTTP observability sidecar over real sockets:
//! `GET /metrics` must parse under the same strict parser and carry every
//! typed family the wire-op scrape carried (the sidecar's own
//! `haqjsk_http_*` families are the only permitted additions), `GET
//! /healthz` must answer 200 while serving — and flip to 503 during a
//! `SIGTERM` drain, observed while a deliberately half-sent frame holds
//! the drain open.
//!
//! Usage: `cargo run --release --bin metrics_check`

use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, star_graph};
use haqjsk::obs::parse_exposition;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn fail(message: &str) -> ! {
    eprintln!("metrics_check: {message}");
    std::process::exit(1);
}

/// The serve process under test, killed on drop so a failing check never
/// leaks a listener.
struct ServeProcess {
    child: std::process::Child,
    addr: String,
    http_addr: String,
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serve() -> ServeProcess {
    let bin = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .join("haqjsk-serve");
    if !bin.exists() {
        fail(&format!(
            "{} not found (build the workspace first: cargo build --release)",
            bin.display()
        ));
    }
    let mut child = std::process::Command::new(bin)
        .arg("127.0.0.1:0")
        .arg("--http-addr")
        .arg("127.0.0.1:0")
        .env_remove("HAQJSK_BACKEND")
        // Generous drain budget: the drain check below holds the drain
        // open deliberately and must release it before this expires.
        .env("HAQJSK_SERVE_DRAIN_MS", "30000")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn haqjsk-serve: {e}")));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    // Banner shapes: "haqjsk-serve listening on 127.0.0.1:PORT (...)",
    // then "haqjsk-serve http listening on 127.0.0.1:PORT".
    let mut banner_addr = |what: &str| {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(&format!("cannot read {what} banner: {e}")));
        line.split_whitespace()
            .find(|token| {
                token.contains(':')
                    && token
                        .rsplit(':')
                        .next()
                        .is_some_and(|p| p.parse::<u16>().is_ok())
            })
            .unwrap_or_else(|| fail(&format!("no {what} listen address in banner: {line:?}")))
            .to_string()
    };
    let addr = banner_addr("serve");
    let http_addr = banner_addr("http");
    ServeProcess {
        child,
        addr,
        http_addr,
    }
}

/// One blocking HTTP/1.1 GET over a fresh connection; returns the status
/// code and body.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to http {addr}: {e}")));
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: metrics-check\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .and_then(|()| stream.flush())
        .unwrap_or_else(|e| fail(&format!("http send failed: {e}")));
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut stream, &mut raw)
        .unwrap_or_else(|e| fail(&format!("http read failed: {e}")));
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or_else(|| fail(&format!("malformed http status line: {raw:?}")));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, body: &str) -> Json {
    stream
        .write_all(body.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("read failed: {e}")));
    let response =
        Json::parse(line.trim()).unwrap_or_else(|e| fail(&format!("malformed response: {e}")));
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        fail(&format!("request {body} failed: {response}"));
    }
    response
}

fn main() {
    let serve = spawn_serve();
    let stream = TcpStream::connect(&serve.addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {}: {e}", serve.addr)));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;

    // One small fit so the engine Gram and fit-phase histograms carry real
    // samples in the scrape.
    let graphs: Vec<Json> = (5..9)
        .flat_map(|n| {
            [
                graph_to_json(&cycle_graph(n)),
                graph_to_json(&star_graph(n)),
            ]
        })
        .collect();
    request(
        &mut stream,
        &mut reader,
        &format!(
            "{{\"cmd\":\"fit\",\"graphs\":{},\"variant\":\"A\",\"config\":{{\
             \"hierarchy_levels\":2,\"num_prototypes\":8,\"layer_cap\":3,\
             \"kmeans_max_iterations\":15}}}}",
            Json::Arr(graphs)
        ),
    );

    // The one scrape under test.
    let response = request(&mut stream, &mut reader, "{\"cmd\":\"metrics\"}");
    let text = response
        .get("prometheus")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("metrics response carries no 'prometheus' text"));
    let exposition = parse_exposition(text)
        .unwrap_or_else(|e| fail(&format!("unparseable exposition: {e}\n---\n{text}")));

    let required = [
        "haqjsk_gram_build_seconds",
        "haqjsk_kernel_gram_seconds",
        "haqjsk_eigen_batched_calls_total",
        "haqjsk_eigen_simd_path",
        "haqjsk_eigen_simd_calls_total",
        "haqjsk_dist_grams_total",
        "haqjsk_dist_workers",
        "haqjsk_serve_requests_total",
        "haqjsk_serve_request_seconds",
        "haqjsk_serve_inflight",
        "haqjsk_fit_phase_seconds",
    ];
    for family in required {
        if !exposition.has_family(family) {
            fail(&format!("scrape is missing metric family {family}"));
        }
    }
    if !exposition.has_family("haqjsk_build_info") {
        fail("scrape is missing metric family haqjsk_build_info");
    }
    // The baselines keep no process-global cache, so none is exported.
    if let Some(family) = exposition
        .types
        .keys()
        .find(|f| f.starts_with("haqjsk_cache_"))
    {
        fail(&format!("scrape exports removed cache family {family}"));
    }

    // --- HTTP sidecar: /healthz then /metrics over real sockets. The
    // healthz request goes first so the sidecar's own haqjsk_http_*
    // families exist by the time /metrics snapshots the registry.
    let (status, body) = http_get(&serve.http_addr, "/healthz");
    if status != 200 || body.trim() != "ok" {
        fail(&format!(
            "GET /healthz while serving: {status} {body:?} (want 200 ok)"
        ));
    }
    let (status, http_text) = http_get(&serve.http_addr, "/metrics");
    if status != 200 {
        fail(&format!("GET /metrics: status {status} (want 200)"));
    }
    let http_exposition = parse_exposition(&http_text).unwrap_or_else(|e| {
        fail(&format!(
            "unparseable http exposition: {e}\n---\n{http_text}"
        ))
    });
    // Same families both ways: everything the wire op exposed must be in
    // the HTTP scrape, and the HTTP scrape may add only its own transport
    // families (the registry never shrinks, so no allowance the other way).
    for family in exposition.types.keys() {
        if !http_exposition.has_family(family) {
            fail(&format!(
                "http scrape is missing wire-scrape family {family}"
            ));
        }
    }
    for family in http_exposition.types.keys() {
        if !exposition.has_family(family) && !family.starts_with("haqjsk_http_") {
            fail(&format!(
                "http scrape grew unexpected non-http family {family}"
            ));
        }
    }
    if !http_exposition.has_family("haqjsk_http_requests_total") {
        fail("http scrape is missing its own family haqjsk_http_requests_total");
    }

    // --- SIGTERM drain: hold the drain open with a half-sent frame, then
    // watch /healthz flip to 503.
    let mut held = TcpStream::connect(&serve.addr)
        .unwrap_or_else(|e| fail(&format!("cannot open held connection: {e}")));
    held.write_all(b"{")
        .and_then(|()| held.flush())
        .unwrap_or_else(|e| fail(&format!("cannot half-send a frame: {e}")));
    let pid = serve.child.id();
    let killed = std::process::Command::new("kill")
        .arg(pid.to_string())
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot run kill: {e}")));
    if !killed.success() {
        fail(&format!("kill -TERM {pid} failed"));
    }
    let drain_seen = std::time::Instant::now();
    loop {
        let (status, body) = http_get(&serve.http_addr, "/healthz");
        if status == 503 && body.trim() == "draining" {
            break;
        }
        if drain_seen.elapsed() > std::time::Duration::from_secs(10) {
            fail(&format!(
                "GET /healthz never reported the drain: last answer {status} {body:?}"
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    // Release the drain and require a clean exit.
    drop(held);
    drop(stream);
    drop(reader);
    let mut serve = serve;
    let exit = serve
        .child
        .wait()
        .unwrap_or_else(|e| fail(&format!("cannot wait for drained serve: {e}")));
    if !exit.success() {
        fail(&format!("drained serve exited with {exit}"));
    }

    println!(
        "metrics_check: OK — {} samples across {} typed families; engine, cache, dist and serve all present in one scrape; http /metrics parse-identical ({} families) and /healthz flipped 200→503 through a SIGTERM drain",
        exposition.samples.len(),
        exposition.types.len(),
        http_exposition.types.len()
    );
}
