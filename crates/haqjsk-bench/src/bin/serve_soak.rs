//! `serve_soak` — CI overload soak for the hardened serving frontend.
//!
//! Launches the release `haqjsk-serve` binary with deliberately tiny
//! limits, then abuses it the way a bad day in production would:
//!
//! 1. opens more connections than `HAQJSK_SERVE_MAX_CONNS` and checks
//!    every over-cap connection gets exactly one well-formed
//!    `{"ok":false,"error":"overloaded"}` line and a clean close;
//! 2. parks a slow-loris client mid-frame and checks the I/O timeout cuts
//!    it off with the documented error;
//! 3. keeps `ping`/`metrics` latency bounded while the abuse is running;
//! 4. fits a model, saves it with `save_file`, and checks the file
//!    reloads byte-identically after the server is gone;
//! 5. checks the active-connections gauge returns to baseline (no thread
//!    leak) once the abusive clients disconnect;
//! 6. fills the HTTP sidecar (`--http-addr`) past the same cap and checks
//!    every over-cap connection gets exactly one `503` and a clean close,
//!    and `haqjsk_http_active_connections` returns to baseline;
//! 7. sends SIGTERM mid-run and checks the server drains and exits 0
//!    within the drain deadline.
//!
//! Usage: `cargo run --release -p haqjsk-bench --bin serve_soak`

use haqjsk_engine::serve::graph_to_json;
use haqjsk_engine::Json;
use haqjsk_graph::generators::{cycle_graph, star_graph};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const MAX_CONNS: usize = 8;
const IO_TIMEOUT_MS: u64 = 700;
const DRAIN_MS: u64 = 8000;

fn fail(message: &str) -> ! {
    eprintln!("serve_soak: FAIL — {message}");
    std::process::exit(1);
}

struct ServeProcess {
    child: std::process::Child,
    addr: String,
    /// The HTTP sidecar's address, when spawned with one.
    http_addr: Option<String>,
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `host:port` token of a listening banner line.
fn banner_addr(line: &str) -> String {
    line.split_whitespace()
        .find(|token| {
            token.contains(':')
                && token
                    .rsplit(':')
                    .next()
                    .is_some_and(|p| p.parse::<u16>().is_ok())
        })
        .unwrap_or_else(|| fail(&format!("no listen address in banner: {line:?}")))
        .to_string()
}

fn spawn_serve(model_path: &std::path::Path, with_http: bool) -> ServeProcess {
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
    let mut command = std::process::Command::new(bin);
    command.arg("127.0.0.1:0").arg("--model").arg(model_path);
    if with_http {
        command.args(["--http-addr", "127.0.0.1:0"]);
    }
    let mut child = command
        .env_remove("HAQJSK_BACKEND")
        .env("HAQJSK_SERVE_MAX_CONNS", MAX_CONNS.to_string())
        .env("HAQJSK_SERVE_IO_TIMEOUT_MS", IO_TIMEOUT_MS.to_string())
        .env("HAQJSK_SERVE_DRAIN_MS", DRAIN_MS.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn haqjsk-serve: {e}")));
    // Banner shape: "haqjsk-serve listening on 127.0.0.1:PORT (...)",
    // then "haqjsk-serve http listening on 127.0.0.1:PORT" with a sidecar.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = || {
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(&format!("cannot read serve banner: {e}")));
        banner_addr(&line)
    };
    let addr = banner();
    let http_addr = with_http.then(banner);
    ServeProcess {
        child,
        addr,
        http_addr,
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream =
            TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn read_line(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(
                Json::parse(line.trim())
                    .unwrap_or_else(|e| fail(&format!("invalid JSON line {line:?}: {e}"))),
            ),
            Err(_) => None,
        }
    }

    fn request(&mut self, body: &str) -> Json {
        self.writer
            .write_all(body.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
        self.read_line()
            .unwrap_or_else(|| fail(&format!("connection closed answering {body}")))
    }

    fn expect_ok(&mut self, body: &str) -> Json {
        let response = self.request(body);
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            fail(&format!("request {body} failed: {response}"));
        }
        response
    }
}

/// Sends one keep-alive `GET /healthz` and returns the connection once the
/// status line is back (the sidecar has registered it).
fn http_occupant(addr: &str) -> TcpStream {
    let mut stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect http {addr}: {e}")));
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n")
        .unwrap_or_else(|e| fail(&format!("http send: {e}")));
    let mut status = [0u8; 12];
    match stream.read_exact(&mut status) {
        Ok(()) if &status == b"HTTP/1.1 200" => stream,
        other => fail(&format!(
            "http occupant not answered with 200: {other:?} {:?}",
            String::from_utf8_lossy(&status)
        )),
    }
}

/// The registry's `haqjsk_http_active_connections`, read over the
/// JSON-lines wire so that reading it opens no HTTP connection (absent
/// before the first HTTP connection: 0).
fn http_active_connections(control: &mut Client) -> f64 {
    let metrics = control.expect_ok("{\"cmd\":\"metrics\"}");
    let text = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("metrics carries no prometheus text"));
    text.lines()
        .find_map(|line| line.strip_prefix("haqjsk_http_active_connections "))
        .map_or(0.0, |v| {
            v.trim()
                .parse()
                .unwrap_or_else(|e| fail(&format!("bad gauge value {v:?}: {e}")))
        })
}

fn fit_request() -> String {
    let graphs: Vec<Json> = (5..9)
        .flat_map(|n| {
            [
                graph_to_json(&cycle_graph(n)),
                graph_to_json(&star_graph(n)),
            ]
        })
        .collect();
    format!(
        "{{\"cmd\":\"fit\",\"graphs\":{},\"variant\":\"A\",\"config\":{{\
         \"hierarchy_levels\":2,\"num_prototypes\":6,\"layer_cap\":2,\
         \"kmeans_max_iterations\":8}}}}",
        Json::Arr(graphs)
    )
}

fn main() {
    let dir = std::env::temp_dir().join(format!("haqjsk-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("mkdir scratch: {e}")));
    let model_path = dir.join("soak-model.haqjsk");

    let mut serve = spawn_serve(&model_path, true);
    let mut control = Client::connect(&serve.addr);
    control.expect_ok("{\"cmd\":\"ping\"}");

    // --- Phase 1: connection-cap sheds. Fill the cap with idle keepalive
    // connections, then check every connection past it is shed with one
    // well-formed overloaded line and a clean close.
    let mut occupants = Vec::new();
    while occupants.len() + 1 < MAX_CONNS {
        let mut c = Client::connect(&serve.addr);
        c.expect_ok("{\"cmd\":\"ping\"}");
        occupants.push(c);
    }
    let mut sheds = 0;
    for _ in 0..6 {
        let mut extra = Client::connect(&serve.addr);
        let Some(line) = extra.read_line() else {
            // The accept loop may have raced a disconnect; a plain close
            // with no line is not a valid shed.
            fail("over-cap connection closed without the overloaded line");
        };
        if line.get("ok").and_then(Json::as_bool) != Some(false)
            || line.get("error").and_then(Json::as_str) != Some("overloaded")
        {
            fail(&format!("malformed shed line: {line}"));
        }
        if extra.read_line().is_some() {
            fail("shed connection was not closed after the overloaded line");
        }
        sheds += 1;
    }

    // --- Phase 2: slow-loris client parked mid-frame while the cap is
    // still mostly occupied; ping/metrics latency must stay bounded the
    // whole time, and the loris gets cut off by the I/O timeout.
    drop(occupants.pop()); // free one slot for the loris
    let mut loris = Client::connect(&serve.addr);
    loris
        .writer
        .write_all(b"{\"cmd\":\"fi")
        .and_then(|()| loris.writer.flush())
        .unwrap_or_else(|e| fail(&format!("loris send: {e}")));

    let probe_start = Instant::now();
    let mut probes = 0;
    while probe_start.elapsed() < Duration::from_millis(IO_TIMEOUT_MS + 300) {
        let t = Instant::now();
        control.expect_ok("{\"cmd\":\"ping\"}");
        control.expect_ok("{\"cmd\":\"metrics\"}");
        if t.elapsed() > Duration::from_secs(5) {
            fail(&format!(
                "cheap ops stalled under abuse: ping+metrics took {:?}",
                t.elapsed()
            ));
        }
        probes += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    let cutoff = loris
        .read_line()
        .unwrap_or_else(|| fail("slow-loris connection closed without the timeout error line"));
    let error = cutoff.get("error").and_then(Json::as_str).unwrap_or("");
    if !error.contains("timed out") {
        fail(&format!("unexpected loris cutoff line: {cutoff}"));
    }
    if loris.read_line().is_some() {
        fail("loris connection stayed open after the timeout");
    }

    // --- Phase 3: fit + crash-safe save while serving.
    control.expect_ok(&fit_request());
    let path_str = model_path.to_str().expect("utf-8 scratch path");
    control.expect_ok(&format!(
        "{{\"cmd\":\"save_file\",\"path\":\"{path_str}\"}}"
    ));
    let saved_bytes =
        std::fs::read(&model_path).unwrap_or_else(|e| fail(&format!("read saved model: {e}")));
    let saved_text = String::from_utf8(saved_bytes.clone())
        .unwrap_or_else(|e| fail(&format!("saved model not UTF-8: {e}")));
    haqjsk_core::model_from_string(&saved_text)
        .unwrap_or_else(|e| fail(&format!("saved model does not reload: {e}")));

    // --- Phase 4: no thread leak — with all abusive clients gone, the
    // active-connections gauge returns to this client's baseline.
    drop(loris);
    occupants.clear();
    let baseline_deadline = Instant::now() + Duration::from_secs(10);
    let mut active = f64::MAX;
    while Instant::now() < baseline_deadline {
        let stats = control.expect_ok("{\"cmd\":\"stats\"}");
        active = stats
            .get("active_connections")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail("stats carries no active_connections"));
        if active <= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if active > 1.0 {
        fail(&format!(
            "active connections stuck at {active} after clients disconnected"
        ));
    }

    // --- Phase 5: the HTTP sidecar sheds at the same cap: fill it with
    // keep-alive scrapers, check every connection past it gets exactly one
    // 503 and a clean close, then that the sidecar's connection gauge
    // returns to baseline once the scrapers leave.
    let http_addr = serve.http_addr.clone().expect("spawned with a sidecar");
    let http_baseline = http_active_connections(&mut control);
    let scrapers: Vec<TcpStream> = (0..MAX_CONNS).map(|_| http_occupant(&http_addr)).collect();
    let mut http_sheds = 0;
    for _ in 0..6 {
        let mut extra = TcpStream::connect(&http_addr)
            .unwrap_or_else(|e| fail(&format!("connect http {http_addr}: {e}")));
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut raw = String::new();
        if let Err(e) = extra.read_to_string(&mut raw) {
            fail(&format!("over-cap http connection not closed cleanly: {e}"));
        }
        if !raw.starts_with("HTTP/1.1 503 ")
            || raw.matches("HTTP/1.1 ").count() != 1
            || !raw.ends_with("\r\n\r\nbusy\n")
        {
            fail(&format!("malformed http shed: {raw:?}"));
        }
        http_sheds += 1;
    }
    drop(scrapers);
    let http_deadline = Instant::now() + Duration::from_secs(10);
    let mut http_active = f64::MAX;
    while Instant::now() < http_deadline {
        http_active = http_active_connections(&mut control);
        if http_active <= http_baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if http_active > http_baseline {
        fail(&format!(
            "http active connections stuck at {http_active} (baseline {http_baseline})"
        ));
    }

    // --- Phase 6: SIGTERM drains in-flight work, then the process exits 0.
    let pid = serve.child.id().to_string();
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot send SIGTERM: {e}")));
    if !status.success() {
        fail("kill -TERM failed");
    }
    // The draining server must still answer the in-flight/open client...
    let drained_response = control.request("{\"cmd\":\"ping\"}");
    if drained_response.get("ok").and_then(Json::as_bool) != Some(true) {
        fail(&format!(
            "in-flight request dropped during drain: {drained_response}"
        ));
    }
    // ...then close the (now idle) connection as part of the drain.
    let mut rest = String::new();
    let _ = control.reader.read_to_string(&mut rest);

    let exit_deadline = Instant::now() + Duration::from_millis(DRAIN_MS + 4000);
    let code = loop {
        match serve.child.try_wait() {
            Ok(Some(status)) => break status.code(),
            Ok(None) if Instant::now() < exit_deadline => {
                std::thread::sleep(Duration::from_millis(50))
            }
            Ok(None) => fail("server did not exit within the drain deadline"),
            Err(e) => fail(&format!("wait failed: {e}")),
        }
    };
    if code != Some(0) {
        fail(&format!("server exited with {code:?}, expected 0"));
    }

    // --- Phase 7: the saved model survives the process byte-identically
    // and recovers on the next startup.
    let reread =
        std::fs::read(&model_path).unwrap_or_else(|e| fail(&format!("re-read model: {e}")));
    if reread != saved_bytes {
        fail("saved model changed on disk across the drain");
    }
    let mut serve2 = spawn_serve(&model_path, false);
    let mut client2 = Client::connect(&serve2.addr);
    let save = client2.expect_ok("{\"cmd\":\"save\"}");
    let recovered = save.get("model").and_then(Json::as_str).unwrap_or("");
    if !saved_text.starts_with(recovered) || recovered.is_empty() {
        fail("recovered model text does not match the saved file");
    }
    let _ = serve2.child.kill();
    let _ = serve2.child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "serve_soak: OK — {sheds} clean sheds at the connection cap, slow-loris cut off, \
         {probes} bounded ping/metrics probes under abuse, gauge back to baseline, \
         {http_sheds} clean 503 sheds at the http sidecar's cap with its gauge back to \
         baseline, SIGTERM drained to exit 0, model file byte-identical and recovered on restart"
    );
}
