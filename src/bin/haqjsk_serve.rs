//! `haqjsk-serve` — the TCP kernel-serving binary.
//!
//! A thin wrapper around [`haqjsk::serving`]: binds the address, spawns the
//! JSON-lines server and supervises its lifecycle. See the `serving` module
//! docs and `docs/serving.md` for the full command table, wire format and
//! overload knobs (`HAQJSK_SERVE_*`).
//!
//! Usage: `haqjsk-serve [ADDR] [--model PATH] [--http-addr ADDR]` (default
//! `127.0.0.1:7878`; worker count via `HAQJSK_THREADS`).
//!
//! `--http-addr ADDR` (or the `HAQJSK_HTTP_ADDR` environment variable)
//! additionally mounts the HTTP observability sidecar: `GET /metrics`
//! (Prometheus text), `/healthz` (200 serving / 503 draining-or-
//! overloaded), `/traces` (drained spans as JSON lines) and
//! `/debug/requests` (the flight recorder). See `docs/observability.md`.
//!
//! `--model PATH` enables crash-safe persistence: an existing model at
//! `PATH` is loaded (checksum-verified) before serving; a stray `PATH.tmp`
//! from a save that died mid-write is reported loudly and refuses startup
//! (the previous committed model, if any, is what loads). The same path is
//! the natural target for the `save_file` serving op.
//!
//! On `SIGTERM`/`SIGINT` — or a `drain` request over the wire — the server
//! drains gracefully: it stops accepting, answers requests already in
//! flight, closes idle connections, and exits `0` once drained (or `1` if
//! connections were still busy when `HAQJSK_SERVE_DRAIN_MS`, default
//! 5000, expired).

use haqjsk::engine::{CacheConfig, Engine, Json};
use haqjsk::serving::{Serving, ServingConfig};
use std::time::Duration;

/// Environment variable bounding the graceful-drain phase, in ms.
const DRAIN_ENV_VAR: &str = "HAQJSK_SERVE_DRAIN_MS";

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        // Only an atomic flag store: async-signal-safe, observed by the
        // supervision loop in main.
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Routes SIGTERM and SIGINT into the drain flag.
    pub fn install() {
        let handler = on_term as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

struct Args {
    addr: String,
    model: Option<String>,
    http_addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut model = None;
    let mut http_addr = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--model" => {
                model = Some(argv.next().ok_or("--model needs a PATH argument")?);
            }
            "--http-addr" => {
                http_addr = Some(argv.next().ok_or("--http-addr needs an ADDR argument")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: haqjsk-serve [ADDR] [--model PATH] [--http-addr ADDR]".to_string(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => {
                if addr.replace(other.to_string()).is_some() {
                    return Err("at most one ADDR argument".to_string());
                }
            }
        }
    }
    Ok(Args {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        model,
        // The flag wins over the `HAQJSK_HTTP_ADDR` environment default.
        http_addr: http_addr.or_else(|| {
            std::env::var(haqjsk::serving::HTTP_ADDR_ENV_VAR)
                .ok()
                .filter(|raw| !raw.trim().is_empty())
        }),
    })
}

fn drain_deadline() -> Duration {
    let ms = std::env::var(DRAIN_ENV_VAR)
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .unwrap_or(5000);
    Duration::from_millis(ms)
}

/// Loads the `--model` file through the production `load_file` handler
/// (checksum verification, `.tmp` torn-write detection). A missing file
/// with no stray `.tmp` is a fresh start, not an error — the path is then
/// simply the target for future `save_file`s.
fn recover_model(serving: &Serving, path: &str) {
    let model_path = std::path::Path::new(path);
    let tmp = haqjsk::core::tmp_sibling(model_path);
    if !model_path.exists() && !tmp.exists() {
        eprintln!("haqjsk-serve: no model at {path} yet; starting unfitted");
        return;
    }
    let request = Json::obj([
        ("cmd", Json::Str("load_file".to_string())),
        ("path", Json::Str(path.to_string())),
    ]);
    let response = serving.handle(&request);
    if let Some(error) = response.get("error").and_then(Json::as_str) {
        eprintln!("haqjsk-serve: cannot recover model from {path}: {error}");
        std::process::exit(1);
    }
    eprintln!("haqjsk-serve: recovered model from {path}");
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("haqjsk-serve: {e}");
        std::process::exit(2);
    });
    // `HAQJSK_BACKEND=dist:<addr,addr>` installs the startup worker pool
    // every `fit` and `load` builds its Gram on; an unreachable pool is
    // fatal at startup (silently computing locally would defeat the point
    // of configuring one).
    match haqjsk::dist::install_from_env() {
        Ok(None) => {}
        Ok(Some(coordinator)) => {
            eprintln!(
                "haqjsk-serve: startup worker pool with {} workers",
                coordinator.num_workers()
            );
        }
        Err(e) => {
            eprintln!("haqjsk-serve: {e}");
            std::process::exit(1);
        }
    }
    let config = ServingConfig::from_env().unwrap_or_else(|e| {
        eprintln!("haqjsk-serve: {e}");
        std::process::exit(2);
    });
    let serving = Serving::new(config);
    if let Some(path) = &args.model {
        recover_model(&serving, path);
    }
    sig::install();
    let mut server = serving.spawn(&args.addr).unwrap_or_else(|e| {
        eprintln!("haqjsk-serve: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    // The HTTP observability sidecar is optional; a bad bind is fatal (a
    // configured-but-dead scrape endpoint is worse than none).
    let mut http_server = args.http_addr.as_ref().map(|http_addr| {
        serving.spawn_http(http_addr).unwrap_or_else(|e| {
            eprintln!("haqjsk-serve: cannot bind http {http_addr}: {e}");
            std::process::exit(1);
        })
    });
    let engine = Engine::global();
    let cache = CacheConfig::from_env();
    println!(
        "haqjsk-serve listening on {} ({} engine workers, '{}' backend, cache budget {})",
        server.local_addr(),
        engine.threads(),
        engine.backend(),
        cache
            .budget_bytes
            .map_or_else(|| "unbounded".to_string(), |b| format!("{b} bytes")),
    );
    if let Some(http) = &http_server {
        println!("haqjsk-serve http listening on {}", http.local_addr());
    }
    // The accept loop runs on its own thread; supervise the lifecycle
    // flags (signal handler, `drain` op) until a drain is requested.
    loop {
        if sig::requested() || serving.drain_requested() {
            let deadline = drain_deadline();
            eprintln!(
                "haqjsk-serve: drain requested; draining for up to {} ms",
                deadline.as_millis()
            );
            let report = server.drain(deadline);
            // Last words: the flight recorder's recent/slow request
            // summaries, so a post-mortem has them even with no scraper
            // attached. The HTTP sidecar stays up through the drain (so
            // `/healthz` reports 503) and closes here.
            let flight = haqjsk::obs::flight_jsonl();
            if !flight.is_empty() {
                eprint!("haqjsk-serve: flight recorder at exit:\n{flight}");
            }
            if let Some(mut http) = http_server.take() {
                http.shutdown();
            }
            if report.drained {
                eprintln!("haqjsk-serve: drained cleanly; exiting");
                std::process::exit(0);
            }
            eprintln!(
                "haqjsk-serve: drain deadline expired with {} connection(s) still open",
                report.remaining_connections
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
