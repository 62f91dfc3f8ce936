//! `haqjsk-worker` — the distributed tile-execution worker binary.
//!
//! Runs one [`haqjsk::dist::WorkerServer`]: a TCP JSON-lines server that
//! receives a dataset once (content-hash-deduplicated) and then evaluates
//! tile work units (`kernel id + params + index-pair tile`) with its own
//! local engine, warming its own feature caches. Point a
//! coordinator at it with `HAQJSK_BACKEND=dist:host:port[,host:port...]`.
//!
//! Usage: `haqjsk-worker [ADDR]` (default `127.0.0.1:0`, i.e. an ephemeral
//! port). The bound address is printed on stdout as
//! `haqjsk-worker listening on HOST:PORT` — process-pool launchers parse
//! that line to learn the port. Worker threads via `HAQJSK_THREADS`,
//! feature-cache budget via `HAQJSK_CACHE_BUDGET`. The `shutdown` command
//! drains the listener (its own acknowledgement is written first) and then
//! exits the process.

use haqjsk::dist::{WorkerOptions, WorkerServer};
use haqjsk::engine::Engine;
use std::time::Duration;

/// How long a `shutdown` waits for open connections to finish.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let mut server = WorkerServer::spawn(
        &addr,
        WorkerOptions {
            exit_on_shutdown: true,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("haqjsk-worker: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The address line is machine-parsed by process-pool launchers; print
    // it first and flush before any other output.
    println!("haqjsk-worker listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "haqjsk-worker: {} engine workers ready",
        Engine::global().threads()
    );
    // The accept loop runs on its own thread; supervise it until a
    // `shutdown` command asks the worker to exit.
    while !server.exit_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let report = server.drain(SHUTDOWN_DRAIN);
    if !report.drained {
        eprintln!(
            "haqjsk-worker: shutting down with {} connection(s) still open",
            report.remaining_connections
        );
    }
    std::process::exit(0);
}
