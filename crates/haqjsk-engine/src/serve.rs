//! The TCP serving substrate: one hardened listener, two protocol codecs.
//!
//! A [`Server`] binds one address and speaks the [`Codec`] it was spawned
//! with on every connection, never switching per request:
//!
//! * [`Codec::JsonLines`] — one JSON object per line, one response line per
//!   request, answered by a [`Handler`]: the `haqjsk-serve` model handlers
//!   (umbrella crate) and every distributed worker.
//! * [`Codec::Http`] — HTTP/1.1 GET answered by an [`HttpResponder`]: the
//!   observability sidecar, whose protocol half is [`crate::http`].
//!
//! ```text
//! -> {"cmd":"ping"}
//! <- {"ok":true,"pong":true}
//! -> {"cmd":"fit","graphs":[{"n":4,"edges":[[0,1],[1,2],[2,3]]}, ...],"variant":"A"}
//! <- {"ok":true,"num_graphs":32,"levels":3}
//! ```
//!
//! Malformed lines never kill a JSON-lines connection: they produce
//! `{"ok":false,"error":"..."}` responses.
//!
//! ## Overload safety
//!
//! The listener is hardened against misbehaving clients and overload
//! spikes, whichever codec it speaks ([`ServeConfig`] holds the knobs, all
//! settable via environment variables):
//!
//! * **Connection cap** (`HAQJSK_SERVE_MAX_CONNS`): connections beyond the
//!   cap receive the codec's shed reply — one
//!   `{"ok":false,"error":"overloaded"}` line, or one `503 busy` — and a
//!   clean close instead of a thread.
//! * **Bounded frames**: a request line longer than the codec's cap
//!   (`HAQJSK_SERVE_MAX_FRAME_BYTES` for JSON-lines, a fixed 8 KiB for
//!   HTTP) is answered with an error and the connection closed — the
//!   server never buffers an unbounded line. The distributed worker wire
//!   shares the JSON-lines framing (a worker is a [`Server`]).
//! * **Slow-client defense** (`HAQJSK_SERVE_IO_TIMEOUT_MS`): a connection
//!   that stalls *mid-frame* longer than the timeout is closed (slow-loris
//!   cannot pin a thread), and writes that stall are bounded by the same
//!   timeout. Idle connections *between* frames are unaffected — long-lived
//!   keep-alive clients (the distributed coordinator, serving clients
//!   between requests) never time out while quiescent.
//! * **Panic isolation**: a handler panic is caught, answered with
//!   `{"ok":false,"error":"internal error ..."}` (a responder panic with a
//!   `500`), counted in `haqjsk_serve_panics_total`, and the connection
//!   (and process) live on.
//! * **Graceful drain** ([`Server::drain`]): stop accepting, answer
//!   in-flight requests, close idle connections, all within a deadline —
//!   observable via the `haqjsk_serve_state` one-hot gauge. Nothing drains
//!   the HTTP sidecar, so `/healthz` can report the JSON-lines drain.
//!
//! Internally every connection polls its socket on a short tick so it can
//! observe shutdown/drain flags while blocked on a quiet peer; the tick
//! only matters when a socket is idle, so the request/response hot path is
//! unaffected.

use crate::http::{HttpResponder, HttpResponse};
use crate::json::Json;
use haqjsk_graph::Graph;
use haqjsk_obs::metrics::{Counter, Gauge};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable capping concurrent connections.
pub const MAX_CONNS_ENV_VAR: &str = "HAQJSK_SERVE_MAX_CONNS";
/// Environment variable bounding a single request frame, in bytes.
pub const MAX_FRAME_BYTES_ENV_VAR: &str = "HAQJSK_SERVE_MAX_FRAME_BYTES";
/// Environment variable bounding mid-frame socket stalls, in milliseconds
/// (`0` disables the timeout).
pub const IO_TIMEOUT_ENV_VAR: &str = "HAQJSK_SERVE_IO_TIMEOUT_MS";

/// Transport-level limits of a [`Server`]. `Default` is the production
/// shape; [`ServeConfig::from_env`] layers the `HAQJSK_SERVE_*` variables
/// on top.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently open connections; over-limit connections get
    /// the codec's shed reply and a clean close.
    pub max_conns: usize,
    /// Maximum bytes of a single JSON-lines request line; longer frames
    /// are rejected with an error line and the connection is closed.
    pub max_frame_bytes: usize,
    /// How long a connection may stall mid-frame (reading) or mid-response
    /// (writing) before it is closed. `None` disables the defense.
    pub io_timeout: Option<Duration>,
    /// Poll granularity of idle connections — how quickly they observe
    /// shutdown/drain flags. Not environment-configurable; tests shrink it.
    pub tick: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_conns: 1024,
            max_frame_bytes: 4 << 20,
            io_timeout: Some(Duration::from_secs(30)),
            tick: Duration::from_millis(100),
        }
    }
}

impl ServeConfig {
    /// The defaults with any `HAQJSK_SERVE_*` environment overrides
    /// applied. Unparseable values are hard errors — a typo silently
    /// falling back to defaults would defeat the operator's intent.
    pub fn from_env() -> Result<ServeConfig, String> {
        let mut config = ServeConfig::default();
        if let Some(v) = parse_env_usize(MAX_CONNS_ENV_VAR)? {
            if v == 0 {
                return Err(format!("{MAX_CONNS_ENV_VAR} must be positive"));
            }
            config.max_conns = v;
        }
        if let Some(v) = parse_env_usize(MAX_FRAME_BYTES_ENV_VAR)? {
            if v == 0 {
                return Err(format!("{MAX_FRAME_BYTES_ENV_VAR} must be positive"));
            }
            config.max_frame_bytes = v;
        }
        if let Some(v) = parse_env_usize(IO_TIMEOUT_ENV_VAR)? {
            config.io_timeout = (v > 0).then(|| Duration::from_millis(v as u64));
        }
        Ok(config)
    }
}

/// Reads a non-negative integer environment variable: `Ok(None)` when
/// unset, an error naming the variable when it does not parse.
pub fn parse_env_usize(name: &str) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .map(Some)
            .map_err(|e| format!("invalid {name}='{raw}': {e}")),
    }
}

/// What a connection does once a request has been handled. It travels with
/// the request's own response, so it can only ever act on the connection
/// that carried that request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Write the response and keep serving the connection.
    Keep,
    /// Write (and flush) the response, then close the connection — how
    /// fault-injection and shutdown commands hang up deliberately without
    /// swallowing their own acknowledgement.
    Close,
    /// Close without writing the response, so the peer observes a
    /// mid-stream EOF where a reply was due. The distributed worker's
    /// chaos harness uses this to simulate dying mid-request.
    Swallow,
}

/// A request handler: maps one request value to one response value and
/// the connection's [`Disposition`]. Must be shareable across connection
/// threads.
pub trait Handler: Send + Sync + 'static {
    /// Handles a single request.
    fn handle(&self, request: &Json) -> (Json, Disposition);
}

/// A plain function handler answers every request and keeps the
/// connection open.
impl<F> Handler for F
where
    F: Fn(&Json) -> Json + Send + Sync + 'static,
{
    fn handle(&self, request: &Json) -> (Json, Disposition) {
        (self(request), Disposition::Keep)
    }
}

/// The protocol a [`Server`] speaks: only what differs between protocols
/// (frame cap, connection loop, shed reply, connection metrics).
#[derive(Clone)]
pub enum Codec {
    /// JSON-lines requests answered by a [`Handler`] (serving, dist
    /// workers); accounted in `haqjsk_serve_*`.
    JsonLines(Arc<dyn Handler>),
    /// HTTP/1.1 GET requests answered by an [`HttpResponder`] (the
    /// observability sidecar); accounted in `haqjsk_http_*`.
    Http(Arc<HttpResponder>),
}

impl Codec {
    /// Thread-name label: `serve` or `http`.
    fn label(&self) -> &'static str {
        match self {
            Codec::JsonLines(_) => "serve",
            Codec::Http(_) => "http",
        }
    }

    fn connections_counter(&self) -> &'static Counter {
        match self {
            Codec::JsonLines(_) => crate::obs::serve_connections_counter(),
            Codec::Http(_) => crate::obs::http_connections_counter(),
        }
    }

    fn active_gauge(&self) -> &'static Gauge {
        match self {
            Codec::JsonLines(_) => crate::obs::serve_active_connections_gauge(),
            Codec::Http(_) => crate::obs::http_active_connections_gauge(),
        }
    }

    /// Answers an over-cap connection with the codec's one shed reply and a
    /// clean close; never spawns a thread or blocks the accept loop for long.
    fn shed(&self, mut stream: TcpStream) {
        stream.set_write_timeout(Some(Duration::from_secs(1))).ok();
        let _ = match self {
            Codec::JsonLines(_) => {
                crate::obs::serve_conns_rejected_counter().inc();
                let line = format!("{}\n", error_response("overloaded"));
                stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.flush())
            }
            Codec::Http(_) => {
                let busy = HttpResponse::text(503, "transport", "busy\n");
                crate::http::write_response(&mut stream, &busy, true, "")
            }
        };
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Serves one accepted connection until EOF, a limit violation, or
    /// shutdown/drain.
    fn serve(
        &self,
        stream: TcpStream,
        shared: &Arc<ServeShared>,
        config: &ServeConfig,
    ) -> std::io::Result<()> {
        let frame_cap = match self {
            Codec::JsonLines(_) => config.max_frame_bytes,
            Codec::Http(_) => crate::http::MAX_REQUEST_LINE_BYTES,
        };
        let writer = stream.try_clone()?;
        writer.set_write_timeout(config.io_timeout)?;
        let reader = BoundedLineReader::new(stream, frame_cap, config.tick)?;
        match self {
            Codec::JsonLines(handler) => {
                serve_connection_bounded(reader, writer, handler.as_ref(), shared, config)
            }
            Codec::Http(responder) => crate::http::serve_http_connection(
                reader,
                writer,
                responder.as_ref(),
                shared,
                config,
            ),
        }
    }
}

/// State shared between the accept loop, every connection thread, and the
/// [`ServeControl`] handles.
#[derive(Default)]
pub(crate) struct ServeShared {
    /// Hard stop: connections exit at their next flag check.
    pub(crate) shutdown: AtomicBool,
    /// Drain phase: no new connections, idle connections close, in-flight
    /// requests are answered.
    draining: AtomicBool,
    /// Currently open connections (RAII-guarded).
    active: AtomicUsize,
    /// Whether this listener drives `haqjsk_serve_state` (JSON-lines only).
    owns_state_gauge: bool,
}

/// A cheap, cloneable handle onto a running server's lifecycle state:
/// lets a request handler (which is built before the server exists)
/// request a drain and observe the open-connection count.
#[derive(Clone)]
pub struct ServeControl {
    shared: Arc<ServeShared>,
}

impl ServeControl {
    /// Flips the server into the draining state: the accept loop stops
    /// taking connections, idle connections close at their next tick, and
    /// in-flight requests are still answered. Idempotent. The owner of the
    /// [`Server`] completes the drain with [`Server::drain`].
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::AcqRel) && self.shared.owns_state_gauge {
            crate::obs::set_serve_state(true);
        }
    }

    /// Whether a drain has been requested or started.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }
}

/// RAII registration of one open connection: keeps the active-connections
/// count and the codec's gauge exact on every exit path (EOF, error, panic,
/// drain).
struct ConnGuard {
    shared: Arc<ServeShared>,
    gauge: &'static Gauge,
}

impl ConnGuard {
    fn register(shared: &Arc<ServeShared>, gauge: &'static Gauge) -> ConnGuard {
        shared.active.fetch_add(1, Ordering::AcqRel);
        gauge.add(1.0);
        ConnGuard {
            shared: Arc::clone(shared),
            gauge,
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.gauge.add(-1.0);
    }
}

/// Outcome of a [`Server::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every connection closed within the deadline.
    pub drained: bool,
    /// Connections still open when the deadline expired (0 when drained).
    pub remaining_connections: usize,
}

/// A running listener: the bound address plus shutdown/bookkeeping handles.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServeShared>,
    accept_thread: Option<thread::JoinHandle<()>>,
    tick: Duration,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
    /// `codec` on a background accept thread, one thread per connection,
    /// with the limits of [`ServeConfig::from_env`].
    pub fn spawn(addr: &str, codec: Codec) -> std::io::Result<Server> {
        let config =
            ServeConfig::from_env().map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        Server::spawn_with_config(addr, codec, config)
    }

    /// [`Server::spawn`] with explicit limits (tests shrink them; the
    /// serving layer threads its own parsed configuration through).
    pub fn spawn_with_config(
        addr: &str,
        codec: Codec,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServeShared {
            owns_state_gauge: matches!(codec, Codec::JsonLines(_)),
            ..ServeShared::default()
        });
        if shared.owns_state_gauge {
            crate::obs::set_serve_state(false);
        }

        let accept_shared = Arc::clone(&shared);
        let tick = config.tick;
        let accept_thread = thread::Builder::new()
            .name(format!("haqjsk-{}-accept", codec.label()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::Acquire)
                        || accept_shared.draining.load(Ordering::Acquire)
                    {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // One request per line (or per GET): Nagle + delayed
                    // ACK would add tens of milliseconds per exchange.
                    stream.set_nodelay(true).ok();
                    if accept_shared.active.load(Ordering::Acquire) >= config.max_conns {
                        codec.shed(stream);
                        continue;
                    }
                    codec.connections_counter().inc();
                    let guard = ConnGuard::register(&accept_shared, codec.active_gauge());
                    let conn_codec = codec.clone();
                    let conn_config = config.clone();
                    let _ = thread::Builder::new()
                        .name(format!("haqjsk-{}-conn", codec.label()))
                        .spawn(move || {
                            let _ = conn_codec.serve(stream, &guard.shared, &conn_config);
                            drop(guard);
                        });
                }
            })?;

        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            tick,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of connections currently open.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// A cloneable lifecycle handle (drain requests, gauges) that request
    /// handlers and signal loops can hold without owning the server.
    pub fn control(&self) -> ServeControl {
        ServeControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The address the shutdown/drain paths dial to unblock the accept
    /// loop: binding to a wildcard address (`0.0.0.0` / `::`) is common,
    /// but dialing the wildcard is an error on some platforms — dial the
    /// loopback of the same family instead.
    fn unblock_addr(&self) -> SocketAddr {
        let ip = match self.local_addr.ip() {
            ip if !ip.is_unspecified() => ip,
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        };
        SocketAddr::new(ip, self.local_addr.port())
    }

    fn stop_accepting(&mut self) {
        // Unblock the blocking accept by connecting once; the loop
        // re-checks its flags before servicing the dial.
        let _ = TcpStream::connect_timeout(&self.unblock_addr(), Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Gracefully drains the server: stops accepting, answers requests
    /// already in flight, closes idle connections, and waits up to
    /// `deadline` for every connection to go away. Connections still busy
    /// at the deadline are told to close as soon as their current request
    /// completes (the hard-shutdown flag), but are not waited for.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        self.control().begin_drain();
        self.stop_accepting();
        let start = Instant::now();
        while self.shared.active.load(Ordering::Acquire) > 0 && start.elapsed() < deadline {
            thread::sleep(self.tick.min(Duration::from_millis(10)));
        }
        let remaining = self.shared.active.load(Ordering::Acquire);
        self.shared.shutdown.store(true, Ordering::Release);
        DrainReport {
            drained: remaining == 0,
            remaining_connections: remaining,
        }
    }

    /// Signals the accept loop to stop and unblocks it, then gives open
    /// connections a short grace (a few ticks) to observe the flag and
    /// exit. Connections mid-request finish their current request first.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.stop_accepting();
        // Best-effort thread-leak avoidance: idle connections notice the
        // flag within one tick; don't stall shutdown on busy ones.
        let grace = self.tick * 4;
        let start = Instant::now();
        while self.shared.active.load(Ordering::Acquire) > 0 && start.elapsed() < grace {
            thread::sleep(self.tick.min(Duration::from_millis(10)));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// What one poll of the bounded line reader produced.
pub(crate) enum Poll {
    /// A complete line (newline stripped), decoded lossily — non-UTF-8
    /// garbage becomes replacement characters and fails JSON parsing with
    /// an ordinary error envelope.
    Line(String),
    /// The peer closed the connection. Any half-written trailing line is
    /// discarded — there is nobody left to answer.
    Eof,
    /// No complete line within one tick; `partial` says whether a frame is
    /// in progress (slow-loris accounting) or the socket is idle.
    Tick { partial: bool },
    /// The in-progress line exceeded the frame cap.
    Oversized,
}

/// A line reader over a `TcpStream` with a hard per-line byte cap and
/// tick-bounded blocking, so the connection loop can watch lifecycle flags
/// while the peer is quiet. Buffers whole recv chunks, so pipelined
/// requests are served back-to-back without extra syscalls.
pub(crate) struct BoundedLineReader {
    pub(crate) stream: TcpStream,
    buf: Vec<u8>,
    max_frame_bytes: usize,
}

impl BoundedLineReader {
    pub(crate) fn new(
        stream: TcpStream,
        max_frame_bytes: usize,
        tick: Duration,
    ) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(tick))?;
        Ok(BoundedLineReader {
            stream,
            buf: Vec::new(),
            max_frame_bytes,
        })
    }

    fn take_line(&mut self) -> Option<String> {
        let idx = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=idx).collect();
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    pub(crate) fn poll_line(&mut self) -> std::io::Result<Poll> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Poll::Line(line));
            }
            if self.buf.len() > self.max_frame_bytes {
                return Ok(Poll::Oversized);
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Poll::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Poll::Tick {
                        partial: !self.buf.is_empty(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Lingering close for a connection whose peer may still be writing: stop
/// sending, then read and discard inbound bytes until the peer falls quiet
/// for two ticks, hangs up, or a bounded tick budget runs out. Without
/// this, closing with unread bytes in the receive buffer makes the kernel
/// send an RST, which can destroy a final error line still in flight.
pub(crate) fn linger_close(stream: &TcpStream, tick: Duration, shutdown: &AtomicBool) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(tick.max(Duration::from_millis(1))));
    let mut sink = [0u8; 8192];
    let mut idle_ticks = 0u32;
    for _ in 0..64 {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        match (&mut &*stream).read(&mut sink) {
            Ok(0) => break,
            Ok(_) => idle_ticks = 0,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle_ticks += 1;
                if idle_ticks >= 2 {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// The JSON-lines connection loop: request line in, response line out,
/// until EOF, a limit violation, or shutdown/drain.
/// Every request is accounted in the metrics registry (request counter and
/// wall-time histogram by `cmd`, in-flight gauge, error counter), and a
/// panicking handler is answered with an error envelope instead of killing
/// the thread.
fn serve_connection_bounded(
    mut reader: BoundedLineReader,
    mut writer: TcpStream,
    handler: &dyn Handler,
    shared: &Arc<ServeShared>,
    config: &ServeConfig,
) -> std::io::Result<()> {
    // When the current partial frame started arriving; slow-loris clients
    // are cut off `io_timeout` after their first partial byte.
    let mut frame_started: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match reader.poll_line()? {
            Poll::Eof => break,
            Poll::Oversized => {
                crate::obs::serve_frames_oversized_counter().inc();
                crate::obs::serve_requests_counter("oversized").inc();
                crate::obs::serve_errors_counter("oversized").inc();
                let response = error_response(&format!(
                    "frame too large (limit {} bytes)",
                    config.max_frame_bytes
                ));
                write_line(&mut writer, &response).ok();
                // The peer is mid-send of the oversized frame. Closing now
                // would leave its unread bytes in our receive buffer, and
                // the kernel answers that with an RST that can destroy the
                // error line before the peer reads it. Half-close and drain
                // the remainder (bounded) so the verdict actually arrives.
                linger_close(&reader.stream, config.tick, &shared.shutdown);
                break;
            }
            Poll::Tick { partial: false } => {
                frame_started = None;
                if shared.draining.load(Ordering::Acquire) {
                    // Idle during a drain: close cleanly.
                    break;
                }
            }
            Poll::Tick { partial: true } => {
                let started = *frame_started.get_or_insert_with(Instant::now);
                if let Some(timeout) = config.io_timeout {
                    if started.elapsed() >= timeout {
                        crate::obs::serve_io_timeouts_counter().inc();
                        let response = error_response(&format!(
                            "read timed out mid-frame after {} ms",
                            timeout.as_millis()
                        ));
                        write_line(&mut writer, &response).ok();
                        break;
                    }
                }
            }
            Poll::Line(line) => {
                frame_started = None;
                if line.trim().is_empty() {
                    continue;
                }
                let (response, disposition) = answer_line(&line, handler);
                if disposition == Disposition::Swallow {
                    break;
                }
                write_line(&mut writer, &response)?;
                if disposition == Disposition::Close {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Parses and handles one request line, with metrics accounting and panic
/// isolation. Returns the response and what the connection does next.
fn answer_line(line: &str, handler: &dyn Handler) -> (Json, Disposition) {
    match Json::parse(line) {
        Ok(request) => {
            let op = crate::obs::sanitize_op(
                request
                    .get("cmd")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown"),
            );
            crate::obs::serve_requests_counter(&op).inc();
            let inflight = crate::obs::serve_inflight_gauge();
            inflight.add(1.0);
            let started = Instant::now();
            let span = haqjsk_obs::span("serve_request");
            let trace_id = span.trace_id();
            let timer =
                crate::obs::HistogramTimer::start(&crate::obs::serve_request_histogram(&op));
            let (response, disposition) =
                match catch_unwind(AssertUnwindSafe(|| handler.handle(&request))) {
                    Ok(handled) => handled,
                    Err(panic) => {
                        crate::obs::serve_panics_counter().inc();
                        let what = panic_message(panic.as_ref());
                        let message = format!("internal error: handler panicked: {what}");
                        (error_response(&message), Disposition::Keep)
                    }
                };
            drop(timer);
            drop(span);
            inflight.add(-1.0);
            if response.get("error").is_some() {
                crate::obs::serve_errors_counter(&op).inc();
            }
            let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
            haqjsk_obs::record_request(
                &op,
                trace_id,
                started.elapsed(),
                ok,
                response.get("rejected").and_then(Json::as_str),
                response.get("error").and_then(Json::as_str),
            );
            (response, disposition)
        }
        Err(e) => {
            crate::obs::serve_requests_counter("malformed").inc();
            crate::obs::serve_errors_counter("malformed").inc();
            let message = format!("malformed request: {e}");
            haqjsk_obs::record_request(
                "malformed",
                None,
                Duration::ZERO,
                false,
                None,
                Some(&message),
            );
            (error_response(&message), Disposition::Keep)
        }
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn write_line(writer: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    writer.write_all(response.to_string().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// The standard `{"ok":false,"error":...}` response.
pub fn error_response(message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

/// Serialises a graph for the wire:
/// `{"n":N,"edges":[[u,v],...],"labels":[...]?}`.
pub fn graph_to_json(graph: &Graph) -> Json {
    let edges = graph
        .edges()
        .into_iter()
        .map(|(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
        .collect();
    let mut pairs = vec![
        ("n", Json::Num(graph.num_vertices() as f64)),
        ("edges", Json::Arr(edges)),
    ];
    if let Some(labels) = graph.labels() {
        pairs.push((
            "labels",
            Json::Arr(labels.iter().map(|&l| Json::Num(l as f64)).collect()),
        ));
    }
    Json::obj(pairs)
}

/// The most vertices a graph on the wire may declare. A graph is allocated
/// from its declared `n` before any edge is read, so an unchecked `n` lets a
/// one-line request exhaust memory or pin a CPU. 4096 covers the largest
/// graphs of the paper's benchmark datasets (RED-B: 3782 vertices).
pub const MAX_GRAPH_VERTICES: usize = 4096;

/// Restores a graph from its wire form. Graphs declaring more than
/// [`MAX_GRAPH_VERTICES`] vertices are rejected.
pub fn graph_from_json(value: &Json) -> Result<Graph, String> {
    let n = value
        .get("n")
        .and_then(Json::as_usize)
        .ok_or("graph needs a non-negative integer field 'n'")?;
    if n > MAX_GRAPH_VERTICES {
        return Err(format!(
            "graph declares {n} vertices; the limit is {MAX_GRAPH_VERTICES}"
        ));
    }
    let edges_json = value
        .get("edges")
        .and_then(Json::as_array)
        .ok_or("graph needs an array field 'edges'")?;
    let mut edges = Vec::with_capacity(edges_json.len());
    for e in edges_json {
        let pair = e
            .as_array()
            .ok_or("each edge must be a two-element array")?;
        if pair.len() != 2 {
            return Err("each edge must be a two-element array".to_string());
        }
        let u = pair[0].as_usize().ok_or("edge endpoints must be indices")?;
        let v = pair[1].as_usize().ok_or("edge endpoints must be indices")?;
        edges.push((u, v));
    }
    let mut graph = Graph::from_edges(n, &edges).map_err(|e| format!("invalid graph: {e:?}"))?;
    if let Some(labels_json) = value.get("labels") {
        let labels_arr = labels_json
            .as_array()
            .ok_or("'labels' must be an array of integers")?;
        let labels = labels_arr
            .iter()
            .map(|l| l.as_usize().ok_or("labels must be non-negative integers"))
            .collect::<Result<Vec<_>, _>>()?;
        graph
            .set_labels(labels)
            .map_err(|e| format!("invalid labels: {e:?}"))?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, star_graph};
    use std::io::{BufRead, BufReader, Write};

    fn echo_codec() -> Codec {
        Codec::JsonLines(Arc::new(|request: &Json| {
            let echo = request.get("echo").cloned().unwrap_or(Json::Null);
            Json::obj([("ok", Json::Bool(true)), ("echo", echo)])
        }))
    }

    fn fast_config() -> ServeConfig {
        ServeConfig {
            tick: Duration::from_millis(10),
            ..ServeConfig::default()
        }
    }

    fn read_json_line(reader: &mut BufReader<TcpStream>) -> Option<Json> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("response is valid JSON")),
            Err(_) => None,
        }
    }

    #[test]
    fn graph_json_roundtrip() {
        let mut g = cycle_graph(6);
        g.set_labels(vec![0, 1, 0, 1, 0, 1]).unwrap();
        let wire = graph_to_json(&g);
        let back = graph_from_json(&wire).unwrap();
        assert_eq!(back, g);
        let unlabelled = star_graph(5);
        assert_eq!(
            graph_from_json(&graph_to_json(&unlabelled)).unwrap(),
            unlabelled
        );
    }

    #[test]
    fn graph_from_json_rejects_garbage() {
        assert!(graph_from_json(&Json::Null).is_err());
        assert!(graph_from_json(&Json::parse(r#"{"n":2}"#).unwrap()).is_err());
        assert!(graph_from_json(&Json::parse(r#"{"n":2,"edges":[[0]]}"#).unwrap()).is_err());
        assert!(graph_from_json(&Json::parse(r#"{"n":2,"edges":[[0,5]]}"#).unwrap()).is_err());
        let sized =
            |n: usize| Json::obj([("n", Json::Num(n as f64)), ("edges", Json::Arr(vec![]))]);
        assert_eq!(
            graph_from_json(&sized(MAX_GRAPH_VERTICES))
                .unwrap()
                .num_vertices(),
            MAX_GRAPH_VERTICES
        );
        let error = graph_from_json(&sized(MAX_GRAPH_VERTICES + 1)).unwrap_err();
        assert!(error.contains("limit"), "got: {error}");
        assert!(graph_from_json(&sized(1_000_000_000_000)).is_err());
    }

    #[test]
    fn server_answers_over_loopback() {
        let accepted_before = crate::obs::serve_connections_counter().value();
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(b"{\"echo\":41}\n").unwrap();
        let response = read_json_line(&mut reader).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("echo").and_then(Json::as_f64), Some(41.0));

        // Malformed input keeps the connection alive with an error reply.
        writer.write_all(b"this is not json\n").unwrap();
        let response = read_json_line(&mut reader).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));

        assert!(crate::obs::serve_connections_counter().value() > accepted_before);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", echo_codec(), fast_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Several requests in a single write; responses must come back in
        // order, one line each.
        writer
            .write_all(b"{\"echo\":1}\n{\"echo\":2}\n{\"echo\":3}\n")
            .unwrap();
        for expect in 1..=3 {
            let response = read_json_line(&mut reader).unwrap();
            assert_eq!(
                response.get("echo").and_then(Json::as_f64),
                Some(expect as f64)
            );
        }
        server.shutdown();
    }

    /// A codec, a request it answers, a check of that answer, and a check
    /// of its whole shed stream (one reply, then a clean close).
    type CodecCase = (Codec, &'static [u8], fn(&str) -> bool, fn(&str) -> bool);

    fn codec_cases() -> [CodecCase; 2] {
        [
            (
                echo_codec(),
                b"{\"echo\":3}\n",
                |reply| {
                    Json::parse(reply.trim())
                        .is_ok_and(|line| line.get("echo").and_then(Json::as_f64) == Some(3.0))
                },
                |shed| {
                    shed.ends_with('\n')
                        && shed.lines().count() == 1
                        && Json::parse(shed.trim()).is_ok_and(|line| {
                            line.get("ok").and_then(Json::as_bool) == Some(false)
                                && line.get("error").and_then(Json::as_str) == Some("overloaded")
                        })
                },
            ),
            (
                Codec::Http(Arc::new(|_: &str| {
                    crate::http::HttpResponse::text(200, "/hello", "hi\n")
                })),
                b"GET /hello HTTP/1.1\r\n\r\n",
                |reply| reply.starts_with("HTTP/1.1 200 ") && reply.ends_with("\r\n\r\nhi\n"),
                |shed| {
                    shed.starts_with("HTTP/1.1 503 ")
                        && shed.matches("HTTP/1.1 ").count() == 1
                        && shed.contains("\r\nConnection: close\r\n")
                        && shed.ends_with("\r\n\r\nbusy\n")
                },
            ),
        ]
    }

    /// Sends `request` and reads until `is_answer` accepts the reply so far
    /// (a shed reply, EOF or a 10 s stall returns `false`).
    fn answered(stream: &mut TcpStream, request: &[u8], is_answer: fn(&str) -> bool) -> bool {
        stream.write_all(request).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (mut reply, mut buf) = (Vec::new(), [0u8; 256]);
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            reply.extend_from_slice(&buf[..n]);
            if is_answer(&String::from_utf8_lossy(&reply)) {
                return true;
            }
        }
        false
    }

    #[test]
    fn connection_cap_sheds_with_one_reply_on_both_codecs() {
        for (codec, request, is_answer, shed_is_well_formed) in codec_cases() {
            let label = codec.label();
            let config = ServeConfig {
                max_conns: 1,
                ..fast_config()
            };
            let mut server = Server::spawn_with_config("127.0.0.1:0", codec, config).unwrap();

            // The first connection occupies the only slot.
            let mut first = TcpStream::connect(server.local_addr()).unwrap();
            assert!(answered(&mut first, request, is_answer), "{label}: first");
            assert_eq!(server.active_connections(), 1, "{label}");

            // The second gets the codec's one shed reply, then EOF.
            let mut second = TcpStream::connect(server.local_addr()).unwrap();
            second
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut shed = String::new();
            second.read_to_string(&mut shed).expect("clean close");
            assert!(shed_is_well_formed(&shed), "{label}: shed {shed:?}");

            // Closing the first returns the guard to baseline and frees
            // the slot for a third.
            drop(first);
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.active_connections() > 0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(server.active_connections(), 0, "{label}: baseline");
            let mut third = TcpStream::connect(server.local_addr()).unwrap();
            assert!(answered(&mut third, request, is_answer), "{label}: third");
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_of_a_wildcard_bound_server_returns_promptly_on_both_codecs() {
        for (codec, request, is_answer, _) in codec_cases() {
            let label = codec.label();
            let mut server = Server::spawn_with_config("0.0.0.0:0", codec, fast_config()).unwrap();
            assert!(server.local_addr().ip().is_unspecified());
            let loopback = SocketAddr::new(Ipv4Addr::LOCALHOST.into(), server.local_addr().port());
            let mut idle = TcpStream::connect(loopback).unwrap();
            assert!(answered(&mut idle, request, is_answer), "{label}: answered");

            // A hang in shutdown fails the test instead of wedging it.
            let (done, finished) = std::sync::mpsc::channel();
            let stopper = thread::spawn(move || {
                server.shutdown();
                done.send(()).ok();
            });
            finished
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{label}: shutdown hung"));
            stopper.join().expect("shutdown thread");
        }
    }

    #[test]
    fn oversized_frames_are_rejected_not_buffered() {
        let config = ServeConfig {
            max_frame_bytes: 256,
            ..fast_config()
        };
        let mut server = Server::spawn_with_config("127.0.0.1:0", echo_codec(), config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let oversized = hammer_bytes(1024);
        writer.write_all(&oversized).unwrap();
        let response = read_json_line(&mut reader).expect("error line before close");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("frame too large"));
        assert!(read_json_line(&mut reader).is_none(), "connection closed");
        server.shutdown();
    }

    /// A newline-free blob larger than any small frame cap.
    fn hammer_bytes(n: usize) -> Vec<u8> {
        std::iter::repeat(b'x').take(n).collect()
    }

    #[test]
    fn slow_loris_partial_frame_is_cut_off() {
        let config = ServeConfig {
            io_timeout: Some(Duration::from_millis(80)),
            ..fast_config()
        };
        let mut server = Server::spawn_with_config("127.0.0.1:0", echo_codec(), config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Half a frame, then silence: the server must cut us off.
        writer.write_all(b"{\"echo\":").unwrap();
        writer.flush().unwrap();
        let start = Instant::now();
        let response = read_json_line(&mut reader).expect("timeout error line");
        assert!(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("timed out"));
        assert!(read_json_line(&mut reader).is_none(), "connection closed");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cutoff happened promptly"
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_do_not_time_out_between_frames() {
        let config = ServeConfig {
            io_timeout: Some(Duration::from_millis(60)),
            ..fast_config()
        };
        let mut server = Server::spawn_with_config("127.0.0.1:0", echo_codec(), config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(b"{\"echo\":1}\n").unwrap();
        assert!(read_json_line(&mut reader).is_some());
        // Far longer than the I/O timeout, but between frames: keep-alive.
        thread::sleep(Duration::from_millis(250));
        writer.write_all(b"{\"echo\":2}\n").unwrap();
        let response = read_json_line(&mut reader).expect("connection survived idling");
        assert_eq!(response.get("echo").and_then(Json::as_f64), Some(2.0));
        server.shutdown();
    }

    #[test]
    fn handler_panics_are_isolated() {
        let handler: Arc<dyn Handler> = Arc::new(|request: &Json| {
            if request.get("boom").is_some() {
                panic!("deliberate test panic");
            }
            Json::obj([("ok", Json::Bool(true))])
        });
        let before = crate::obs::serve_panics_counter().value();
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", Codec::JsonLines(handler), fast_config())
                .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(b"{\"boom\":true}\n").unwrap();
        let response = read_json_line(&mut reader).expect("error line, not a dead socket");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("internal error"), "got: {error}");
        assert!(error.contains("deliberate test panic"), "got: {error}");
        assert_eq!(crate::obs::serve_panics_counter().value(), before + 1);

        // Same connection still serves.
        writer.write_all(b"{}\n").unwrap();
        let response = read_json_line(&mut reader).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        server.shutdown();
    }

    #[test]
    fn drain_answers_in_flight_then_closes_idle() {
        use std::sync::Mutex;
        // A handler whose requests can be made slow on demand.
        struct Slow {
            delay: Mutex<Duration>,
        }
        impl Handler for Slow {
            fn handle(&self, request: &Json) -> (Json, Disposition) {
                if request.get("slow").is_some() {
                    thread::sleep(*self.delay.lock().unwrap());
                }
                (Json::obj([("ok", Json::Bool(true))]), Disposition::Keep)
            }
        }
        let handler = Arc::new(Slow {
            delay: Mutex::new(Duration::from_millis(200)),
        });
        let mut server =
            Server::spawn_with_config("127.0.0.1:0", Codec::JsonLines(handler), fast_config())
                .unwrap();
        let control = server.control();

        // An idle connection and a busy one.
        let idle = TcpStream::connect(server.local_addr()).unwrap();
        let busy = TcpStream::connect(server.local_addr()).unwrap();
        let mut busy_writer = busy.try_clone().unwrap();
        let mut busy_reader = BufReader::new(busy);
        busy_writer.write_all(b"{\"slow\":true}\n").unwrap();
        // Let the slow request start before draining.
        thread::sleep(Duration::from_millis(50));

        assert!(!control.is_draining());
        let report = server.drain(Duration::from_secs(5));
        assert!(control.is_draining());
        assert!(report.drained, "drain completed: {report:?}");
        assert_eq!(server.active_connections(), 0);

        // The in-flight slow request was answered before its connection
        // closed.
        let response = read_json_line(&mut busy_reader).expect("in-flight request answered");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert!(read_json_line(&mut busy_reader).is_none(), "then closed");

        // The idle connection observes a plain close.
        let mut idle_reader = BufReader::new(idle);
        assert!(read_json_line(&mut idle_reader).is_none());

        // New connections are refused (listener is gone).
        assert!(
            TcpStream::connect_timeout(&server.local_addr(), Duration::from_millis(500))
                .map(|s| {
                    // Platform may accept briefly in the backlog; a read must EOF.
                    let mut reader = BufReader::new(s);
                    read_json_line(&mut reader).is_none()
                })
                .unwrap_or(true)
        );
    }

    #[test]
    fn serve_config_env_parsing() {
        // from_env with nothing set yields the defaults (other tests may
        // set these vars, so only check the pure parser paths here).
        let default = ServeConfig::default();
        assert!(default.max_conns >= 64);
        assert!(default.max_frame_bytes >= 1 << 20);
        assert!(default.io_timeout.is_some());
    }
}
