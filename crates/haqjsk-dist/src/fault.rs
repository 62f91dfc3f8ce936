//! Worker-link lifecycle and failure handling.
//!
//! A [`WorkerLink`] is the coordinator's view of one worker: its address,
//! the (at most one) live connection, its membership state, and the
//! per-worker counters the serving `stats` response and the scaling
//! benchmark report. The failure philosophy is simple and absolute: **a
//! Gram must never fail because a worker vanished.** Every failure mode —
//! refused connection, mid-stream hangup, deadline timeout, malformed
//! response — collapses to the same recovery: mark the link dead, requeue
//! its in-flight tiles, and let the remaining workers (or, ultimately, the
//! coordinator's own local evaluator) finish the Gram byte-identically.
//!
//! ## Link states
//!
//! ```text
//!          connect ok                    mark_dead
//!   ┌──────────────────► Alive ────────────────────────┐
//!   │                      ▲                           ▼
//! (join)                   └──── reconnect ok ──── Probation ◄─┐
//!   │                                                  │       │
//!   │   begin_drain (remove_worker)                    └─ retry│fails:
//!   └─────────────────► Draining (terminal)              jittered
//!                                                     exponential backoff
//! ```
//!
//! A dead worker enters **probation**: a background thread on the
//! coordinator retries its address on a jittered exponential backoff
//! schedule (`HAQJSK_DIST_RECONNECT_BASE_MS` / `..._MAX_MS`), so a
//! restarted worker rejoins the pool without coordinator intervention and
//! without per-Gram connect-timeout stalls — `WorkerLink::checkout`
//! refuses to dial a probationed address before its retry is due. A
//! **draining** worker (removed via `Coordinator::remove_worker`) accepts
//! no further tiles; its in-flight tiles requeue through the ordinary
//! death-recovery path.

use crate::coordinator::DistConfig;
use crate::wire;
use haqjsk_engine::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A failed receive, distinguishing deadline expiry (the worker may just
/// be slow) from everything else (the connection is unusable).
pub(crate) struct RecvError {
    /// Human-readable description.
    pub message: String,
    /// Whether the failure was a read-timeout rather than a hangup,
    /// transport error or malformed response.
    pub timed_out: bool,
}

impl RecvError {
    fn fatal(message: String) -> RecvError {
        RecvError {
            message,
            timed_out: false,
        }
    }
}

/// One live request/response connection to a worker (JSON lines over TCP).
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Partial line carried across a read timeout, so a response split by
    /// the deadline boundary is not lost when the caller retries.
    pending: String,
}

impl Conn {
    /// Connects with a timeout and verifies the peer answers `ping` as a
    /// worker.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<Conn, String> {
        let socket_addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve '{addr}': {e}"))?
            .next()
            .ok_or_else(|| format!("'{addr}' resolves to no address"))?;
        let stream = TcpStream::connect_timeout(&socket_addr, timeout)
            .map_err(|e| format!("cannot connect to worker at {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream to {addr}: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
            pending: String::new(),
        };
        let pong = conn
            .call(&wire::ping_request(), Some(timeout))
            .map_err(|e| format!("worker at {addr} failed the ping handshake: {e}"))?;
        match pong.get("pong").and_then(Json::as_bool) {
            Some(true) => Ok(conn),
            _ => Err(format!("peer at {addr} is not a haqjsk worker")),
        }
    }

    /// Writes one request line; returns the bytes written.
    pub(crate) fn send(&mut self, message: &Json) -> std::io::Result<usize> {
        let mut line = message.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(line.len())
    }

    /// Reads one response line, parsing it as JSON. `timeout` bounds the
    /// wait; expiry is reported as [`RecvError::timed_out`] (the caller
    /// may keep waiting — a partial line is carried over), while EOF,
    /// transport errors and garbage are fatal for the connection.
    pub(crate) fn recv(&mut self, timeout: Option<Duration>) -> Result<Json, RecvError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| RecvError::fatal(format!("cannot set read timeout: {e}")))?;
        match self.reader.read_line(&mut self.pending) {
            Ok(0) => Err(RecvError::fatal("worker closed the connection".to_string())),
            Ok(_) => {
                let line = std::mem::take(&mut self.pending);
                Json::parse(line.trim())
                    .map_err(|e| RecvError::fatal(format!("malformed worker response: {e}")))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(RecvError {
                    message: format!("worker read timed out: {e}"),
                    timed_out: true,
                })
            }
            Err(e) => Err(RecvError::fatal(format!("worker read failed: {e}"))),
        }
    }

    /// One synchronous request/response exchange, rejecting `ok:false`.
    pub(crate) fn call(
        &mut self,
        message: &Json,
        timeout: Option<Duration>,
    ) -> Result<Json, String> {
        self.send(message)
            .map_err(|e| format!("send failed: {e}"))?;
        let response = self.recv(timeout).map_err(|e| e.message)?;
        wire::check_ok(&response)?;
        Ok(response)
    }

    /// Bytes-written-accounting variant of [`Conn::call`], crediting the
    /// link's shipped-byte counter and (on success) the worker's RPC
    /// round-trip histogram.
    pub(crate) fn call_counted(
        &mut self,
        link: &WorkerLink,
        message: &Json,
        timeout: Option<Duration>,
    ) -> Result<Json, String> {
        let started = Instant::now();
        let bytes = self
            .send(message)
            .map_err(|e| format!("send failed: {e}"))?;
        link.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        let response = self.recv(timeout).map_err(|e| e.message)?;
        wire::check_ok(&response)?;
        crate::obs::rpc_histogram(&link.addr).observe_duration(started.elapsed());
        Ok(response)
    }
}

/// A link's membership state (see the module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Believed dead; retried on the backoff schedule.
    Probation,
    /// Live and eligible for tiles.
    Alive,
    /// Removed from membership; accepts no further tiles (terminal).
    Draining,
}

impl LinkState {
    /// The canonical lower-case label (the `state` metric label value).
    pub fn label(self) -> &'static str {
        match self {
            LinkState::Probation => "probation",
            LinkState::Alive => "alive",
            LinkState::Draining => "draining",
        }
    }

    fn from_u8(raw: u8) -> LinkState {
        match raw {
            1 => LinkState::Alive,
            2 => LinkState::Draining,
            _ => LinkState::Probation,
        }
    }
}

/// Backoff bookkeeping of a probationed link.
#[derive(Debug, Clone, Copy, Default)]
struct Probation {
    /// Consecutive failed reconnect attempts.
    attempts: u32,
    /// Earliest instant the next dial is allowed; `None` = immediately.
    next_retry: Option<Instant>,
}

/// The coordinator's handle on one worker.
pub struct WorkerLink {
    /// The worker's `host:port` address.
    pub addr: String,
    pub(crate) conn: Mutex<Option<Conn>>,
    pub(crate) alive: AtomicBool,
    state: AtomicU8,
    probation: Mutex<Probation>,
    /// The owning coordinator's membership epoch, bumped on every
    /// join/death/revival/drain of this link.
    epoch: Arc<AtomicUsize>,
    pub(crate) tiles_dispatched: AtomicUsize,
    pub(crate) tiles_completed: AtomicUsize,
    pub(crate) tiles_redispatched: AtomicUsize,
    pub(crate) bytes_shipped: AtomicUsize,
    pub(crate) datasets_shipped: AtomicUsize,
    pub(crate) deaths: AtomicUsize,
    pub(crate) reconnects: AtomicUsize,
    pub(crate) store_misses: AtomicUsize,
}

impl WorkerLink {
    pub(crate) fn new(addr: String, epoch: Arc<AtomicUsize>) -> WorkerLink {
        WorkerLink {
            addr,
            conn: Mutex::new(None),
            alive: AtomicBool::new(false),
            state: AtomicU8::new(LinkState::Probation as u8),
            probation: Mutex::new(Probation::default()),
            epoch,
            tiles_dispatched: AtomicUsize::new(0),
            tiles_completed: AtomicUsize::new(0),
            tiles_redispatched: AtomicUsize::new(0),
            bytes_shipped: AtomicUsize::new(0),
            datasets_shipped: AtomicUsize::new(0),
            deaths: AtomicUsize::new(0),
            reconnects: AtomicUsize::new(0),
            store_misses: AtomicUsize::new(0),
        }
    }

    /// Whether the link is currently believed live.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// The link's membership state.
    pub fn state(&self) -> LinkState {
        LinkState::from_u8(self.state.load(Ordering::Acquire))
    }

    fn set_state(&self, state: LinkState) {
        self.state.store(state as u8, Ordering::Release);
        self.alive
            .store(state == LinkState::Alive, Ordering::Release);
    }

    /// Whether a probation retry is allowed right now (a link never in
    /// probation, or past its backoff deadline, answers `true`).
    pub(crate) fn retry_due(&self) -> bool {
        self.probation
            .lock()
            .expect("probation lock poisoned")
            .next_retry
            .is_none_or(|at| Instant::now() >= at)
    }

    /// Records one failed reconnect attempt, pushing `next_retry` out on a
    /// jittered exponential schedule: `min(base · 2^(attempts-1), max)`
    /// scaled by a uniform factor in `[0.5, 1.5)` so a pool of probationed
    /// workers does not thunder back in lockstep.
    pub(crate) fn schedule_retry(&self, config: &DistConfig) {
        let mut probation = self.probation.lock().expect("probation lock poisoned");
        probation.attempts = probation.attempts.saturating_add(1);
        let exponent = probation.attempts.saturating_sub(1).min(16);
        let backoff = config
            .reconnect_base
            .saturating_mul(1u32 << exponent)
            .min(config.reconnect_max);
        let jittered = backoff.mul_f64(0.5 + jitter_unit(&self.addr, probation.attempts));
        probation.next_retry = Some(Instant::now() + jittered);
    }

    /// Takes the live connection for exclusive use (re-connecting first if
    /// necessary); `None` when the worker is draining, its probation
    /// backoff has not expired, or the dial fails (which schedules the
    /// next retry).
    pub(crate) fn checkout(&self, config: &DistConfig) -> Option<Conn> {
        if self.state() == LinkState::Draining {
            return None;
        }
        if let Some(conn) = self.conn.lock().expect("worker link poisoned").take() {
            return Some(conn);
        }
        if self.state() == LinkState::Probation && !self.retry_due() {
            return None;
        }
        match Conn::connect(&self.addr, config.connect_timeout) {
            Ok(conn) => {
                self.note_revival();
                Some(conn)
            }
            Err(_) => {
                if self.state() != LinkState::Draining {
                    self.set_state(LinkState::Probation);
                    self.schedule_retry(config);
                }
                None
            }
        }
    }

    /// Records a successful (re)connect: the link goes Alive, probation
    /// resets, and a revival after at least one death counts as a
    /// reconnect.
    pub(crate) fn note_revival(&self) {
        let was_alive = self.state() == LinkState::Alive;
        self.set_state(LinkState::Alive);
        *self.probation.lock().expect("probation lock poisoned") = Probation::default();
        if !was_alive {
            self.epoch.fetch_add(1, Ordering::AcqRel);
            if self.deaths.load(Ordering::Relaxed) > 0 {
                self.reconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Returns a connection after use.
    pub(crate) fn checkin(&self, conn: Conn) {
        *self.conn.lock().expect("worker link poisoned") = Some(conn);
    }

    /// Declares the worker dead: drops any stored connection and enters
    /// probation (draining links stay draining — they are on their way
    /// out).
    pub(crate) fn mark_dead(&self) {
        if self.state() != LinkState::Draining {
            self.set_state(LinkState::Probation);
        } else {
            self.alive.store(false, Ordering::Release);
        }
        self.deaths.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        *self.conn.lock().expect("worker link poisoned") = None;
    }

    /// Begins draining: no further tiles are dispatched to this link, and
    /// its stored connection is dropped.
    pub(crate) fn begin_drain(&self) {
        self.set_state(LinkState::Draining);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        *self.conn.lock().expect("worker link poisoned") = None;
    }

    /// Snapshot of the per-worker counters.
    pub fn stats(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            addr: self.addr.clone(),
            alive: self.is_alive(),
            state: self.state(),
            tiles_dispatched: self.tiles_dispatched.load(Ordering::Relaxed),
            tiles_completed: self.tiles_completed.load(Ordering::Relaxed),
            tiles_redispatched: self.tiles_redispatched.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            datasets_shipped: self.datasets_shipped.load(Ordering::Relaxed),
            deaths: self.deaths.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
        }
    }
}

/// A uniform jitter draw in `[0, 1)`, seeded from the address and attempt
/// number plus a process-wide nonce — decorrelated across workers without
/// needing wall-clock entropy.
fn jitter_unit(addr: &str, attempts: u32) -> f64 {
    static NONCE: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);
    let nonce = NONCE.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
    let mut seed: u64 = nonce ^ (attempts as u64).wrapping_mul(0x100000001b3);
    for byte in addr.as_bytes() {
        seed ^= *byte as u64;
        seed = seed.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(seed).gen::<f64>()
}

/// Point-in-time view of one worker's counters, for `stats` responses and
/// benchmark reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Worker address.
    pub addr: String,
    /// Whether the link was live at snapshot time.
    pub alive: bool,
    /// Membership state at snapshot time.
    pub state: LinkState,
    /// Tile work units sent to this worker (including re-dispatches *to*
    /// it).
    pub tiles_dispatched: usize,
    /// Tile results received from this worker and committed.
    pub tiles_completed: usize,
    /// Tiles this worker claimed from another worker's expired deadline.
    pub tiles_redispatched: usize,
    /// Request bytes written to this worker (dataset shipping + tiles).
    pub bytes_shipped: usize,
    /// Dataset shipping rounds completed with this worker.
    pub datasets_shipped: usize,
    /// Times this link was declared dead.
    pub deaths: usize,
    /// Times this link came back from probation (revivals after death).
    pub reconnects: usize,
    /// `store_miss` replies received from this worker (each triggered a
    /// targeted re-ship, not a death).
    pub store_misses: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> DistConfig {
        DistConfig {
            connect_timeout: Duration::from_millis(300),
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_millis(80),
            ..DistConfig::default()
        }
    }

    #[test]
    fn refused_connect_enters_probation_with_backoff() {
        // Bind-then-drop guarantees a refused port.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let link = WorkerLink::new(addr, Arc::new(AtomicUsize::new(1)));
        let config = test_config();
        assert!(link.checkout(&config).is_none());
        assert_eq!(link.state(), LinkState::Probation);
        // The next checkout before the backoff expires must not dial.
        assert!(!link.retry_due());
        assert!(link.checkout(&config).is_none());
        // Backoff grows with attempts (deterministically bounded by max).
        for _ in 0..10 {
            link.schedule_retry(&config);
        }
        let wait = link
            .probation
            .lock()
            .unwrap()
            .next_retry
            .unwrap()
            .saturating_duration_since(Instant::now());
        assert!(
            wait <= config.reconnect_max.mul_f64(1.5),
            "backoff {wait:?} exceeds jittered max"
        );
    }

    #[test]
    fn revival_after_death_counts_as_reconnect() {
        let link = WorkerLink::new("127.0.0.1:1".to_string(), Arc::new(AtomicUsize::new(1)));
        link.note_revival();
        // First connect is a join, not a reconnect.
        assert_eq!(link.stats().reconnects, 0);
        link.mark_dead();
        assert_eq!(link.state(), LinkState::Probation);
        link.note_revival();
        let stats = link.stats();
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.state, LinkState::Alive);
        assert!(stats.alive);
    }

    #[test]
    fn draining_is_terminal_and_refuses_checkout() {
        let link = WorkerLink::new("127.0.0.1:1".to_string(), Arc::new(AtomicUsize::new(1)));
        link.note_revival();
        link.begin_drain();
        assert_eq!(link.state(), LinkState::Draining);
        assert!(link.checkout(&test_config()).is_none());
        // A death while draining does not re-enter probation.
        link.mark_dead();
        assert_eq!(link.state(), LinkState::Draining);
        assert!(!link.is_alive());
    }

    #[test]
    fn recv_classifies_timeouts_apart_from_hangups_and_garbage() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Script: answer the ping, then one garbage line, then silence,
        // then hang up.
        let script = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // ping
            stream.write_all(b"{\"ok\":true,\"pong\":true}\n").unwrap();
            reader.read_line(&mut line).unwrap(); // first probe
            stream.write_all(b"this is not json\n").unwrap();
            reader.read_line(&mut line).unwrap(); // second probe: silence
            std::thread::sleep(Duration::from_millis(120));
            drop(stream); // EOF
        });
        let mut conn = Conn::connect(&addr, Duration::from_secs(2)).unwrap();
        // Garbage: fatal, not a timeout.
        conn.send(&wire::ping_request()).unwrap();
        let garbage = conn.recv(Some(Duration::from_secs(2))).unwrap_err();
        assert!(!garbage.timed_out, "{}", garbage.message);
        assert!(garbage.message.contains("malformed"), "{}", garbage.message);
        // Silence within the deadline: timed_out, retryable.
        conn.send(&wire::ping_request()).unwrap();
        let slow = conn.recv(Some(Duration::from_millis(30))).unwrap_err();
        assert!(slow.timed_out, "{}", slow.message);
        // After the peer hangs up: EOF is fatal.
        script.join().unwrap();
        let eof = conn.recv(Some(Duration::from_secs(2))).unwrap_err();
        assert!(!eof.timed_out);
        assert!(eof.message.contains("closed"), "{}", eof.message);
    }
}
