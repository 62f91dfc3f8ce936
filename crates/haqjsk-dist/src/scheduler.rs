//! The tile scheduler: windows, stragglers, and the never-fail guarantee.
//!
//! One Gram computation becomes a list of tile work units (the exact
//! upper-triangle tile grid the local backends use). Each live worker gets
//! a dedicated coordinator thread that keeps up to
//! [`DistConfig::window`](crate::DistConfig::window) tiles in flight on its
//! connection (pipelining hides the request/response latency), commits
//! results as they arrive, and tops the window back up from a shared queue.
//!
//! Four mechanisms keep the Gram alive under partial failure:
//!
//! * **Deadline-based straggler re-dispatch.** A tile in flight longer than
//!   [`DistConfig::deadline`](crate::DistConfig::deadline) becomes
//!   claimable by any idle worker; whichever copy finishes first wins
//!   (results are byte-identical, so duplicated execution is harmless and
//!   commits are idempotent).
//! * **Death recovery.** A connection error, hangup, malformed response or
//!   read timeout marks the worker dead (probation — see
//!   [`crate::fault`]) and requeues its in-flight tiles for the surviving
//!   workers. A **draining** worker exits its loop at the next iteration,
//!   requeueing the same way, without being counted dead.
//! * **Store-miss recovery.** A worker whose bounded store evicted dataset
//!   graphs (or whose model artifact is gone) answers `store_miss` instead
//!   of failing: the tile requeues, the worker's pipeline drains, the
//!   coordinator thread re-ships exactly what is missing over the same
//!   connection (counted in the coordinator's shipping counters like a
//!   first ship), and dispatch resumes — an eviction is never a death.
//! * **Local fallback.** Tiles still unfinished when every worker thread
//!   has exited are returned as `None`; the coordinator evaluates them with
//!   the kernel's local tile evaluator — same values, same Gram.

use crate::coordinator::{DistConfig, ShipCounters};
use crate::fault::{Conn, LinkState, WorkerLink};
use crate::wire::{self, TileReply};
use haqjsk_engine::{GraphKey, Json};
use haqjsk_graph::Graph;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything one Gram's scheduling run needs: the work, the dataset (for
/// targeted re-ships after store misses), and the membership epoch stamped
/// on every dispatch.
pub(crate) struct TileRun<'a> {
    /// Dataset id the tiles refer to.
    pub dataset: &'a str,
    /// Wire form of the kernel spec.
    pub kernel: &'a Json,
    /// The tile grid: index pairs per tile.
    pub tiles: &'a [Vec<(usize, usize)>],
    /// Ordered structural keys of the dataset (re-ship path).
    pub keys: &'a [GraphKey],
    /// The dataset's graphs (re-ship path).
    pub graphs: &'a [Graph],
    /// The fitted model's artifact `(id, payload)` (re-ship path).
    pub artifact: (&'a str, &'a str),
    /// Membership epoch at dispatch time.
    pub epoch: usize,
    /// Scheduler knobs.
    pub config: &'a DistConfig,
    /// The coordinator's shipping counters, which re-ships also feed.
    pub ships: &'a ShipCounters,
}

/// Shared scheduling state over one Gram's tile list.
struct Shared<'a> {
    tiles: &'a [Vec<(usize, usize)>],
    queue: Mutex<SchedState>,
    /// Notified whenever `queue` changes in a way an idle dispatcher can
    /// act on: a commit or a requeue.
    changed: Condvar,
    results: Vec<OnceLock<Vec<f64>>>,
}

struct SchedState {
    /// Tiles waiting for a first (or re-) dispatch.
    queue: VecDeque<usize>,
    /// In-flight tiles and their latest dispatch time.
    inflight: HashMap<usize, Instant>,
    /// Per-tile completion flags.
    done: Vec<bool>,
    /// Tiles not yet committed.
    remaining: usize,
}

/// How one worker's dispatch loop ended.
enum LoopExit {
    /// All tiles committed; the connection survives.
    Done,
    /// The worker died (its tiles have been requeued).
    Died,
    /// The worker is draining out of membership (tiles requeued; the
    /// connection is discarded without counting a death).
    Drained,
}

/// Runs the tile list over the given worker connections; returns one
/// `Some(values)` per committed tile (in tile order) with `None` for tiles
/// no worker completed. Connections of surviving workers are checked back
/// into their links; dead and draining workers' connections are dropped.
pub(crate) fn run_tiles(
    workers: Vec<(Arc<WorkerLink>, Conn)>,
    run: &TileRun<'_>,
) -> Vec<Option<Vec<f64>>> {
    let shared = Shared {
        tiles: run.tiles,
        queue: Mutex::new(SchedState {
            queue: (0..run.tiles.len()).collect(),
            inflight: HashMap::new(),
            done: vec![false; run.tiles.len()],
            remaining: run.tiles.len(),
        }),
        changed: Condvar::new(),
        results: (0..run.tiles.len()).map(|_| OnceLock::new()).collect(),
    };

    // The caller's trace context (the serving request's span, typically)
    // rides into every per-worker dispatch thread: tile dispatches are
    // stamped with it, and worker-returned spans merge under it — one
    // trace covers request → Gram → tile → remote eigensolve.
    let trace_ctx = haqjsk_obs::TraceContext::current();
    std::thread::scope(|scope| {
        for (link, mut conn) in workers {
            let shared = &shared;
            scope.spawn(move || {
                let _trace = haqjsk_obs::TraceContext::attach(trace_ctx);
                match worker_loop(&link, &mut conn, shared, run) {
                    LoopExit::Done => link.checkin(conn),
                    LoopExit::Died => link.mark_dead(),
                    LoopExit::Drained => {}
                }
            });
        }
    });

    shared
        .results
        .into_iter()
        .map(|slot| slot.into_inner())
        .collect()
}

/// Claims the next tile for a worker: queued tiles first, then any
/// in-flight tile whose deadline has expired (straggler re-dispatch).
/// `own` is the claimer's in-flight list — re-claiming one's own straggler
/// would be pointless.
fn claim(
    shared: &Shared<'_>,
    own: &VecDeque<usize>,
    link: &WorkerLink,
    config: &DistConfig,
) -> Option<usize> {
    let mut state = shared.queue.lock().expect("scheduler state poisoned");
    if state.remaining == 0 {
        return None;
    }
    while let Some(tile) = state.queue.pop_front() {
        if !state.done[tile] {
            state.inflight.insert(tile, Instant::now());
            return Some(tile);
        }
    }
    let now = Instant::now();
    let straggler = state
        .inflight
        .iter()
        .filter(|&(tile, since)| {
            !own.contains(tile) && now.duration_since(*since) >= config.deadline
        })
        .map(|(&tile, _)| tile)
        .next();
    if let Some(tile) = straggler {
        state.inflight.insert(tile, now);
        link.tiles_redispatched.fetch_add(1, Ordering::Relaxed);
    }
    straggler
}

/// Commits one tile result; idempotent (re-dispatched duplicates lose).
/// The winning commit returns the dispatch-to-commit round trip (measured
/// from the most recent in-flight stamp) for the worker's RPC histogram.
fn commit(shared: &Shared<'_>, tile: usize, values: Vec<f64>) -> Option<Duration> {
    let _ = shared.results[tile].set(values);
    let mut state = shared.queue.lock().expect("scheduler state poisoned");
    if !state.done[tile] {
        state.done[tile] = true;
        state.remaining -= 1;
        shared.changed.notify_all();
        state.inflight.remove(&tile).map(|since| since.elapsed())
    } else {
        None
    }
}

/// Requeues a dead worker's unfinished in-flight tiles at the queue front.
fn requeue(shared: &Shared<'_>, own: &VecDeque<usize>) {
    let mut state = shared.queue.lock().expect("scheduler state poisoned");
    for &tile in own {
        if !state.done[tile] {
            state.inflight.remove(&tile);
            state.queue.push_front(tile);
        }
    }
    shared.changed.notify_all();
}

/// Requeues one tile (the store-miss path: the tile was answered but not
/// computed).
fn requeue_one(shared: &Shared<'_>, tile: usize) {
    let mut state = shared.queue.lock().expect("scheduler state poisoned");
    if !state.done[tile] {
        state.inflight.remove(&tile);
        state.queue.push_front(tile);
        shared.changed.notify_all();
    }
}

/// Blocks a dispatcher with nothing in flight and nothing to claim until
/// the state can offer it work: a commit or requeue notifies `changed`,
/// and the earliest in-flight tile's deadline expiring makes that tile a
/// claimable straggler, so the wait times out then. Returns `true`,
/// without waiting, once every tile is committed.
fn wait_idle(shared: &Shared<'_>, config: &DistConfig) -> bool {
    let state = shared.queue.lock().expect("scheduler state poisoned");
    if state.remaining == 0 {
        return true;
    }
    if !state.queue.is_empty() {
        return false;
    }
    let timeout = state
        .inflight
        .values()
        .min()
        .map_or(config.deadline, |&since| {
            (since + config.deadline).saturating_duration_since(Instant::now())
        });
    let _woken = shared
        .changed
        .wait_timeout(state, timeout)
        .expect("scheduler state poisoned");
    false
}

/// One worker's dispatch loop (see [`LoopExit`] for the endings).
fn worker_loop(
    link: &WorkerLink,
    conn: &mut Conn,
    shared: &Shared<'_>,
    run: &TileRun<'_>,
) -> LoopExit {
    let config = run.config;
    let trace_ctx = haqjsk_obs::TraceContext::current();
    let mut own: VecDeque<usize> = VecDeque::new();
    // A read timeout alone does not kill the worker: a tile can
    // legitimately take longer than the straggler deadline (its tiles
    // become claimable by idle peers meanwhile — duplicates are harmless).
    // Two consecutive deadlines with zero responses means hung, which
    // bounds the worst case (a hung sole worker) at 2x deadline before the
    // local fallback takes over.
    let mut silent_deadlines = 0u32;
    // Accumulated store-miss repair work: dataset graphs and/or the model
    // artifact to re-ship once the pipeline has drained.
    let mut reship: Option<bool> = None;
    loop {
        // A drain request (remove_worker) takes effect at the next
        // iteration: requeue and bow out without counting a death.
        if link.state() == LinkState::Draining {
            requeue(shared, &own);
            return LoopExit::Drained;
        }

        // A pending store-miss repair blocks new claims; once the pipeline
        // has drained, re-ship over this same connection and resume.
        if let Some(artifact_missing) = reship {
            if own.is_empty() {
                if run.ships.ship(link, conn, run, artifact_missing).is_err() {
                    return LoopExit::Died;
                }
                reship = None;
            }
        } else {
            // Top the pipeline up to the outstanding-tile window.
            while own.len() < config.window.max(1) {
                let Some(tile) = claim(shared, &own, link, config) else {
                    break;
                };
                let request = wire::tile_request(
                    run.dataset,
                    tile,
                    run.kernel,
                    &shared.tiles[tile],
                    run.epoch,
                    trace_ctx.as_ref(),
                );
                match conn.send(&request) {
                    Ok(bytes) => {
                        link.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
                        link.tiles_dispatched.fetch_add(1, Ordering::Relaxed);
                        own.push_back(tile);
                    }
                    Err(_) => {
                        // The claimed tile never reached the worker: requeue
                        // it along with everything else in flight here.
                        own.push_back(tile);
                        requeue(shared, &own);
                        return LoopExit::Died;
                    }
                }
            }
        }

        if own.is_empty() {
            if reship.is_some() {
                continue;
            }
            // Nothing claimable right now: other workers hold the remaining
            // tiles within their deadline. Wait for a commit, a requeue
            // (a death frees work) or the earliest deadline to expire.
            if wait_idle(shared, config) {
                return LoopExit::Done;
            }
            continue;
        }

        match conn.recv(Some(config.deadline)) {
            Ok(response) => match wire::parse_tile_reply(&response) {
                Ok(TileReply::Values(tile))
                    if shared.tiles.get(tile.job).map(Vec::len) == Some(tile.values.len()) =>
                {
                    silent_deadlines = 0;
                    if let Some(pos) = own.iter().position(|&t| t == tile.job) {
                        own.remove(pos);
                    }
                    link.tiles_completed.fetch_add(1, Ordering::Relaxed);
                    if let Some(round_trip) = commit(shared, tile.job, tile.values) {
                        crate::obs::rpc_histogram(&link.addr).observe_duration(round_trip);
                        // The winning commit records the coordinator-side
                        // tile span (back-dated by the round trip) and
                        // splices the worker's span records into the local
                        // ring, tagged with the worker's address.
                        haqjsk_obs::record_span("dist_tile", round_trip);
                        haqjsk_obs::merge_spans(&link.addr, wire::reply_spans(&response));
                    }
                }
                Ok(TileReply::StoreMiss {
                    job,
                    artifact_missing,
                    ..
                }) if own.contains(&job) => {
                    // Recoverable: the worker's bounded store evicted part
                    // of the dataset (or the model). The tile was not
                    // computed — requeue it and schedule a re-ship.
                    silent_deadlines = 0;
                    if let Some(pos) = own.iter().position(|&t| t == job) {
                        own.remove(pos);
                    }
                    link.store_misses.fetch_add(1, Ordering::Relaxed);
                    requeue_one(shared, job);
                    reship = Some(reship.unwrap_or(false) | artifact_missing);
                }
                // Error responses, unknown jobs and short value vectors all
                // mean the worker is unreliable: give up on it.
                _ => {
                    requeue(shared, &own);
                    return LoopExit::Died;
                }
            },
            Err(e) if e.timed_out => {
                silent_deadlines += 1;
                if silent_deadlines >= 2 {
                    requeue(shared, &own);
                    return LoopExit::Died;
                }
                // Keep waiting; meanwhile idle peers can already claim the
                // overdue tiles through the straggler path.
            }
            Err(_) => {
                // Hangup or transport error: the connection is gone.
                requeue(shared, &own);
                return LoopExit::Died;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    fn test_config() -> DistConfig {
        DistConfig {
            window: 2,
            deadline: Duration::from_millis(150),
            connect_timeout: Duration::from_millis(500),
            ..DistConfig::default()
        }
    }

    /// Spawns a scripted "worker" that answers the ping handshake, then
    /// hands the connection to `script`.
    fn scripted_worker(
        script: impl FnOnce(TcpStream, BufReader<TcpStream>) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // ping
            stream
                .write_all(b"{\"ok\":true,\"pong\":true,\"role\":\"worker\"}\n")
                .unwrap();
            script(stream, reader);
        });
        (addr, handle)
    }

    /// Runs two tiles against one scripted worker; returns the results and
    /// the link for counter assertions.
    fn run_against(addr: &str, config: &DistConfig) -> (Vec<Option<Vec<f64>>>, Arc<WorkerLink>) {
        let epoch = Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let link = Arc::new(WorkerLink::new(addr.to_string(), epoch));
        let conn = link.checkout(config).expect("scripted worker reachable");
        let tiles = vec![vec![(0, 0), (0, 1)], vec![(1, 1)]];
        let kernel = Json::obj([("id", Json::Str("test".to_string()))]);
        let run = TileRun {
            dataset: "feedbeef",
            kernel: &kernel,
            tiles: &tiles,
            keys: &[],
            graphs: &[],
            artifact: ("", ""),
            epoch: 1,
            config,
            ships: &ShipCounters::default(),
        };
        let results = run_tiles(vec![(Arc::clone(&link), conn)], &run);
        (results, link)
    }

    /// Every failure mode must collapse to: mark dead (one death), requeue
    /// (all results `None` — the local fallback finishes the Gram).
    #[test]
    fn midstream_eof_collapses_to_death_and_requeue() {
        let (addr, handle) = scripted_worker(|stream, mut reader| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // first tile request
            drop(stream); // hang up without answering
        });
        let config = test_config();
        let (results, link) = run_against(&addr, &config);
        handle.join().unwrap();
        assert!(results.iter().all(Option::is_none));
        assert_eq!(link.stats().deaths, 1);
        assert_eq!(link.state(), LinkState::Probation);
    }

    #[test]
    fn malformed_response_collapses_to_death_and_requeue() {
        let (addr, handle) = scripted_worker(|mut stream, mut reader| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            stream.write_all(b"not json at all\n").unwrap();
            // Keep the socket open so EOF is not the trigger.
            std::thread::sleep(Duration::from_millis(300));
        });
        let config = test_config();
        let (results, link) = run_against(&addr, &config);
        handle.join().unwrap();
        assert!(results.iter().all(Option::is_none));
        assert_eq!(link.stats().deaths, 1);
    }

    #[test]
    fn silent_deadline_timeouts_collapse_to_death_and_requeue() {
        let (addr, handle) = scripted_worker(|stream, mut reader| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            // Answer nothing for well past two deadlines.
            std::thread::sleep(Duration::from_millis(600));
            drop(stream);
        });
        let config = test_config();
        let (results, link) = run_against(&addr, &config);
        handle.join().unwrap();
        assert!(results.iter().all(Option::is_none));
        assert_eq!(link.stats().deaths, 1);
    }

    #[test]
    fn error_response_collapses_to_death_and_requeue() {
        let (addr, handle) = scripted_worker(|mut stream, mut reader| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            stream
                .write_all(b"{\"ok\":false,\"error\":\"injected\"}\n")
                .unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let config = test_config();
        let (results, link) = run_against(&addr, &config);
        handle.join().unwrap();
        assert!(results.iter().all(Option::is_none));
        assert_eq!(link.stats().deaths, 1);
    }

    #[test]
    fn connect_refused_never_yields_a_connection() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let epoch = Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let link = Arc::new(WorkerLink::new(addr, epoch));
        assert!(link.checkout(&test_config()).is_none());
        assert_eq!(link.state(), LinkState::Probation);
    }

    /// The reply a scripted worker sends for one tile request: each pair
    /// `(i, j)` evaluates to `10 i + j`.
    fn scripted_reply(line: &str) -> String {
        let request = Json::parse(line.trim()).unwrap();
        let job = request.get("job").and_then(Json::as_usize).unwrap();
        let values: Vec<String> = request
            .get("pairs")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|pair| {
                let pair = pair.as_array().unwrap();
                let (i, j) = (pair[0].as_usize().unwrap(), pair[1].as_usize().unwrap());
                format!("{}.0", 10 * i + j)
            })
            .collect();
        format!(
            "{{\"ok\":true,\"job\":{job},\"values\":[{}]}}\n",
            values.join(",")
        )
    }

    /// An idle dispatcher wakes when a peer's tile passes its deadline:
    /// the straggler is re-dispatched to the answering worker and the Gram
    /// commits every tile long before the silent worker would have died.
    #[test]
    fn idle_dispatcher_redispatches_a_silent_straggler_at_its_deadline() {
        let (holding, held) = std::sync::mpsc::channel::<()>();
        let (silent_addr, silent) = scripted_worker(move |mut stream, mut reader| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            holding.send(()).unwrap();
            // Silent past the deadline, answering well before a second
            // deadline would count the worker hung.
            std::thread::sleep(Duration::from_millis(250));
            stream.write_all(scripted_reply(&line).as_bytes()).unwrap();
        });
        let (healthy_addr, healthy) = scripted_worker(move |mut stream, mut reader| {
            // Answer nothing until the silent worker holds its tile.
            held.recv().unwrap();
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                stream.write_all(scripted_reply(&line).as_bytes()).unwrap();
                line.clear();
            }
        });
        // One tile in flight per worker, so the silent one holds exactly
        // one tile.
        let config = DistConfig {
            window: 1,
            ..test_config()
        };
        let epoch = Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let links: Vec<Arc<WorkerLink>> = [&healthy_addr, &silent_addr]
            .iter()
            .map(|addr| Arc::new(WorkerLink::new(addr.to_string(), Arc::clone(&epoch))))
            .collect();
        let workers = links
            .iter()
            .map(|link| {
                let conn = link.checkout(&config).expect("scripted worker reachable");
                (Arc::clone(link), conn)
            })
            .collect();
        let tiles: Vec<Vec<(usize, usize)>> = (0..6).map(|t| vec![(t, t), (t, t + 1)]).collect();
        let kernel = Json::obj([("id", Json::Str("test".to_string()))]);
        let run = TileRun {
            dataset: "feedbeef",
            kernel: &kernel,
            tiles: &tiles,
            keys: &[],
            graphs: &[],
            artifact: ("", ""),
            epoch: 1,
            config: &config,
            ships: &ShipCounters::default(),
        };
        let started = Instant::now();
        let results = run_tiles(workers, &run);
        let elapsed = started.elapsed();

        for (tile, result) in tiles.iter().zip(&results) {
            let expected: Vec<f64> = tile.iter().map(|&(i, j)| (10 * i + j) as f64).collect();
            assert_eq!(result.as_ref(), Some(&expected));
        }
        assert!(
            elapsed < 3 * config.deadline,
            "the Gram took {elapsed:?} against a {:?} deadline",
            config.deadline
        );
        assert!(
            links[0].stats().tiles_redispatched >= 1,
            "the answering worker took over the straggler: {:?}",
            links[0].stats()
        );
        drop(links);
        silent.join().unwrap();
        healthy.join().unwrap();
    }

    /// A worker that answers tiles normally: the happy path commits every
    /// tile and checks the connection back in.
    #[test]
    fn healthy_worker_commits_all_tiles() {
        let (addr, handle) = scripted_worker(|mut stream, mut reader| {
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let request = Json::parse(line.trim()).unwrap();
                let job = request.get("job").and_then(Json::as_usize).unwrap();
                let pairs = request.get("pairs").and_then(Json::as_array).unwrap().len();
                // Tile requests must carry the membership epoch.
                assert_eq!(request.get("epoch").and_then(Json::as_usize), Some(1));
                let values: Vec<String> = (0..pairs).map(|k| format!("{}.0", job + k)).collect();
                let reply = format!(
                    "{{\"ok\":true,\"job\":{job},\"values\":[{}]}}\n",
                    values.join(",")
                );
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        let config = test_config();
        let (results, link) = run_against(&addr, &config);
        handle.join().unwrap();
        assert!(results.iter().all(Option::is_some));
        let stats = link.stats();
        assert_eq!(stats.deaths, 0);
        assert_eq!(stats.tiles_completed, 2);
        assert_eq!(link.state(), LinkState::Alive);
    }
}
