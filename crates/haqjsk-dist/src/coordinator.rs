//! The coordinator: the remote-tiles hook's fan-out over worker processes.
//!
//! A [`Coordinator`] owns one [`WorkerLink`] per member worker and executes
//! Gram computations that carry a serialisable [`RemoteGram`] spec by (1)
//! shipping the dataset — and, for fitted-model kernels, the persisted
//! model artifact — to every reachable worker (content-hash-deduplicated —
//! re-fits with overlapping datasets only ship new graphs), (2) running the
//! tile list through the private `scheduler` module with an
//! outstanding-tile window per worker and deadline-based straggler
//! re-dispatch, and (3) evaluating any tiles no worker returned with the
//! kernel's local tile evaluator. The resulting matrix is
//! **byte-identical** to the serial backend regardless of which worker
//! computed which tile, because tile values are deterministic functions of
//! (kernel, dataset, pair) and `f64`s round-trip bit-exactly through the
//! JSON wire format.
//!
//! Gram computations *without* a spec never reach the coordinator, and the
//! ones it declines (kernels the wire format cannot express, no reachable
//! worker) run on the engine's local tile scheduler — selecting the
//! distributed backend never makes a computation fail or change value,
//! only (where possible) relocates it.
//!
//! ## Elastic membership
//!
//! Membership is dynamic: [`Coordinator::add_worker`] joins a worker to a
//! *running* coordinator (it receives the dataset and any model artifact
//! at the next Gram before taking tiles) and
//! [`Coordinator::remove_worker`] drains one out (its in-flight tiles
//! requeue through the ordinary death-recovery path). Every join, death,
//! revival and drain bumps the **membership epoch**, which is stamped on
//! every tile dispatch and exported as a metric. Dead workers sit in
//! probation, redialed by a background thread on a jittered exponential
//! backoff (see [`crate::fault`]), so a restarted worker rejoins without
//! intervention.

use crate::chaos::ChaosPlan;
use crate::dataset::{dataset_id, dataset_keys, SHIP_CHUNK};
use crate::fault::{Conn, LinkState, WorkerLink, WorkerStatsSnapshot};
use crate::scheduler::{self, TileRun};
use crate::wire::{self, KernelSpec};
use haqjsk_engine::{gram, Json, RemoteGram, TileEvaluator, WorkerPool};
use haqjsk_graph::Graph;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Environment variable bounding in-flight tiles per worker connection.
pub const DIST_WINDOW_ENV_VAR: &str = "HAQJSK_DIST_WINDOW";

/// Environment variable setting the straggler re-dispatch deadline, in
/// milliseconds.
pub const DIST_DEADLINE_ENV_VAR: &str = "HAQJSK_DIST_DEADLINE_MS";

/// Environment variable setting the worker connect timeout, in
/// milliseconds.
pub const DIST_CONNECT_TIMEOUT_ENV_VAR: &str = "HAQJSK_DIST_CONNECT_TIMEOUT_MS";

/// Environment variable setting the first probation-retry backoff, in
/// milliseconds (doubles per failed attempt).
pub const DIST_RECONNECT_BASE_ENV_VAR: &str = "HAQJSK_DIST_RECONNECT_BASE_MS";

/// Environment variable capping the probation-retry backoff, in
/// milliseconds.
pub const DIST_RECONNECT_MAX_ENV_VAR: &str = "HAQJSK_DIST_RECONNECT_MAX_MS";

/// How often the probation thread wakes to check for due retries.
const PROBATION_POLL: Duration = Duration::from_millis(50);

/// Tuning knobs of the distributed scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Outstanding-tile window per worker connection: how many tile
    /// requests are pipelined before waiting for a response. Larger
    /// windows hide latency; smaller windows lose less work on death.
    pub window: usize,
    /// How long a dispatched tile may stay unanswered before it becomes
    /// claimable by other workers (and its worker is considered hung).
    pub deadline: Duration,
    /// Back-off while a worker has nothing claimable.
    pub idle_backoff: Duration,
    /// Connect (and handshake) timeout per worker.
    pub connect_timeout: Duration,
    /// First probation-retry backoff (doubles per failed attempt, with
    /// ±50% jitter).
    pub reconnect_base: Duration,
    /// Probation-retry backoff cap.
    pub reconnect_max: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            window: 2,
            deadline: Duration::from_secs(10),
            idle_backoff: Duration::from_millis(2),
            connect_timeout: Duration::from_secs(5),
            reconnect_base: Duration::from_millis(200),
            reconnect_max: Duration::from_secs(5),
        }
    }
}

impl DistConfig {
    /// The defaults with the `HAQJSK_DIST_*` environment overrides applied
    /// on top.
    pub fn from_env() -> DistConfig {
        let mut config = DistConfig::default();
        let read = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|raw| raw.trim().parse::<u64>().ok())
        };
        if let Some(window) = read(DIST_WINDOW_ENV_VAR) {
            config.window = (window as usize).max(1);
        }
        if let Some(ms) = read(DIST_DEADLINE_ENV_VAR) {
            config.deadline = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = read(DIST_CONNECT_TIMEOUT_ENV_VAR) {
            config.connect_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = read(DIST_RECONNECT_BASE_ENV_VAR) {
            config.reconnect_base = Duration::from_millis(ms.max(1));
        }
        if let Some(ms) = read(DIST_RECONNECT_MAX_ENV_VAR) {
            config.reconnect_max = Duration::from_millis(ms.max(1));
        }
        config
    }
}

/// Aggregate distributed-pool state, for `stats` responses and benchmark
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistStats {
    /// Per-worker counters, in membership order.
    pub workers: Vec<WorkerStatsSnapshot>,
    /// The membership epoch (bumped on every join/death/revival/drain).
    pub epoch: usize,
    /// Gram computations routed through the coordinator.
    pub grams: usize,
    /// Gram computations executed entirely locally (no spec, or no
    /// reachable worker).
    pub local_fallback_grams: usize,
    /// Tiles handed to the scheduler across all distributed Grams.
    pub tiles_scheduled: usize,
    /// Tiles committed from worker results.
    pub tiles_committed: usize,
    /// Tiles evaluated by the coordinator's local fallback after worker
    /// failures (`tiles_scheduled == tiles_committed +
    /// local_fallback_tiles` — the zero-lost-tiles invariant).
    pub local_fallback_tiles: usize,
    /// Graph keys announced across all dataset shipping rounds.
    pub dataset_keys_total: usize,
    /// Graph keys whose graphs actually had to be shipped (the rest were
    /// dedup hits already resident on the worker).
    pub dataset_keys_shipped: usize,
    /// Model artifacts that actually travelled to a worker (dedup misses).
    pub artifacts_shipped: usize,
}

impl DistStats {
    /// Fraction of announced keys answered from worker-resident graphs
    /// (1.0 = nothing needed shipping).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dataset_keys_total == 0 {
            0.0
        } else {
            1.0 - self.dataset_keys_shipped as f64 / self.dataset_keys_total as f64
        }
    }

    /// Total `store_miss` replies across the pool.
    pub fn store_misses(&self) -> usize {
        self.workers.iter().map(|w| w.store_misses).sum()
    }

    /// Total probation revivals across the pool.
    pub fn reconnects(&self) -> usize {
        self.workers.iter().map(|w| w.reconnects).sum()
    }
}

/// The coordinator of a distributed worker pool.
pub struct Coordinator {
    workers: Arc<RwLock<Vec<Arc<WorkerLink>>>>,
    config: DistConfig,
    epoch: Arc<AtomicUsize>,
    grams: AtomicUsize,
    local_fallback_grams: AtomicUsize,
    tiles_scheduled: AtomicUsize,
    tiles_committed: AtomicUsize,
    local_fallback_tiles: AtomicUsize,
    dataset_keys_total: AtomicUsize,
    dataset_keys_shipped: AtomicUsize,
    artifacts_shipped: AtomicUsize,
    probation_shutdown: Arc<AtomicBool>,
    probation_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Coordinator {
    /// Creates a coordinator over `addrs`, requiring at least one worker to
    /// answer the ping handshake (catching dead configuration at startup).
    /// Unreachable addresses are retried once after a short backoff; any
    /// that stay down are warned about loudly and parked in probation —
    /// the background reconnect thread keeps redialing them, so a late
    /// starter still joins. Errors only when *zero* workers connect.
    pub fn connect(addrs: &[String], config: DistConfig) -> Result<Coordinator, String> {
        if addrs.is_empty() {
            return Err("distributed backend needs at least one worker address".to_string());
        }
        let epoch = Arc::new(AtomicUsize::new(0));
        let workers: Vec<Arc<WorkerLink>> = addrs
            .iter()
            .map(|addr| Arc::new(WorkerLink::new(addr.clone(), Arc::clone(&epoch))))
            .collect();
        let mut failures: Vec<(usize, String)> = Vec::new();
        let mut reachable = 0;
        for (index, link) in workers.iter().enumerate() {
            match Conn::connect(&link.addr, config.connect_timeout) {
                Ok(conn) => {
                    link.note_revival();
                    link.checkin(conn);
                    reachable += 1;
                }
                Err(e) => failures.push((index, e)),
            }
        }
        // One retry round with a short backoff: a worker pool booting in
        // parallel with its coordinator is the common transient.
        if !failures.is_empty() {
            std::thread::sleep(config.connect_timeout.min(Duration::from_millis(100)));
            let mut still_down = Vec::new();
            for (index, _) in failures.drain(..) {
                let link = &workers[index];
                match Conn::connect(&link.addr, config.connect_timeout) {
                    Ok(conn) => {
                        link.note_revival();
                        link.checkin(conn);
                        reachable += 1;
                    }
                    Err(e) => still_down.push((index, e)),
                }
            }
            failures = still_down;
        }
        if reachable == 0 {
            return Err(format!(
                "no distributed worker reachable: {}",
                failures
                    .iter()
                    .map(|(_, e)| e.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
        for (index, error) in &failures {
            let link = &workers[*index];
            link.schedule_retry(&config);
            eprintln!(
                "haqjsk-dist: WARNING: worker {} unreachable ({error}); \
                 proceeding degraded with {reachable}/{} workers — the \
                 address stays in probation and will be retried with backoff",
                link.addr,
                workers.len(),
            );
        }
        let coordinator = Coordinator {
            workers: Arc::new(RwLock::new(workers)),
            config,
            epoch,
            grams: AtomicUsize::new(0),
            local_fallback_grams: AtomicUsize::new(0),
            tiles_scheduled: AtomicUsize::new(0),
            tiles_committed: AtomicUsize::new(0),
            local_fallback_tiles: AtomicUsize::new(0),
            dataset_keys_total: AtomicUsize::new(0),
            dataset_keys_shipped: AtomicUsize::new(0),
            artifacts_shipped: AtomicUsize::new(0),
            probation_shutdown: Arc::new(AtomicBool::new(false)),
            probation_thread: Mutex::new(None),
        };
        coordinator.spawn_probation_thread();
        Ok(coordinator)
    }

    /// Starts the background reconnect thread: probationed links whose
    /// backoff has expired are redialed; success revives them (bumping the
    /// epoch), failure reschedules with a longer backoff.
    fn spawn_probation_thread(&self) {
        let workers = Arc::clone(&self.workers);
        let shutdown = Arc::clone(&self.probation_shutdown);
        let config = self.config;
        let handle = std::thread::Builder::new()
            .name("haqjsk-dist-probation".to_string())
            .spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(PROBATION_POLL);
                    let snapshot: Vec<Arc<WorkerLink>> =
                        workers.read().expect("worker list poisoned").clone();
                    for link in snapshot {
                        if link.state() != LinkState::Probation || !link.retry_due() {
                            continue;
                        }
                        match Conn::connect(&link.addr, config.connect_timeout) {
                            Ok(conn) => {
                                link.note_revival();
                                link.checkin(conn);
                            }
                            Err(_) => link.schedule_retry(&config),
                        }
                    }
                }
            })
            .expect("cannot spawn the probation thread");
        *self
            .probation_thread
            .lock()
            .expect("probation handle poisoned") = Some(handle);
    }

    /// Adds a worker to the running pool, requiring it to answer the ping
    /// handshake right now. The new member receives the dataset (and any
    /// model artifact) through the ordinary shipping phase of the next
    /// Gram before it takes tiles. Bumps the membership epoch.
    pub fn add_worker(&self, addr: &str) -> Result<(), String> {
        {
            let workers = self.workers.read().expect("worker list poisoned");
            if workers
                .iter()
                .any(|w| w.addr == addr && w.state() != LinkState::Draining)
            {
                return Err(format!("worker {addr} is already a member"));
            }
        }
        let conn = Conn::connect(addr, self.config.connect_timeout)?;
        let link = Arc::new(WorkerLink::new(addr.to_string(), Arc::clone(&self.epoch)));
        link.note_revival();
        link.checkin(conn);
        self.workers
            .write()
            .expect("worker list poisoned")
            .push(link);
        Ok(())
    }

    /// Removes a worker from membership: the link starts draining (no new
    /// tiles; in-flight tiles requeue through death recovery) and leaves
    /// the pool. Bumps the membership epoch.
    pub fn remove_worker(&self, addr: &str) -> Result<(), String> {
        let link = {
            let mut workers = self.workers.write().expect("worker list poisoned");
            let position = workers
                .iter()
                .position(|w| w.addr == addr)
                .ok_or_else(|| format!("worker {addr} is not a member"))?;
            workers.remove(position)
        };
        link.begin_drain();
        Ok(())
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of member workers.
    pub fn num_workers(&self) -> usize {
        self.workers.read().expect("worker list poisoned").len()
    }

    /// The scheduler configuration.
    pub fn config(&self) -> DistConfig {
        self.config
    }

    fn members(&self) -> Vec<Arc<WorkerLink>> {
        self.workers.read().expect("worker list poisoned").clone()
    }

    /// Snapshot of the pool state.
    pub fn stats(&self) -> DistStats {
        DistStats {
            workers: self.members().iter().map(|w| w.stats()).collect(),
            epoch: self.epoch(),
            grams: self.grams.load(Ordering::Relaxed),
            local_fallback_grams: self.local_fallback_grams.load(Ordering::Relaxed),
            tiles_scheduled: self.tiles_scheduled.load(Ordering::Relaxed),
            tiles_committed: self.tiles_committed.load(Ordering::Relaxed),
            local_fallback_tiles: self.local_fallback_tiles.load(Ordering::Relaxed),
            dataset_keys_total: self.dataset_keys_total.load(Ordering::Relaxed),
            dataset_keys_shipped: self.dataset_keys_shipped.load(Ordering::Relaxed),
            artifacts_shipped: self.artifacts_shipped.load(Ordering::Relaxed),
        }
    }

    /// Chaos hook: arms `fail_after` on worker `index` — it will serve
    /// `tiles` more tile requests, then fail and hang up. Used by the
    /// fault-injection tests to kill a worker deterministically mid-Gram.
    pub fn inject_worker_fault(&self, index: usize, tiles: usize) -> Result<(), String> {
        let link = self
            .members()
            .get(index)
            .cloned()
            .ok_or_else(|| format!("no worker at index {index}"))?;
        let mut conn = link
            .checkout(&self.config)
            .ok_or_else(|| format!("worker {} unreachable", link.addr))?;
        let request = Json::obj([
            ("cmd", Json::Str("fail_after".to_string())),
            ("tiles", Json::Num(tiles as f64)),
        ]);
        let result = conn.call(&request, Some(self.config.deadline));
        link.checkin(conn);
        result.map(|_| ())
    }

    /// Arms (or, with `None`, disarms) a seeded chaos plan on every
    /// reachable worker; returns how many workers acknowledged.
    pub fn arm_chaos(&self, plan: Option<&ChaosPlan>) -> Result<usize, String> {
        let request = wire::chaos_request(plan);
        let mut armed = 0;
        for link in self.members() {
            let Some(mut conn) = link.checkout(&self.config) else {
                continue;
            };
            match conn.call(&request, Some(self.config.deadline)) {
                Ok(_) => {
                    link.checkin(conn);
                    armed += 1;
                }
                Err(_) => link.mark_dead(),
            }
        }
        if armed == 0 {
            return Err("no worker acknowledged the chaos plan".to_string());
        }
        Ok(armed)
    }

    /// The distributed Gram entry point (called by the remote-tiles hook):
    /// the full upper-triangle grid of tile width `tile`, or `None` when
    /// the Gram should run locally instead.
    pub(crate) fn gram_tiles(
        &self,
        pool: &WorkerPool,
        n: usize,
        tile: usize,
        eval: &dyn TileEvaluator,
        spec: &RemoteGram<'_>,
    ) -> Option<Matrix> {
        self.grams.fetch_add(1, Ordering::Relaxed);
        // Anything the wire format cannot express executes locally.
        let Some(kernel) = KernelSpec::from_remote(spec) else {
            return self.decline();
        };
        if spec.graphs.len() != n || n == 0 {
            return self.decline();
        }
        let artifact = spec
            .artifact
            .as_ref()
            .map(|artifact| (artifact.id.as_str(), artifact.payload));

        // Dataset (and artifact) shipping to every currently reachable
        // member — one scoped thread per link, so connect timeouts and
        // shipping round trips overlap instead of stacking up serially
        // before the first tile can go out. A worker that joined since the
        // last Gram receives everything here, before taking tiles.
        let members = self.members();
        let keys = dataset_keys(spec.graphs);
        let id = dataset_id(&keys);
        let ready: Mutex<Vec<(Arc<WorkerLink>, Conn)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for link in &members {
                let (keys, id, ready) = (&keys, &id, &ready);
                scope.spawn(move || {
                    let Some(mut conn) = link.checkout(&self.config) else {
                        return;
                    };
                    match ship_dataset(link, &mut conn, id, keys, spec.graphs, &self.config) {
                        Ok(shipped) => {
                            self.dataset_keys_total
                                .fetch_add(keys.len(), Ordering::Relaxed);
                            self.dataset_keys_shipped
                                .fetch_add(shipped, Ordering::Relaxed);
                            link.datasets_shipped.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            link.mark_dead();
                            return;
                        }
                    }
                    if let Some((artifact_id, payload)) = artifact {
                        match ship_artifact(link, &mut conn, artifact_id, payload, &self.config) {
                            Ok(true) => {
                                self.artifacts_shipped.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(false) => {}
                            Err(_) => {
                                link.mark_dead();
                                return;
                            }
                        }
                    }
                    ready
                        .lock()
                        .expect("ship list poisoned")
                        .push((Arc::clone(link), conn));
                });
            }
        });
        let mut ready = ready.into_inner().expect("ship list poisoned");
        // Deterministic thread order (stats, scheduling fairness) despite
        // the parallel shipping.
        ready.sort_by_key(|(link, _)| {
            members
                .iter()
                .position(|w| Arc::ptr_eq(w, link))
                .unwrap_or(usize::MAX)
        });
        if ready.is_empty() {
            return self.decline();
        }

        // The exact tile grid of the local scheduler.
        let tile = tile.max(1);
        let grid = gram::tile_grid(n, 0, tile);
        let mut tiles: Vec<Vec<(usize, usize)>> = Vec::with_capacity(grid.len());
        let mut pairs = Vec::new();
        for &t in &grid {
            gram::tile_pairs(n, 0, tile, t, &mut pairs);
            tiles.push(pairs.clone());
        }
        self.tiles_scheduled
            .fetch_add(tiles.len(), Ordering::Relaxed);

        let kernel_json = kernel.to_json();
        let run = TileRun {
            dataset: &id,
            kernel: &kernel_json,
            tiles: &tiles,
            keys: &keys,
            graphs: spec.graphs,
            artifact,
            epoch: self.epoch(),
            config: &self.config,
        };
        let results = scheduler::run_tiles(ready, &run);
        self.tiles_committed.fetch_add(
            results.iter().filter(|r| r.is_some()).count(),
            Ordering::Relaxed,
        );

        // Assemble, evaluating leftover tiles locally (worker deaths must
        // never fail a Gram). The leftovers run in parallel on the engine
        // pool — after a total pool loss this is the whole Gram.
        let missing: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(t, _)| t)
            .collect();
        self.local_fallback_tiles
            .fetch_add(missing.len(), Ordering::Relaxed);
        let fallback: Vec<Vec<f64>> = pool.map(missing.len(), |k| {
            let t = missing[k];
            let mut out = vec![0.0; tiles[t].len()];
            eval.eval_tile(&tiles[t], &mut out);
            out
        });

        let mut values = Matrix::zeros(n, n);
        let mut fallback_iter = fallback.into_iter();
        for (t, result) in results.into_iter().enumerate() {
            let block = match result {
                Some(block) => block,
                None => fallback_iter.next().expect("one fallback per missing tile"),
            };
            for (&(i, j), &v) in tiles[t].iter().zip(&block) {
                values[(i, j)] = v;
                values[(j, i)] = v;
            }
        }
        Some(values)
    }

    /// Declines a Gram, counting it as a whole-Gram local fallback; the
    /// engine then runs it on its local tile scheduler.
    fn decline(&self) -> Option<Matrix> {
        self.local_fallback_grams.fetch_add(1, Ordering::Relaxed);
        None
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.probation_shutdown.store(true, Ordering::Release);
        if let Some(handle) = self
            .probation_thread
            .lock()
            .expect("probation handle poisoned")
            .take()
        {
            handle.join().ok();
        }
    }
}

use haqjsk_linalg::Matrix;

/// Ships the dataset to one worker (begin → missing graphs in chunks →
/// commit); returns how many graphs actually travelled. Also the
/// store-miss repair path: a re-ship over the same id sends exactly the
/// graphs the worker's bounded store evicted.
pub(crate) fn ship_dataset(
    link: &WorkerLink,
    conn: &mut Conn,
    id: &str,
    keys: &[haqjsk_engine::GraphKey],
    graphs: &[Graph],
    config: &DistConfig,
) -> Result<usize, String> {
    let timeout = Some(config.deadline);
    let begin = conn.call_counted(link, &wire::dataset_begin_request(id, keys), timeout)?;
    let missing: Vec<usize> = begin
        .get("missing")
        .and_then(Json::as_array)
        .ok_or("dataset_begin response needs 'missing'")?
        .iter()
        .map(|i| {
            i.as_usize()
                .filter(|&i| i < graphs.len())
                .ok_or("bad missing index")
        })
        .collect::<Result<_, _>>()?;
    for chunk in missing.chunks(SHIP_CHUNK) {
        let refs: Vec<&Graph> = chunk.iter().map(|&i| &graphs[i]).collect();
        conn.call_counted(
            link,
            &wire::dataset_graphs_request(id, chunk, &refs),
            timeout,
        )?;
    }
    conn.call_counted(link, &wire::dataset_commit_request(id), timeout)?;
    Ok(missing.len())
}

/// Ships a model artifact to one worker (begin → text chunks → commit);
/// returns whether the payload actually travelled (`false` = the worker
/// already held it).
pub(crate) fn ship_artifact(
    link: &WorkerLink,
    conn: &mut Conn,
    id: &str,
    payload: &str,
    config: &DistConfig,
) -> Result<bool, String> {
    let timeout = Some(config.deadline);
    let begin = conn.call_counted(link, &wire::artifact_begin_request(id), timeout)?;
    if begin.get("have").and_then(Json::as_bool) == Some(true) {
        return Ok(false);
    }
    let mut rest = payload;
    while !rest.is_empty() {
        let mut end = rest.len().min(wire::ARTIFACT_CHUNK);
        while !rest.is_char_boundary(end) {
            end -= 1;
        }
        let (chunk, tail) = rest.split_at(end);
        conn.call_counted(link, &wire::artifact_chunk_request(id, chunk), timeout)?;
        rest = tail;
    }
    conn.call_counted(link, &wire::artifact_commit_request(id), timeout)?;
    Ok(true)
}
