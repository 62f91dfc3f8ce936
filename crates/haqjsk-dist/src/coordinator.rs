//! The coordinator: a fitted model's Gram fanned out over worker processes.
//!
//! A [`Coordinator`] owns one [`WorkerLink`] per member worker and runs
//! fitted-model Grams ([`Coordinator::model_gram`]) by (1) shipping the
//! dataset and the persisted model artifact to every reachable worker (content-hash-deduplicated — re-fits with
//! overlapping datasets only ship new graphs), (2) running the tile list
//! through the private `scheduler` module with an outstanding-tile window
//! per worker and deadline-based straggler re-dispatch, and (3) evaluating
//! any tiles no worker returned with the model's local tile evaluator. The
//! resulting matrix is **byte-identical** to the serial backend regardless
//! of which worker computed which tile, because tile values are
//! deterministic functions of (model, dataset, pair) and `f64`s round-trip
//! bit-exactly through the JSON wire format.
//!
//! Every other Gram (the closed-form baselines, per-pair kernels,
//! extensions) runs on the engine's local tile scheduler and never reaches
//! the coordinator, and a model Gram it declines (no reachable worker)
//! runs there too — a worker pool never makes a computation fail or change
//! value, only (where possible) relocates it.
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

use crate::dataset::{dataset_id, dataset_keys, SHIP_CHUNK};
use crate::fault::{Conn, LinkState, WorkerLink, WorkerStatsSnapshot};
use crate::scheduler::{self, TileRun};
use crate::wire::{self, KernelSpec};
use haqjsk_core::persistence::{model_artifact_id, model_to_string};
use haqjsk_core::{AlignedGraph, HaqjskModel};
use haqjsk_engine::obs::kernel_gram_histogram;
use haqjsk_engine::{gram, Engine, GraphKey, Json, WorkerPool};
use haqjsk_graph::Graph;
use haqjsk_linalg::{LinalgError, Matrix};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A fallible Gram tile evaluator: writes the entries of a tile's pairs.
type FallibleTiles<'a> =
    dyn Fn(&[(usize, usize)], &mut [f64]) -> Result<(), LinalgError> + Sync + 'a;

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

/// How often the probation thread wakes to check for due retries. It
/// parks between polls, so a dropped coordinator wakes it at once.
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
    /// Graph keys announced across all dataset shipping rounds (a Gram's
    /// first round per worker and every store-miss repair).
    pub dataset_keys_total: usize,
    /// Graph keys whose graphs actually had to be shipped (the rest were
    /// dedup hits already resident on the worker).
    pub dataset_keys_shipped: usize,
    /// Model artifacts that actually travelled to a worker (dedup misses),
    /// in a Gram's first round or a store-miss repair.
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
    ships: ShipCounters,
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
            ships: ShipCounters::default(),
            probation_shutdown: Arc::new(AtomicBool::new(false)),
            probation_thread: Mutex::new(None),
        };
        coordinator.spawn_probation_thread();
        Ok(coordinator)
    }

    /// Starts the background reconnect thread: probationed links whose
    /// backoff has expired are redialed; success revives them (bumping the
    /// epoch), failure reschedules with a longer backoff. The thread parks
    /// between polls and re-checks the shutdown flag after every wake, so
    /// `Drop` (which unparks it) never waits out a poll.
    fn spawn_probation_thread(&self) {
        let workers = Arc::clone(&self.workers);
        let shutdown = Arc::clone(&self.probation_shutdown);
        let config = self.config;
        let handle = std::thread::Builder::new()
            .name("haqjsk-dist-probation".to_string())
            .spawn(move || loop {
                std::thread::park_timeout(PROBATION_POLL);
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
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
            dataset_keys_total: self.ships.dataset_keys_total.load(Ordering::Relaxed),
            dataset_keys_shipped: self.ships.dataset_keys_shipped.load(Ordering::Relaxed),
            artifacts_shipped: self.ships.artifacts_shipped.load(Ordering::Relaxed),
        }
    }

    /// The Gram of a fitted `model` over `graphs`, from their transforms
    /// (one per graph, in order), computed on the worker pool:
    /// byte-identical to [`HaqjskModel::gram_over_transforms`] on any
    /// backend. The tiles are the global engine's grid
    /// ([`Engine::tile_width`]); workers rebuild the model from its
    /// persisted artifact, and any tile no worker returns is evaluated
    /// here by [`HaqjskModel::aligned_tiles`]. A Gram the pool runs is
    /// timed into `haqjsk_gram_build_seconds{backend="dist"}` and
    /// `haqjsk_kernel_gram_seconds`; one the coordinator declines (no
    /// reachable worker) is `gram_over_transforms(.., None)`'s, timed by
    /// it.
    pub fn model_gram<A: Borrow<AlignedGraph> + Sync>(
        &self,
        model: &HaqjskModel,
        graphs: &[Graph],
        transforms: &[A],
    ) -> Result<Matrix, LinalgError> {
        let start = Instant::now();
        let n = graphs.len();
        if transforms.len() == n {
            let payload = model_to_string(model);
            let artifact = (model_artifact_id(&payload), payload.as_str());
            let engine = Engine::global();
            let tiles = model.aligned_tiles(transforms);
            let built = Instant::now();
            let tile = engine.tile_width(n);
            if let Some(values) = self.gram_tiles(engine.pool(), tile, &tiles, graphs, artifact)? {
                crate::obs::gram_build_histogram().observe_duration(built.elapsed());
                kernel_gram_histogram(model.variant().label()).observe_duration(start.elapsed());
                return Ok(values);
            }
        }
        model
            .gram_over_transforms(graphs, transforms, None)
            .map(|gram| gram.into_matrix())
    }

    /// The full upper-triangle grid of tile width `tile` over `graphs` on
    /// the workers, with `eval` for the tiles none returns; `None` when
    /// the Gram should run locally instead.
    fn gram_tiles(
        &self,
        pool: &WorkerPool,
        tile: usize,
        eval: &FallibleTiles<'_>,
        graphs: &[Graph],
        (artifact_id, artifact): (String, &str),
    ) -> Result<Option<Matrix>, LinalgError> {
        self.grams.fetch_add(1, Ordering::Relaxed);
        let n = graphs.len();
        if n == 0 {
            return Ok(self.decline());
        }

        // The exact tile grid of the local scheduler.
        let tile = tile.max(1);
        let grid = gram::tile_grid(n, tile);
        let mut tiles: Vec<Vec<(usize, usize)>> = Vec::with_capacity(grid.len());
        let mut pairs = Vec::new();
        for &t in &grid {
            gram::tile_pairs(n, tile, t, &mut pairs);
            tiles.push(pairs.clone());
        }
        let keys = dataset_keys(graphs);
        let id = dataset_id(&keys);
        let kernel = KernelSpec {
            artifact: artifact_id.clone(),
        }
        .to_json();
        let mut run = TileRun {
            dataset: &id,
            kernel: &kernel,
            tiles: &tiles,
            keys: &keys,
            graphs,
            artifact: (&artifact_id, artifact),
            epoch: self.epoch(),
            config: &self.config,
            ships: &self.ships,
        };

        // Dataset and artifact shipping to every currently reachable
        // member — one scoped thread per link, so connect timeouts and
        // shipping round trips overlap instead of stacking up serially
        // before the first tile can go out. A worker that joined since the
        // last Gram receives everything here, before taking tiles.
        let members = self.members();
        let ready: Mutex<Vec<(Arc<WorkerLink>, Conn)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for link in &members {
                let (run, ready) = (&run, &ready);
                scope.spawn(move || {
                    let Some(mut conn) = link.checkout(&self.config) else {
                        return;
                    };
                    if self.ships.ship(link, &mut conn, run, true).is_err() {
                        link.mark_dead();
                        return;
                    }
                    link.datasets_shipped.fetch_add(1, Ordering::Relaxed);
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
            return Ok(self.decline());
        }
        self.tiles_scheduled
            .fetch_add(tiles.len(), Ordering::Relaxed);
        // Tiles carry the epoch after shipping, deaths there included.
        run.epoch = self.epoch();

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
        let fallback = pool
            .map(missing.len(), |k| {
                let t = missing[k];
                let mut out = vec![0.0; tiles[t].len()];
                eval(&tiles[t], &mut out).map(|()| out)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

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
        Ok(Some(values))
    }

    /// Declines a Gram, counting it as a whole-Gram local fallback;
    /// [`Coordinator::model_gram`] then runs it on the engine's local tile
    /// scheduler.
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
            handle.thread().unpark();
            handle.join().ok();
        }
    }
}

/// The shipping counters of [`DistStats`], shared by a Gram's first
/// shipping round and the scheduler's store-miss repairs, so a re-ship
/// counts like any other ship.
#[derive(Default)]
pub(crate) struct ShipCounters {
    dataset_keys_total: AtomicUsize,
    dataset_keys_shipped: AtomicUsize,
    artifacts_shipped: AtomicUsize,
}

impl ShipCounters {
    /// Ships `run`'s dataset to one worker over `conn` and, when
    /// `artifact` is set, its model artifact after it, counting the keys
    /// announced and what actually travelled.
    pub(crate) fn ship(
        &self,
        link: &WorkerLink,
        conn: &mut Conn,
        run: &TileRun<'_>,
        artifact: bool,
    ) -> Result<(), String> {
        let shipped = ship_dataset(link, conn, run.dataset, run.keys, run.graphs, run.config)?;
        self.dataset_keys_total
            .fetch_add(run.keys.len(), Ordering::Relaxed);
        self.dataset_keys_shipped
            .fetch_add(shipped, Ordering::Relaxed);
        let (id, payload) = run.artifact;
        if artifact && ship_artifact(link, conn, id, payload, run.config)? {
            self.artifacts_shipped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Ships the dataset to one worker (begin → missing graphs in chunks →
/// commit); returns how many graphs actually travelled. Also the
/// store-miss repair path: a re-ship over the same id sends exactly the
/// graphs the worker's bounded store evicted.
fn ship_dataset(
    link: &WorkerLink,
    conn: &mut Conn,
    id: &str,
    keys: &[GraphKey],
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
fn ship_artifact(
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
