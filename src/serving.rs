//! The model-serving application layer behind the `haqjsk-serve` binary.
//!
//! The engine crate provides the transport ([`Server`], JSON-lines over
//! TCP, with connection caps, bounded frames, slow-client timeouts and
//! panic isolation — see `haqjsk-engine::serve`); this module provides the
//! stateful request handler: fit / transform / kernel-row / append /
//! predict / save / load / stats over a [`HaqjskModel`], with per-graph
//! aligned features memoised in a [`FeatureCache`] and out-of-sample
//! arrivals appended through incremental Gram extension. Living in the
//! library (rather than the binary) lets the loopback smoke test drive the
//! exact production handler.
//!
//! The fitted model is served as one immutable snapshot (model, aligned
//! cache, row memo, the served graphs' transforms, labels, Gram) behind an
//! `Arc`. Reads never wait: they clone the `Arc` and pair their query's
//! one cached transform with the snapshot's. `fit`/`load` publish a
//! snapshot with a fresh cache and memo; appends run one at a time, each
//! publishing a successor with one more transform and the extended Gram
//! that shares both. The cache holds every transform the model made; the
//! snapshot pins the served set's.
//!
//! The row memo holds each query's kernel row against a prefix of the
//! served set, keyed like the aligned cache. The prototypes are fixed at
//! fit time, so a query's row against `n` served graphs is a prefix of its
//! row against `n + 1`: a `kernel_row` or `predict` whose memo row covers
//! its snapshot's `n` graphs answers with the first `n` values (no
//! transform lookup, no kernel pair); a shorter or absent row is extended
//! by the missing columns only and stored unless a longer row is resident
//! by then. Each of the two caches is bounded by the model's cache budget
//! (`cache_budget_bytes`, default `HAQJSK_CACHE_BUDGET`). See
//! `docs/serving.md` ("The served snapshot").
//!
//! Command table (see `docs/serving.md` for the full protocol reference):
//!
//! | command      | request fields                                   | response |
//! |--------------|---------------------------------------------------|----------|
//! | `ping`       | —                                                 | `{"ok":true,"pong":true}` |
//! | `fit`        | `graphs`, opt. `labels`, opt. `variant` (`"A"`/`"D"`), opt. `config`, opt. `workers` | graph/level counts |
//! | `transform`  | `graph`                                           | per-level von Neumann entropies |
//! | `kernel_row` | `graph`                                           | kernel value vs every training graph |
//! | `append`     | `graph`, opt. `label`                             | grows the served set via incremental Gram extension |
//! | `predict`    | `graph`                                           | 1-NN label over the kernel row (requires `labels` at fit) |
//! | `save`       | —                                                 | persisted model text |
//! | `load`       | `model`, opt. `graphs`, opt. `labels`             | restores a persisted model |
//! | `save_file`  | `path`                                            | atomically persists the model to disk with a checksum footer |
//! | `load_file`  | `path`, opt. `graphs`, opt. `labels`              | restores a checksum-verified model from disk |
//! | `stats`      | —                                                 | engine threads + cache counters + overload state |
//! | `metrics`    | —                                                 | the metrics registry as Prometheus text + structured JSON |
//! | `trace_dump` | —                                                 | drains the span tracer's ring buffers as JSON lines |
//! | `add_workers` | `workers`                                        | joins addresses to the running worker pool (per-address errors reported) |
//! | `remove_workers` | `workers`                                     | drains addresses out of the running worker pool |
//! | `drain`      | —                                                 | begins a graceful drain (stop accepting, finish in-flight) |
//!
//! Graphs travel as `{"n":N,"edges":[[u,v],...],"labels":[...]?}`. Config
//! fields (all optional): `hierarchy_levels` (at most
//! [`crate::core::MAX_HIERARCHY_LEVELS`]), `num_prototypes`, `layer_cap`,
//! `kmeans_max_iterations`, `seed`, `mu`, `small` (bool, default true —
//! start from [`HaqjskConfig::small`]), plus `cache_budget_bytes`, the LRU
//! byte budget of each of the model's aligned feature cache and row memo
//! (omit for the `HAQJSK_CACHE_BUDGET` environment default). A request
//! field of the wrong type (`"mu":"0.5"`, `"variant":5`, `"label":-1`) is
//! an error that names the field, never a silent default; so is an
//! `append` `label` on a model fitted without labels. A `fit` may also list
//! `workers` (`["host:port", ...]`): the server connects a distributed
//! worker pool ([`crate::dist`]) and runs the model's Gram computations on
//! the `dist` backend — the fitted model's full Grams fan out over the
//! pool, everything else executes locally (never failing). `stats` reports the
//! engine's active execution backend; the served model's aligned cache and
//! row memo counters (`aligned_cache_*`, `row_cache_*`, so bounded-memory
//! operation under a budget is observable from the wire); and, when a
//! worker pool is installed, a `distributed` object
//! with per-worker tiles dispatched/completed/re-dispatched, bytes shipped,
//! and the dataset-dedup hit rate.
//!
//! `load` and `load_file` answer `ok:false` for model text no fit could
//! produce (declared prototype counts that differ from the listed
//! prototypes, prototypes of the wrong width or with non-finite values,
//! layer indices other than `1..=max_layers`, a config that fails
//! [`HaqjskConfig::validate`]); the parser never sizes an allocation from
//! a declared count.
//!
//! ## Overload safety
//!
//! Heavy operations (`fit`, `transform`, `kernel_row`, `append`,
//! `predict`, `load`, `load_file`) pass **admission control** before doing
//! any work: when the heavy requests in flight (heavy handlers running
//! now) reach `HAQJSK_SERVE_MAX_INFLIGHT_HEAVY`, the request is shed
//! immediately with `{"ok":false,"error":"overloaded: ...",`
//! `"rejected":"overloaded"}` — cheap operations (`ping`, `stats`,
//! `metrics`) keep answering throughout. Every request may carry a
//! `deadline_ms` budget (defaulted by `HAQJSK_SERVE_DEADLINE_MS`); a heavy
//! request that exceeds it reports
//! `{"ok":false,"rejected":"deadline_exceeded",...}` honestly at its next
//! checkpoint instead of finishing arbitrarily late. Sheds and deadline
//! trips are metered per operation (`haqjsk_serve_rejected_total`,
//! `haqjsk_serve_deadline_exceeded_total`).
//!
//! Observability: every request is counted and timed into the process-wide
//! metrics registry (`haqjsk_serve_*` families, labelled by sanitised op —
//! that instrumentation lives in the engine's serve transport). `metrics`
//! exposes the whole registry — engine, cache, eigen-batch, distributed and
//! serve families in one scrape — as Prometheus text plus an engine-`Json`
//! snapshot; `stats` keeps its historical field names, and every field
//! that mirrors a registry family (cache, serve-overload and eigen-batch
//! counters) comes from one table read out of the same snapshot. See
//! `docs/observability.md`.

use crate::core::model::CachedTransforms;
use crate::core::{
    load_model_file, model_from_string, model_to_string, save_model_file, AlignedGraph,
    HaqjskConfig, HaqjskModel, HaqjskVariant,
};
use crate::dist::{Coordinator, DistConfig, DistStats};
use crate::engine::serve::{
    error_response, graph_from_json, parse_env_usize, Codec, Handler, ServeConfig, ServeControl,
    Server,
};
use crate::engine::{
    graph_key, BackendKind, CacheConfig, CacheWeight, Engine, FeatureCache, HttpResponder,
    HttpResponse, Json,
};
use crate::graph::Graph;
use crate::kernels::KernelMatrix;
use crate::quantum::von_neumann_entropy;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable giving every request a default deadline budget in
/// milliseconds (`0` or unset: no default; requests may still send their
/// own `deadline_ms`).
pub const DEADLINE_ENV_VAR: &str = "HAQJSK_SERVE_DEADLINE_MS";
/// Environment variable setting the heavy-request admission high-water
/// mark (`0` sheds every heavy request — useful for tests and for
/// quiescing a server without stopping it).
pub const MAX_INFLIGHT_HEAVY_ENV_VAR: &str = "HAQJSK_SERVE_MAX_INFLIGHT_HEAVY";
/// Environment variable giving the HTTP observability sidecar's bind
/// address (`host:port`); the `haqjsk-serve --http-addr` flag overrides
/// it. Unset or empty: no HTTP listener.
pub const HTTP_ADDR_ENV_VAR: &str = "HAQJSK_HTTP_ADDR";

/// Application-level serving limits on top of the transport's
/// [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Transport limits (connection cap, frame cap, I/O timeout).
    pub serve: ServeConfig,
    /// Deadline applied to requests that do not send their own
    /// `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Admission high-water mark: heavy requests are shed while the heavy
    /// requests in flight are at or above this. `0` sheds everything heavy.
    pub max_inflight_heavy: usize,
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig {
            serve: ServeConfig::default(),
            default_deadline: None,
            max_inflight_heavy: 32,
        }
    }
}

impl ServingConfig {
    /// The defaults with `HAQJSK_SERVE_*` environment overrides applied
    /// (both the transport's and the application's). Unparseable values
    /// are hard errors.
    pub fn from_env() -> Result<ServingConfig, String> {
        let mut config = ServingConfig {
            serve: ServeConfig::from_env()?,
            ..ServingConfig::default()
        };
        if let Some(ms) = parse_env_usize(DEADLINE_ENV_VAR)? {
            config.default_deadline = (ms > 0).then(|| Duration::from_millis(ms as u64));
        }
        if let Some(v) = parse_env_usize(MAX_INFLIGHT_HEAVY_ENV_VAR)? {
            config.max_inflight_heavy = v;
        }
        Ok(config)
    }
}

/// One immutable published state of the served model. `fit` and `load`
/// publish a fresh one; `append` publishes a successor that shares the
/// model, its cache and its row memo. Readers clone the `Arc` and never
/// wait on compute.
struct Snapshot {
    model: Arc<HaqjskModel>,
    /// The model's aligned-feature cache, shared by every snapshot of one
    /// fit or load (so it can never outlive its model): it holds every
    /// transform the model made, within its budget.
    cache: Arc<FeatureCache<AlignedGraph>>,
    /// The model's row memo, shared like `cache` and under the same
    /// budget: each query's kernel row against a prefix of the served
    /// set, by the query's graph key.
    rows: Arc<FeatureCache<MemoRow>>,
    /// The served graphs' transforms, pinned whatever the cache evicts.
    transforms: Vec<Arc<AlignedGraph>>,
    labels: Option<Vec<usize>>,
    gram: KernelMatrix,
}

impl Snapshot {
    /// A new model's first snapshot: `graphs` transformed through a fresh
    /// cache and their Gram built on `backend`.
    fn fresh(
        model: HaqjskModel,
        graphs: &[Graph],
        labels: Option<Vec<usize>>,
        cache: CacheConfig,
        backend: Option<BackendKind>,
    ) -> Result<Snapshot, String> {
        let cache = FeatureCache::with_config(cache);
        let transforms = model.transform_all_cached(graphs, &cache);
        Snapshot::over(model, cache, graphs, transforms, labels, backend)
    }

    /// A new model's first snapshot from `graphs`' transforms, made
    /// through `cache`, with their Gram built on `backend`.
    fn over(
        model: HaqjskModel,
        cache: FeatureCache<AlignedGraph>,
        graphs: &[Graph],
        transforms: CachedTransforms,
        labels: Option<Vec<usize>>,
        backend: Option<BackendKind>,
    ) -> Result<Snapshot, String> {
        let failed = |e| format!("gram computation failed: {e:?}");
        let transforms = transforms.map_err(failed)?;
        let gram = model
            .gram_over_transforms(graphs, &transforms, backend)
            .map_err(failed)?;
        let rows = FeatureCache::with_config(CacheConfig {
            budget_bytes: cache.budget_bytes(),
        });
        Ok(Snapshot {
            model: Arc::new(model),
            cache: Arc::new(cache),
            rows: Arc::new(rows),
            transforms,
            labels,
            gram,
        })
    }
}

/// Value slots a memo row's allocation is rounded up to a multiple of.
const ROW_BLOCK: usize = 64;

/// A row-memo value: a query's kernel row against a prefix of the served
/// set. Rows grow by a few columns at a time as appends land; with
/// exact-size allocations each growth frees a hole just too small for the
/// next grown row, and those holes fragmented the heap (about 1 MB of
/// extra peak RSS on perfbench's stream-rw). The allocation is therefore
/// rounded up to whole [`ROW_BLOCK`]s, and weighed by its capacity so the
/// budget bounds the bytes it really holds.
#[derive(Default)]
struct MemoRow(Vec<f64>);

impl CacheWeight for MemoRow {
    fn weight(&self) -> usize {
        std::mem::size_of::<Vec<f64>>() + self.0.capacity() * std::mem::size_of::<f64>()
    }
}

/// Locks a mutex whose data stays valid across a panicking holder: the
/// published `Arc` is swapped whole, and the append mutex guards nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ServingInner {
    /// The published snapshot; locked only to clone or swap the `Arc`.
    current: Mutex<Option<Arc<Snapshot>>>,
    /// Held by `append` from reading the snapshot until it publishes the
    /// successor, and by `fit`/`load` while they publish: appends run one
    /// at a time, and none can lose a write or bring back a replaced model.
    publishing: Mutex<()>,
    config: ServingConfig,
    /// Requests currently inside a heavy handler — the application half of
    /// the admission load.
    heavy_inflight: AtomicUsize,
    /// Lifecycle handle of the server this handler is mounted on; set by
    /// [`Serving::spawn`], absent for embedded (serverless) use.
    control: OnceLock<ServeControl>,
}

impl ServingInner {
    /// The published snapshot: a clone of the `Arc`, never a wait on
    /// compute.
    fn snapshot(&self) -> Result<Arc<Snapshot>, Fail> {
        lock(&self.current)
            .clone()
            .ok_or_else(|| Fail::Error("no model fitted yet (use 'fit' or 'load')".to_string()))
    }

    /// Publishes `next` as the served snapshot; `_publishing` shows the
    /// caller holds the publishing mutex. The replaced snapshot is dropped
    /// after the state lock is released.
    fn publish(&self, _publishing: &MutexGuard<'_, ()>, next: Snapshot) {
        let _replaced = lock(&self.current).replace(Arc::new(next));
    }
}

/// The serving application: configuration, model state and overload
/// bookkeeping behind a cheap `Clone`. Construct one, then either mount it
/// on a TCP server with [`Serving::spawn`] or drive [`Serving::handle`]
/// directly (tests, embedding).
#[derive(Clone)]
pub struct Serving {
    inner: Arc<ServingInner>,
}

/// Builds the serving handler with environment-derived limits and binds it
/// on `addr` (use port `0` for an ephemeral port). Returns the running
/// server. The historical entry point; [`Serving::spawn`] is the
/// configurable one.
pub fn spawn_server(addr: &str) -> std::io::Result<Server> {
    let config = ServingConfig::from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    Serving::new(config).spawn(addr)
}

/// Registers every layer's registry exporters (batched-eigensolver
/// stats, distributed-pool stats) so one registry
/// snapshot covers the whole process. Idempotent; called by
/// [`Serving::spawn`] and by the `stats`/`metrics` handlers so embedded
/// users of [`Serving::handle`] see the same families.
pub fn register_metric_exporters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        crate::linalg::register_batch_metrics();
        crate::dist::register_dist_metrics();
        // Info-style build-identity gauge: constant 1, the labels carry the
        // interesting values (crate version, dispatched SIMD path, default
        // Gram backend). One scrape identifies what is running where.
        crate::obs::registry()
            .gauge(
                "haqjsk_build_info",
                "Build identity (info-style: constant 1; labels carry the \
                 crate version, SIMD dispatch path and default Gram backend).",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("simd_path", crate::linalg::active_simd_label()),
                    ("backend", Engine::global().backend().label()),
                ],
            )
            .set(1.0);
    });
}

/// How a request failed: an ordinary error, an admission shed, or a
/// deadline trip — each rendered as a distinct envelope.
enum Fail {
    Error(String),
    Deadline(String),
}

impl From<String> for Fail {
    fn from(message: String) -> Fail {
        Fail::Error(message)
    }
}

impl From<&str> for Fail {
    fn from(message: &str) -> Fail {
        Fail::Error(message.to_string())
    }
}

/// A request's time budget, checked at the start of every expensive stage
/// ("checkpoints"): work already begun is never interrupted mid-stage, but
/// the response is an honest `deadline_exceeded` instead of arbitrarily
/// late data.
struct RequestDeadline {
    start: Instant,
    limit: Option<Duration>,
}

impl RequestDeadline {
    fn from_request(request: &Json, default: Option<Duration>) -> Result<RequestDeadline, String> {
        let limit = match request.get("deadline_ms") {
            None => default,
            Some(v) => {
                let ms = v
                    .as_usize()
                    .ok_or("'deadline_ms' must be a non-negative integer")?;
                Some(Duration::from_millis(ms as u64))
            }
        };
        Ok(RequestDeadline {
            start: Instant::now(),
            limit,
        })
    }

    /// Fails with a deadline trip when the budget is spent; `checkpoint`
    /// names the stage about to start, for the error message.
    fn check(&self, checkpoint: &str) -> Result<(), Fail> {
        let Some(limit) = self.limit else {
            return Ok(());
        };
        let elapsed = self.start.elapsed();
        if elapsed >= limit {
            return Err(Fail::Deadline(format!(
                "deadline exceeded: {} ms elapsed of a {} ms budget (at '{checkpoint}')",
                elapsed.as_millis(),
                limit.as_millis()
            )));
        }
        Ok(())
    }
}

/// RAII marker of one request inside a heavy handler.
struct HeavyGuard {
    inner: Arc<ServingInner>,
}

impl HeavyGuard {
    fn enter(inner: &Arc<ServingInner>) -> HeavyGuard {
        inner.heavy_inflight.fetch_add(1, Ordering::AcqRel);
        HeavyGuard {
            inner: Arc::clone(inner),
        }
    }
}

impl Drop for HeavyGuard {
    fn drop(&mut self) {
        self.inner.heavy_inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Serving {
    /// A fresh serving application with the given limits and no fitted
    /// model.
    pub fn new(config: ServingConfig) -> Serving {
        Serving {
            inner: Arc::new(ServingInner {
                current: Mutex::new(None),
                publishing: Mutex::new(()),
                config,
                heavy_inflight: AtomicUsize::new(0),
                control: OnceLock::new(),
            }),
        }
    }

    /// Mounts this application on a TCP server bound at `addr` and records
    /// the server's lifecycle handle so the `drain` operation works.
    pub fn spawn(&self, addr: &str) -> std::io::Result<Server> {
        register_metric_exporters();
        let serving = self.clone();
        let handler: Arc<dyn Handler> = Arc::new(move |request: &Json| serving.handle(request));
        let server = Server::spawn_with_config(
            addr,
            Codec::JsonLines(handler),
            self.inner.config.serve.clone(),
        )?;
        let _ = self.inner.control.set(server.control());
        Ok(server)
    }

    /// Mounts the HTTP observability sidecar on `addr` (use port `0` for an
    /// ephemeral port): a GET-only HTTP/1.1 listener serving `/metrics`
    /// (Prometheus text), `/healthz` (200 while serving, 503 while draining
    /// or overloaded), `/traces` (drained span records as JSON lines behind
    /// a meta line) and `/debug/requests` (the flight recorder). The
    /// listener shares this application's transport limits with the
    /// JSON-lines one, and keeps answering during a drain so `/healthz`
    /// can report it.
    pub fn spawn_http(&self, addr: &str) -> std::io::Result<Server> {
        register_metric_exporters();
        let serving = self.clone();
        let responder: Arc<HttpResponder> = Arc::new(move |path: &str| serving.http_respond(path));
        Server::spawn_with_config(
            addr,
            Codec::Http(responder),
            self.inner.config.serve.clone(),
        )
    }

    /// Routes one HTTP GET path to its response. Public so tests can
    /// exercise the routing without a live listener.
    pub fn http_respond(&self, path: &str) -> HttpResponse {
        match path {
            "/metrics" => {
                register_metric_exporters();
                let snapshot = crate::obs::registry().snapshot();
                HttpResponse {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: crate::obs::render_prometheus(&snapshot),
                    route: "/metrics",
                }
            }
            "/healthz" => {
                if self.drain_requested() {
                    HttpResponse::text(503, "/healthz", "draining\n")
                } else if self.inner.heavy_inflight.load(Ordering::Acquire)
                    >= self.inner.config.max_inflight_heavy
                {
                    HttpResponse::text(503, "/healthz", "overloaded\n")
                } else {
                    HttpResponse::text(200, "/healthz", "ok\n")
                }
            }
            "/traces" => {
                let dump = crate::obs::drain_trace_jsonl();
                let meta = format!(
                    "{{\"kind\":\"meta\",\"enabled\":{},\"spans\":{},\"dropped\":{}}}\n",
                    crate::obs::trace_enabled(),
                    dump.spans,
                    dump.dropped
                );
                HttpResponse {
                    status: 200,
                    content_type: "application/jsonl",
                    body: format!("{meta}{}", dump.jsonl),
                    route: "/traces",
                }
            }
            "/debug/requests" => HttpResponse {
                status: 200,
                content_type: "application/jsonl",
                body: crate::obs::flight_jsonl(),
                route: "/debug/requests",
            },
            _ => HttpResponse::text(404, "other", "not found\n"),
        }
    }

    /// Whether a graceful drain has been requested (by the `drain`
    /// operation or a [`ServeControl`]); the process hosting the server
    /// polls this — alongside its signal flag — to know when to call
    /// [`Server::drain`] and exit.
    pub fn drain_requested(&self) -> bool {
        self.inner
            .control
            .get()
            .is_some_and(ServeControl::is_draining)
    }

    /// Runs one heavy command behind admission control and a deadline:
    /// sheds before any work when the load is at the high-water mark, and
    /// renders deadline trips as their distinct envelope.
    fn heavy<F>(&self, op: &str, request: &Json, f: F) -> Json
    where
        F: FnOnce(&RequestDeadline) -> Result<Json, Fail>,
    {
        let inflight = self.inner.heavy_inflight.load(Ordering::Acquire);
        let cap = self.inner.config.max_inflight_heavy;
        if inflight >= cap {
            crate::engine::obs::serve_rejected_counter(op).inc();
            return Json::obj([
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::Str(format!(
                        "overloaded: heavy load {inflight} at/above cap {cap}; retry later"
                    )),
                ),
                ("rejected", Json::Str("overloaded".to_string())),
            ]);
        }
        let _guard = HeavyGuard::enter(&self.inner);
        let deadline =
            match RequestDeadline::from_request(request, self.inner.config.default_deadline) {
                Ok(deadline) => deadline,
                Err(e) => return error_response(&e),
            };
        match f(&deadline) {
            Ok(response) => response,
            Err(Fail::Error(e)) => error_response(&e),
            Err(Fail::Deadline(e)) => {
                crate::engine::obs::serve_deadline_exceeded_counter(op).inc();
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(e)),
                    ("rejected", Json::Str("deadline_exceeded".to_string())),
                ])
            }
        }
    }

    /// Dispatches one request. Heavy operations pass admission control and
    /// observe deadlines; cheap ones answer unconditionally so liveness
    /// and observability survive overload.
    pub fn handle(&self, request: &Json) -> Json {
        let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
            return error_response("request needs a string field 'cmd'");
        };
        let inner = &*self.inner;
        // Reads run against the published snapshot, heavy ones behind
        // admission control.
        let read = |op, f: fn(&Snapshot, &Json, &RequestDeadline) -> Result<Json, Fail>| {
            self.heavy(op, request, |d| f(&*inner.snapshot()?, request, d))
        };
        let cheap = |f: fn(&Snapshot, &Json) -> Result<Json, Fail>| {
            let response = inner.snapshot().and_then(|s| f(&s, request));
            response.unwrap_or_else(fail_to_response)
        };
        match cmd {
            "ping" => Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
            "fit" => self.heavy("fit", request, |d| cmd_fit(inner, request, d)),
            "transform" => read("transform", cmd_transform),
            "kernel_row" => read("kernel_row", cmd_kernel_row),
            "append" => self.heavy("append", request, |d| cmd_append(inner, request, d)),
            "predict" => read("predict", cmd_predict),
            "save" => cheap(cmd_save),
            "load" => self.heavy("load", request, |d| cmd_load(inner, request, "model", d)),
            "save_file" => cheap(cmd_save_file),
            "load_file" => self.heavy("load_file", request, |d| {
                cmd_load(inner, request, "path", d)
            }),
            "stats" => cmd_stats(self),
            "metrics" => cmd_metrics(),
            "trace_dump" => cmd_trace_dump(),
            "add_workers" => cmd_membership(request, "added", Coordinator::add_worker),
            "remove_workers" => cmd_membership(request, "removed", Coordinator::remove_worker),
            "drain" => self.cmd_drain(),
            other => error_response(&format!("unknown command '{other}'")),
        }
    }

    /// Begins a graceful drain of the server this handler is mounted on:
    /// the accept loop stops, idle connections close, in-flight requests
    /// (including this one) are answered. The hosting process observes
    /// [`Serving::drain_requested`] and completes the drain.
    fn cmd_drain(&self) -> Json {
        let Some(control) = self.inner.control.get() else {
            return error_response("drain unavailable: handler is not mounted on a server");
        };
        control.begin_drain();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("draining", Json::Bool(true)),
            (
                "active_connections",
                Json::Num(control.active_connections() as f64),
            ),
        ])
    }
}

fn parse_graphs(request: &Json) -> Result<Vec<Graph>, String> {
    let graphs_json = request
        .get("graphs")
        .and_then(Json::as_array)
        .ok_or("request needs an array field 'graphs'")?;
    graphs_json.iter().map(graph_from_json).collect()
}

fn parse_variant(request: &Json) -> Result<HaqjskVariant, String> {
    match request.get("variant").map(Json::as_str) {
        None | Some(Some("A")) => Ok(HaqjskVariant::AlignedAdjacency),
        Some(Some("D")) => Ok(HaqjskVariant::AlignedDensity),
        Some(Some(other)) => Err(format!("unknown variant '{other}' (expected 'A' or 'D')")),
        Some(None) => Err("'variant' must be the string 'A' or 'D'".to_string()),
    }
}

/// The request's optional `config.<name>` read through `read`; a value of
/// the wrong type is an error naming the field and the type `what`.
fn config_field<T>(
    request: &Json,
    name: &str,
    what: &str,
    read: fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(value) = request.get("config").and_then(|config| config.get(name)) else {
        return Ok(None);
    };
    read(value)
        .map(Some)
        .ok_or_else(|| format!("config field '{name}' must be {what}"))
}

fn parse_config(request: &Json) -> Result<HaqjskConfig, String> {
    match request.get("config") {
        None => return Ok(HaqjskConfig::small()),
        Some(Json::Obj(_)) => {}
        Some(_) => return Err("'config' must be an object".to_string()),
    }
    let mut config = match config_field(request, "small", "a boolean", Json::as_bool)? {
        Some(false) => HaqjskConfig::default(),
        _ => HaqjskConfig::small(),
    };
    let usize_field =
        |name: &str| config_field(request, name, "a non-negative integer", Json::as_usize);
    for (name, slot) in [
        ("hierarchy_levels", &mut config.hierarchy_levels),
        ("num_prototypes", &mut config.num_prototypes),
        ("layer_cap", &mut config.layer_cap),
        ("kmeans_max_iterations", &mut config.kmeans_max_iterations),
    ] {
        if let Some(v) = usize_field(name)? {
            *slot = v;
        }
    }
    if let Some(v) = usize_field("seed")? {
        config.seed = v as u64;
    }
    if let Some(v) = config_field(request, "mu", "a number", Json::as_f64)? {
        config.mu = v;
    }
    config.validate()?;
    Ok(config)
}

/// Byte budget of the aligned feature cache (and of the row memo beside
/// it): the request's `config.cache_budget_bytes` on top of the
/// environment default.
fn parse_cache_config(request: &Json) -> Result<CacheConfig, String> {
    let what = "a non-negative integer";
    let budget = config_field(request, "cache_budget_bytes", what, Json::as_usize)?;
    Ok(budget.map_or_else(CacheConfig::from_env, CacheConfig::with_budget))
}

fn parse_labels(request: &Json, expected: usize) -> Result<Option<Vec<usize>>, String> {
    let Some(labels_json) = request.get("labels") else {
        return Ok(None);
    };
    let arr = labels_json
        .as_array()
        .ok_or("'labels' must be an array of non-negative integers")?;
    if arr.len() != expected {
        return Err(format!(
            "{} labels supplied for {expected} graphs",
            arr.len()
        ));
    }
    arr.iter()
        .map(|l| {
            l.as_usize()
                .ok_or_else(|| "labels must be non-negative integers".to_string())
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn worker_addrs(request: &Json) -> Result<Vec<String>, String> {
    request
        .get("workers")
        .ok_or("request needs an array field 'workers'")?
        .as_array()
        .ok_or("'workers' must be an array of host:port strings")?
        .iter()
        .map(|w| {
            w.as_str()
                .map(str::to_string)
                .ok_or_else(|| "'workers' entries must be strings".to_string())
        })
        .collect()
}

/// Connects and installs a distributed worker pool when the request lists
/// `workers`; returns the backend the model's Grams should run on.
///
/// The pool is installed process-wide. Only the fitted model's Gram
/// distributes (the model ships as a content-addressed artifact); every
/// other computation executes locally on the engine's pool, so configuring
/// workers never makes a fit fail. The connect itself is resilient: each
/// unreachable address is retried once with a short backoff, and the fit
/// proceeds degraded (with a loud warning and a `workers_unreachable`
/// count in the response) as long as *one* worker answers — only a fully
/// dark pool is an error.
///
/// Every such fit installs a fresh coordinator, so the dist counters that
/// `stats` reports restart with each `workers` fit. The replaced
/// coordinator is dropped here; one `dist.connect` span covers the
/// connect, the install and that drop.
fn parse_workers(request: &Json) -> Result<Option<BackendKind>, String> {
    if request.get("workers").is_none() {
        return Ok(None);
    };
    let addrs = worker_addrs(request)?;
    let _span = crate::obs::span("dist.connect");
    let coordinator = Coordinator::connect(&addrs, DistConfig::from_env())
        .map_err(|e| format!("cannot connect worker pool: {e}"))?;
    crate::dist::set_coordinator(Some(Arc::new(coordinator)));
    Ok(Some(BackendKind::Distributed))
}

/// Joins (`add_workers`) or drains (`remove_workers`) each listed
/// address through `change` ([`Coordinator::add_worker`] or
/// [`Coordinator::remove_worker`]); per-address failures are reported, not
/// fatal, so one dead address cannot block a batch change. `counted` names
/// the response's success count.
fn cmd_membership(
    request: &Json,
    counted: &'static str,
    change: fn(&Coordinator, &str) -> Result<(), String>,
) -> Json {
    let run = || -> Result<Json, String> {
        let coordinator = crate::dist::current_coordinator()
            .ok_or("no worker pool installed (fit with 'workers' first)")?;
        let mut errors = Vec::new();
        let mut changed = 0;
        for addr in &worker_addrs(request)? {
            match change(&coordinator, addr) {
                Ok(()) => changed += 1,
                Err(e) => errors.push(Json::Str(format!("{addr}: {e}"))),
            }
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            (counted, Json::Num(changed as f64)),
            ("errors", Json::Arr(errors)),
            ("workers", Json::Num(coordinator.num_workers() as f64)),
            ("epoch", Json::Num(coordinator.epoch() as f64)),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_fit(inner: &ServingInner, request: &Json, deadline: &RequestDeadline) -> Result<Json, Fail> {
    let graphs = parse_graphs(request)?;
    let variant = parse_variant(request)?;
    let config = parse_config(request)?;
    let cache = parse_cache_config(request)?;
    let labels = parse_labels(request, graphs.len())?;
    let backend = parse_workers(request)?;
    deadline.check("fit: prototype hierarchy")?;
    // The training graphs' transforms reuse the fit's DB traces.
    let cache = FeatureCache::with_config(cache);
    let (model, transforms) = HaqjskModel::fit_transform_cached(&graphs, config, variant, &cache)
        .map_err(|e| format!("fit failed: {e:?}"))?;
    deadline.check("fit: gram computation")?;
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("num_graphs", Json::Num(graphs.len() as f64)),
        ("levels", Json::Num(model.hierarchy().num_levels() as f64)),
        ("max_layers", Json::Num(model.max_layers() as f64)),
    ];
    let snapshot = Snapshot::over(model, cache, &graphs, transforms, labels, backend)?;
    if let Some(backend) = backend {
        pairs.push(("backend", Json::Str(backend.label().to_string())));
        if let Some(coordinator) = crate::dist::current_coordinator() {
            let stats = coordinator.stats();
            let reachable = stats
                .workers
                .iter()
                .filter(|w| w.state == crate::dist::LinkState::Alive)
                .count();
            let unreachable = stats.workers.len() - reachable;
            pairs.push(("workers", Json::Num(stats.workers.len() as f64)));
            pairs.push(("workers_reachable", Json::Num(reachable as f64)));
            pairs.push(("workers_unreachable", Json::Num(unreachable as f64)));
            pairs.push(("degraded", Json::Bool(unreachable > 0)));
        }
    }
    inner.publish(&lock(&inner.publishing), snapshot);
    Ok(Json::obj(pairs))
}

fn parse_one_graph(request: &Json) -> Result<Graph, String> {
    let graph_json = request
        .get("graph")
        .ok_or("request needs a field 'graph'")?;
    graph_from_json(graph_json)
}

/// The transform of `graph` under the served model: one cache lookup, or
/// one transform.
fn query_transform(snapshot: &Snapshot, graph: &Graph) -> Result<Arc<AlignedGraph>, String> {
    let mut one = snapshot
        .model
        .transform_all_cached(std::slice::from_ref(graph), &snapshot.cache)
        .map_err(|e| format!("transform failed: {e:?}"))?;
    Ok(one.remove(0))
}

fn cmd_transform(
    snapshot: &Snapshot,
    request: &Json,
    deadline: &RequestDeadline,
) -> Result<Json, Fail> {
    let graph = parse_one_graph(request)?;
    deadline.check("transform")?;
    let aligned = query_transform(snapshot, &graph)?;
    let entropies: Vec<Json> = aligned
        .densities(snapshot.model.variant())
        .iter()
        .map(|rho| von_neumann_entropy(rho).map(Json::Num))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("entropy failed: {e:?}"))?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("levels", Json::Num(entropies.len() as f64)),
        ("entropies", Json::Arr(entropies)),
    ]))
}

/// The kernel row of `graph` against the served set. A memo row covering
/// the `n` served graphs answers with its first `n` values and no kernel
/// work; otherwise the query's one transform is paired with the served
/// graphs the memo row lacks (all of them when it has none), and the
/// extended row is stored unless a longer one is resident by then.
fn kernel_row(
    snapshot: &Snapshot,
    graph: &Graph,
    deadline: &RequestDeadline,
) -> Result<Vec<f64>, Fail> {
    deadline.check("kernel_row: query features")?;
    let n = snapshot.transforms.len();
    let key = graph_key(graph);
    let known = match snapshot.rows.get_covering(key, |row| row.0.len() >= n) {
        Ok(row) => return Ok(row.0[..n].to_vec()),
        Err(known) => known.unwrap_or_default(),
    };
    let query = query_transform(snapshot, graph)?;
    deadline.check("kernel_row: row evaluation")?;
    let pairs: Vec<_> = snapshot.transforms[known.0.len()..]
        .iter()
        .map(|t| (&*query, &**t))
        .collect();
    let parts = Engine::global()
        .map_chunks(pairs.len(), |range| {
            snapshot.model.kernel_batch(&pairs[range])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("kernel evaluation failed: {e:?}"))?;
    let mut row = Vec::with_capacity(n.next_multiple_of(ROW_BLOCK));
    row.extend_from_slice(&known.0);
    row.extend(parts.into_iter().flatten());
    let answer = row.clone();
    snapshot
        .rows
        .store_if(key, MemoRow(row), |resident| resident.0.len() < n);
    Ok(answer)
}

fn cmd_kernel_row(
    snapshot: &Snapshot,
    request: &Json,
    deadline: &RequestDeadline,
) -> Result<Json, Fail> {
    let graph = parse_one_graph(request)?;
    let row = kernel_row(snapshot, &graph, deadline)?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        (
            "values",
            Json::Arr(row.into_iter().map(Json::Num).collect()),
        ),
    ]))
}

/// Grows the served set by one graph: holds the publishing mutex from
/// reading the snapshot until its successor is published, transforms the
/// one new graph and extends the Gram over the snapshot's transforms.
fn cmd_append(
    inner: &ServingInner,
    request: &Json,
    deadline: &RequestDeadline,
) -> Result<Json, Fail> {
    let publishing = lock(&inner.publishing);
    let current = inner.snapshot()?;
    let graph = parse_one_graph(request)?;
    let label = match (request.get("label"), current.labels.is_some()) {
        (None, false) => None,
        (None, true) => return Err("this model serves labels; 'append' needs a 'label'".into()),
        (Some(_), false) => return Err("unlabelled model; 'append' takes no 'label'".into()),
        (Some(label), true) => Some(
            label
                .as_usize()
                .ok_or("'label' must be a non-negative integer")?,
        ),
    };
    // The only checkpoint is *before* the extension: once the Gram is
    // extended the append has happened, and reporting a deadline trip
    // over committed state would lie about the server's contents.
    deadline.check("append: gram extension")?;
    let mut transforms = current.transforms.clone();
    transforms.push(query_transform(&current, &graph)?);
    let gram = current
        .model
        .extend_gram_over_transforms(&current.gram, &transforms, None)
        .map_err(|e| format!("gram extension failed: {e:?}"))?;
    let num_graphs = transforms.len();
    let labels = current
        .labels
        .as_ref()
        .map(|l| [l, label.as_slice()].concat());
    inner.publish(
        &publishing,
        Snapshot {
            model: Arc::clone(&current.model),
            cache: Arc::clone(&current.cache),
            rows: Arc::clone(&current.rows),
            transforms,
            labels,
            gram,
        },
    );
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("num_graphs", Json::Num(num_graphs as f64)),
    ]))
}

fn cmd_predict(
    snapshot: &Snapshot,
    request: &Json,
    deadline: &RequestDeadline,
) -> Result<Json, Fail> {
    let labels = snapshot
        .labels
        .as_ref()
        .ok_or("model was fitted without labels; 'predict' unavailable")?;
    let graph = parse_one_graph(request)?;
    let row = kernel_row(snapshot, &graph, deadline)?;
    let (best, value) = row
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .ok_or("training set is empty")?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("label", Json::Num(labels[best] as f64)),
        ("nearest", Json::Num(best as f64)),
        ("kernel_value", Json::Num(*value)),
    ]))
}

fn cmd_save(snapshot: &Snapshot, _request: &Json) -> Result<Json, Fail> {
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("model", Json::Str(model_to_string(&snapshot.model))),
    ]))
}

fn fail_to_response(fail: Fail) -> Json {
    match fail {
        Fail::Error(e) | Fail::Deadline(e) => error_response(&e),
    }
}

/// Atomically persists the fitted model to `path` on the server's
/// filesystem ([`save_model_file`]: tmp write, fsync, rename, checksum
/// footer), reporting the artifact id the bytes hash to.
fn cmd_save_file(snapshot: &Snapshot, request: &Json) -> Result<Json, Fail> {
    let path = request
        .get("path")
        .and_then(Json::as_str)
        .ok_or("request needs a string field 'path'")?;
    save_model_file(&snapshot.model, Path::new(path))
        .map_err(|e| format!("cannot save model to {path}: {e}"))?;
    let text = model_to_string(&snapshot.model);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("path", Json::Str(path.to_string())),
        (
            "artifact_id",
            Json::Str(crate::core::model_artifact_id(&text)),
        ),
    ]))
}

/// Publishes the model a `load` (`source` = `"model"`: persisted text) or
/// `load_file` (`"path"`: a checksum-verified file on the server's
/// filesystem, [`load_model_file`]) restores, with the Gram over any
/// provided training graphs.
fn cmd_load(
    inner: &ServingInner,
    request: &Json,
    source: &str,
    deadline: &RequestDeadline,
) -> Result<Json, Fail> {
    let value = request
        .get(source)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request needs a string field '{source}'"))?;
    let model = match source {
        "path" => load_model_file(Path::new(value)),
        _ => model_from_string(value),
    }
    .map_err(|e| e.to_string())?;
    let graphs = if request.get("graphs").is_some() {
        parse_graphs(request)?
    } else {
        Vec::new()
    };
    let labels = parse_labels(request, graphs.len())?;
    let cache = parse_cache_config(request)?;
    deadline.check("load: gram computation")?;
    let response = Json::obj([
        ("ok", Json::Bool(true)),
        ("num_graphs", Json::Num(graphs.len() as f64)),
        ("levels", Json::Num(model.hierarchy().num_levels() as f64)),
    ]);
    let snapshot = Snapshot::fresh(model, &graphs, labels, cache, None)?;
    inner.publish(&lock(&inner.publishing), snapshot);
    Ok(response)
}

/// The distributed-pool state on the wire: per-worker dispatch counters
/// plus dataset-dedup aggregates.
fn dist_stats_to_json(stats: &DistStats) -> Json {
    let workers = stats
        .workers
        .iter()
        .map(|w| {
            Json::obj([
                ("addr", Json::Str(w.addr.clone())),
                ("alive", Json::Bool(w.alive)),
                ("state", Json::Str(w.state.label().to_string())),
                ("tiles_dispatched", Json::Num(w.tiles_dispatched as f64)),
                ("tiles_completed", Json::Num(w.tiles_completed as f64)),
                ("tiles_redispatched", Json::Num(w.tiles_redispatched as f64)),
                ("bytes_shipped", Json::Num(w.bytes_shipped as f64)),
                ("datasets_shipped", Json::Num(w.datasets_shipped as f64)),
                ("deaths", Json::Num(w.deaths as f64)),
                ("reconnects", Json::Num(w.reconnects as f64)),
                ("store_misses", Json::Num(w.store_misses as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workers", Json::Arr(workers)),
        ("epoch", Json::Num(stats.epoch as f64)),
        ("grams", Json::Num(stats.grams as f64)),
        ("tiles_scheduled", Json::Num(stats.tiles_scheduled as f64)),
        ("tiles_committed", Json::Num(stats.tiles_committed as f64)),
        (
            "artifacts_shipped",
            Json::Num(stats.artifacts_shipped as f64),
        ),
        (
            "local_fallback_grams",
            Json::Num(stats.local_fallback_grams as f64),
        ),
        (
            "local_fallback_tiles",
            Json::Num(stats.local_fallback_tiles as f64),
        ),
        (
            "dataset_keys_total",
            Json::Num(stats.dataset_keys_total as f64),
        ),
        (
            "dataset_keys_shipped",
            Json::Num(stats.dataset_keys_shipped as f64),
        ),
        ("dedup_hit_rate", Json::Num(stats.dedup_hit_rate())),
    ])
}

/// The whole metrics registry in one response: Prometheus text exposition
/// (`prometheus`) plus the engine-`Json` snapshot (`metrics`). One scrape
/// covers the engine, cache, eigen-batch, distributed and serve families.
fn cmd_metrics() -> Json {
    register_metric_exporters();
    let snapshot = crate::obs::registry().snapshot();
    Json::obj([
        ("ok", Json::Bool(true)),
        (
            "prometheus",
            Json::Str(crate::obs::render_prometheus(&snapshot)),
        ),
        ("metrics", crate::engine::obs::snapshot_to_json(&snapshot)),
    ])
}

/// Drains the span tracer's ring buffers: `spans` counts the records,
/// `dropped` the span records lost to ring overwrites since the last
/// drain, and `jsonl` carries the records one JSON object per line (empty
/// when tracing is disabled via `HAQJSK_TRACE=0`).
fn cmd_trace_dump() -> Json {
    let dump = crate::obs::drain_trace_jsonl();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("enabled", Json::Bool(crate::obs::trace_enabled())),
        ("spans", Json::Num(dump.spans as f64)),
        ("dropped", Json::Num(dump.dropped as f64)),
        ("jsonl", Json::Str(dump.jsonl)),
    ])
}

/// How a `stats` field reduces its registry series.
#[derive(Clone, Copy)]
enum Reduce {
    /// The one counter or gauge with exactly the filter's labels (0 when
    /// absent).
    One,
    /// The sum over every series of the family, whatever their labels
    /// (histograms contribute their observation count).
    Sum,
}

/// Label filters, and `(stats field, family)` rows.
type StrPairs = &'static [(&'static str, &'static str)];

/// The `stats` fields that mirror the metrics registry, grouped by how
/// they read it: `(label filter, reduction, [(stats field, family)])`. They
/// are read out of the same snapshot a `metrics` scrape renders, so `stats`
/// and Prometheus can never disagree.
const REGISTRY_FIELDS: &[(StrPairs, Reduce, StrPairs)] = &[
    // Overload counters of the serving loop, summed over their op labels.
    (
        &[],
        Reduce::Sum,
        &[
            ("requests_rejected", "haqjsk_serve_rejected_total"),
            ("deadline_exceeded", "haqjsk_serve_deadline_exceeded_total"),
            ("conns_rejected", "haqjsk_serve_conns_rejected_total"),
            ("frames_oversized", "haqjsk_serve_frames_oversized_total"),
            ("io_timeouts", "haqjsk_serve_io_timeouts_total"),
            ("handler_panics", "haqjsk_serve_panics_total"),
        ],
    ),
    // How much of the mixture eigen work the tile-batched Gram paths ran
    // lane-parallel.
    (
        &[],
        Reduce::One,
        &[
            ("eigen_batched_calls", "haqjsk_eigen_batched_calls_total"),
            (
                "eigen_batched_matrices",
                "haqjsk_eigen_batched_matrices_total",
            ),
            (
                "eigen_scalar_fallbacks",
                "haqjsk_eigen_scalar_fallbacks_total",
            ),
        ],
    ),
];

impl Reduce {
    fn read(self, snapshot: &crate::obs::Snapshot, family: &str, labels: &[(&str, &str)]) -> f64 {
        match self {
            Reduce::One => snapshot
                .counter_value(family, labels)
                .map(|v| v as f64)
                .or_else(|| snapshot.gauge_value(family, labels))
                .unwrap_or(0.0),
            Reduce::Sum => snapshot
                .family(family)
                .iter()
                .map(|entry| match &entry.value {
                    crate::obs::MetricValue::Counter(v) => *v as f64,
                    crate::obs::MetricValue::Gauge(v) => *v,
                    crate::obs::MetricValue::Histogram(h) => h.count as f64,
                })
                .sum(),
        }
    }
}

fn cmd_stats(serving: &Serving) -> Json {
    // Everything outside the table is a direct read: not a registry family,
    // or (the aligned cache and the row memo) owned by this `Serving`, not
    // by the process.
    register_metric_exporters();
    let snapshot = &crate::obs::registry().snapshot();
    let mut pairs: Vec<(&'static str, Json)> = REGISTRY_FIELDS
        .iter()
        .flat_map(|&(labels, reduce, fields)| {
            fields.iter().map(move |&(field, family)| {
                (field, Json::Num(reduce.read(snapshot, family, labels)))
            })
        })
        .collect();
    let (batched_calls, batched_matrices) = (
        Reduce::One.read(snapshot, "haqjsk_eigen_batched_calls_total", &[]),
        Reduce::One.read(snapshot, "haqjsk_eigen_batched_matrices_total", &[]),
    );
    let serve_state = if serving.drain_requested() {
        "draining"
    } else {
        "serving"
    };
    let active_connections = serving
        .inner
        .control
        .get()
        .map_or(0, ServeControl::active_connections);
    let engine = Engine::global();
    pairs.extend([
        ("ok", Json::Bool(true)),
        ("engine_threads", Json::Num(engine.threads() as f64)),
        (
            "engine_backend",
            Json::Str(engine.backend().label().to_string()),
        ),
        (
            "build",
            Json::obj([
                ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
                (
                    "simd_path",
                    Json::Str(crate::linalg::active_simd_label().to_string()),
                ),
                ("backend", Json::Str(engine.backend().label().to_string())),
            ]),
        ),
        // Overload/lifecycle state: the serving loop's admission and drain
        // posture, readable without a Prometheus scrape.
        ("serve_state", Json::Str(serve_state.to_string())),
        ("active_connections", Json::Num(active_connections as f64)),
        (
            "heavy_inflight",
            Json::Num(serving.inner.heavy_inflight.load(Ordering::Acquire) as f64),
        ),
        (
            "max_inflight_heavy",
            Json::Num(serving.inner.config.max_inflight_heavy as f64),
        ),
        (
            "eigen_mean_batch",
            Json::Num(if batched_calls > 0.0 {
                batched_matrices / batched_calls
            } else {
                0.0
            }),
        ),
        // SIMD dispatch of the batched eigensolver: the active path plus the
        // per-path solve counters (mirrors the `haqjsk_eigen_simd_path` info
        // gauge and `haqjsk_eigen_simd_calls_total` family in the registry).
        (
            "eigen_simd_path",
            Json::Str(haqjsk_linalg::active_simd_label().to_string()),
        ),
        (
            "eigen_simd_calls",
            Json::obj(haqjsk_linalg::SimdPath::ALL.map(|path| {
                (
                    path.label(),
                    Json::Num(Reduce::One.read(
                        snapshot,
                        "haqjsk_eigen_simd_calls_total",
                        &[("path", path.label())],
                    )),
                )
            })),
        ),
    ]);
    // Distributed-pool state, when a worker pool is installed: per-worker
    // tiles dispatched / completed / re-dispatched, bytes shipped, and the
    // dataset-dedup hit rate.
    if let Some(coordinator) = crate::dist::current_coordinator() {
        pairs.push(("distributed", dist_stats_to_json(&coordinator.stats())));
    }
    match serving.inner.snapshot() {
        Err(_) => pairs.push(("fitted", Json::Bool(false))),
        Ok(fitted) => {
            let stats = fitted.cache.stats();
            pairs.push(("fitted", Json::Bool(true)));
            pairs.push(("num_graphs", Json::Num(fitted.transforms.len() as f64)));
            pairs.push(("aligned_cache_hits", Json::Num(stats.hits as f64)));
            pairs.push(("aligned_cache_misses", Json::Num(stats.misses as f64)));
            pairs.push(("aligned_cache_entries", Json::Num(stats.entries as f64)));
            pairs.push(("aligned_cache_evictions", Json::Num(stats.evictions as f64)));
            pairs.push((
                "aligned_cache_resident_bytes",
                Json::Num(stats.resident_bytes as f64),
            ));
            if let Some(budget) = fitted.cache.budget_bytes() {
                pairs.push(("aligned_cache_budget_bytes", Json::Num(budget as f64)));
            }
            let rows = fitted.rows.stats();
            pairs.push(("row_cache_hits", Json::Num(rows.hits as f64)));
            pairs.push(("row_cache_misses", Json::Num(rows.misses as f64)));
            pairs.push(("row_cache_entries", Json::Num(rows.entries as f64)));
            pairs.push(("row_cache_evictions", Json::Num(rows.evictions as f64)));
            pairs.push((
                "row_cache_resident_bytes",
                Json::Num(rows.resident_bytes as f64),
            ));
        }
    }
    Json::obj(pairs)
}
