//! The worker loop: a TCP server that stores datasets and evaluates tiles.
//!
//! A worker is a plain [`haqjsk_engine::Server`] (same accept loop, same
//! JSON-lines framing as `haqjsk-serve`) whose handler implements the
//! [`wire`] command table: it receives the dataset once
//! (content-hash-deduplicated into a byte-budgeted [`GraphStore`]) and the
//! fitted model as a content-addressed **artifact** (`artifact_begin` /
//! `artifact_chunk` / `artifact_commit`), then answers `tile` work units —
//! one kind, a fitted model's — over its local engine.
//!
//! The worker verifies each artifact's digest, parses the persisted model
//! eagerly, and keeps a small LRU of reconstructed models, each with its
//! own aligned-transform cache bounded by `HAQJSK_CACHE_BUDGET`. A tile
//! transforms only the graphs its pairs read, through that cache, so
//! repeated tiles over the same rows are cache-hot; it evaluates against
//! the reconstruction — byte-identical to the coordinator's serial path
//! because persistence round-trips `f64`s exactly.
//!
//! The graph store is bounded (`HAQJSK_WORKER_STORE_BUDGET`): tiles pin
//! their dataset for the duration of evaluation, and a tile whose graphs
//! were evicted answers `store_miss` — the coordinator re-ships exactly
//! the missing graphs and retries, so an eviction never looks like a
//! worker death.
//!
//! Large tiles are split into contiguous pair chunks evaluated in parallel
//! on the worker's own pool (`HAQJSK_THREADS` sizes it) — byte-identical to
//! a single whole-tile call because the batched mixture eigensolver is
//! bit-identical per matrix regardless of batch composition.
//!
//! ## Chaos knobs
//!
//! `HAQJSK_CHAOS=seed:N,...` at spawn (or a `chaos` command at runtime)
//! arms a [`ChaosState`] that injects kills, mid-stream hangups, response
//! delays and transient store misses (one stored graph and the tile's
//! model entry evicted) at the configured permille rates,
//! deterministically in request order. A kill rate of 1000 fails every
//! tile request with an error and drops the connection — how the fault
//! tests kill a worker mid-Gram without races. Faults only fire on `tile`
//! requests — dataset shipping, artifacts and control commands always
//! succeed, so the soak exercises recovery, not setup. See
//! [`crate::chaos`].
//!
//! `shutdown` acks and hangs up; in the standalone binary it also begins a
//! drain of the listener, and the process exits once the drain completes.
//! Every hangup is decided per request and travels with that request's
//! response, so it only ever closes the connection that carried the
//! faulting request.

use crate::chaos::{ChaosFault, ChaosPlan, ChaosState};
use crate::dataset::GraphStore;
use crate::wire::{self, KernelSpec};
use haqjsk_core::{model_artifact_id, model_from_string, AlignedGraph, HaqjskModel};
use haqjsk_engine::cache::{CacheConfig, FeatureCache};
use haqjsk_engine::serve::error_response;
use haqjsk_engine::{
    graph_from_json, Codec, Disposition, DrainReport, Engine, Handler, Json, ServeControl, Server,
};
use haqjsk_graph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Reconstructed models kept per worker. Small: a worker serves one
/// coordinator, which rarely juggles more than a couple of fitted models.
const MODEL_STORE_CAP: usize = 4;

/// Behavioral options of a worker server.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Whether a `shutdown` command also drains the listener so the
    /// hosting process can exit (the standalone `haqjsk-worker` binary sets
    /// this and polls [`WorkerServer::exit_requested`]; in-process test
    /// workers do not).
    pub exit_on_shutdown: bool,
}

/// Counters a worker reports through its `stats` command.
struct WorkerCounters {
    tiles_served: AtomicUsize,
    pairs_evaluated: AtomicUsize,
    store_miss_replies: AtomicUsize,
}

/// A reconstructed fitted model plus its aligned-transform cache. The
/// cache is keyed by structural graph hash, so it must never outlive its
/// model — replacing an artifact replaces the cache with it.
struct ModelEntry {
    model: HaqjskModel,
    cache: FeatureCache<AlignedGraph>,
}

impl ModelEntry {
    /// A model with an empty transform cache under `cache`'s byte budget.
    fn new(model: HaqjskModel, cache: CacheConfig) -> ModelEntry {
        ModelEntry {
            model,
            cache: FeatureCache::with_config(cache),
        }
    }
}

/// The worker's content-addressed model artifacts: in-flight text
/// accumulators plus a small LRU of parsed models.
#[derive(Default)]
struct ModelStore {
    pending: HashMap<String, String>,
    models: HashMap<String, Arc<ModelEntry>>,
    /// Commit order, oldest first (LRU victim order; touched on use).
    order: Vec<String>,
}

impl ModelStore {
    fn touch(&mut self, id: &str) {
        if let Some(position) = self.order.iter().position(|o| o == id) {
            let id = self.order.remove(position);
            self.order.push(id);
        }
    }

    fn get(&mut self, id: &str) -> Option<Arc<ModelEntry>> {
        let entry = self.models.get(id).cloned()?;
        self.touch(id);
        Some(entry)
    }

    /// Evicts one model; whether it was held.
    fn remove(&mut self, id: &str) -> bool {
        self.order.retain(|o| o != id);
        self.models.remove(id).is_some()
    }

    fn insert(&mut self, id: String, entry: ModelEntry) {
        if self.models.insert(id.clone(), Arc::new(entry)).is_none() {
            self.order.push(id);
        } else {
            self.touch(&id);
        }
        while self.order.len() > MODEL_STORE_CAP {
            let victim = self.order.remove(0);
            self.models.remove(&victim);
        }
    }
}

struct WorkerState {
    store: Mutex<GraphStore>,
    models: Mutex<ModelStore>,
    chaos: RwLock<Option<Arc<ChaosState>>>,
    counters: WorkerCounters,
    /// Highest membership epoch seen on tile traffic (observability only —
    /// tiles from any epoch evaluate identically by design).
    last_epoch: AtomicUsize,
    options: WorkerOptions,
    /// The listener's lifecycle handle, set once it is bound: `shutdown`
    /// begins its drain when the options ask for an exit.
    control: OnceLock<ServeControl>,
}

impl WorkerState {
    fn new(options: WorkerOptions, chaos: Option<Arc<ChaosState>>) -> WorkerState {
        WorkerState {
            store: Mutex::new(GraphStore::from_env()),
            models: Mutex::new(ModelStore::default()),
            chaos: RwLock::new(chaos),
            counters: WorkerCounters {
                tiles_served: AtomicUsize::new(0),
                pairs_evaluated: AtomicUsize::new(0),
                store_miss_replies: AtomicUsize::new(0),
            },
            last_epoch: AtomicUsize::new(0),
            options,
            control: OnceLock::new(),
        }
    }
}

/// A running distributed worker bound to a TCP address.
pub struct WorkerServer {
    server: Server,
}

impl WorkerServer {
    /// Binds `addr` (port `0` for ephemeral) and serves the worker
    /// protocol on background threads. The graph store budget comes from
    /// `HAQJSK_WORKER_STORE_BUDGET` and a chaos plan (if any) from
    /// `HAQJSK_CHAOS` — a malformed plan is a spawn error, not a silent
    /// no-chaos run.
    pub fn spawn(addr: &str, options: WorkerOptions) -> std::io::Result<WorkerServer> {
        let chaos = ChaosPlan::from_env()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?
            .map(|plan| Arc::new(ChaosState::new(plan)));
        let state = Arc::new(WorkerState::new(options, chaos));
        let handler: Arc<dyn Handler> = Arc::new(WorkerHandler {
            state: Arc::clone(&state),
        });
        let server = Server::spawn(addr, Codec::JsonLines(handler))?;
        let _ = state.control.set(server.control());
        Ok(WorkerServer { server })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting connections (existing ones finish naturally).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }

    /// Whether a `shutdown` command asked this worker to exit (only with
    /// [`WorkerOptions::exit_on_shutdown`]). The listener is already
    /// draining; the host completes it with [`WorkerServer::drain`].
    pub fn exit_requested(&self) -> bool {
        self.server.control().is_draining()
    }

    /// Drains the listener: stops accepting, lets in-flight requests
    /// (including the `shutdown` acknowledgement) finish, and waits up to
    /// `deadline` for every connection to close.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        self.server.drain(deadline)
    }
}

struct WorkerHandler {
    state: Arc<WorkerState>,
}

impl Handler for WorkerHandler {
    fn handle(&self, request: &Json) -> (Json, Disposition) {
        let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
            let response = error_response("request needs a string field 'cmd'");
            return (response, Disposition::Keep);
        };
        let response = match cmd {
            "ping" => Json::obj([
                ("ok", Json::Bool(true)),
                ("pong", Json::Bool(true)),
                ("role", Json::Str("worker".to_string())),
                ("protocol", Json::Num(wire::PROTOCOL_VERSION as f64)),
            ]),
            "dataset_begin" => cmd_dataset_begin(&self.state, request),
            "dataset_graphs" => cmd_dataset_graphs(&self.state, request),
            "dataset_commit" => cmd_dataset_commit(&self.state, request),
            "artifact_begin" => cmd_artifact_begin(&self.state, request),
            "artifact_chunk" => cmd_artifact_chunk(&self.state, request),
            "artifact_commit" => cmd_artifact_commit(&self.state, request),
            "tile" => return cmd_tile(&self.state, request),
            "stats" => cmd_stats(&self.state),
            "chaos" => cmd_chaos(&self.state, request),
            "shutdown" => {
                if self.state.options.exit_on_shutdown {
                    if let Some(control) = self.state.control.get() {
                        control.begin_drain();
                    }
                }
                return (Json::obj([("ok", Json::Bool(true))]), Disposition::Close);
            }
            other => error_response(&format!("unknown worker command '{other}'")),
        };
        (response, Disposition::Keep)
    }
}

fn dataset_field(request: &Json) -> Result<&str, String> {
    request
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string field 'dataset'".to_string())
}

fn artifact_field(request: &Json) -> Result<&str, String> {
    request
        .get("artifact")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string field 'artifact'".to_string())
}

fn cmd_dataset_begin(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let dataset = dataset_field(request)?;
        let keys_json = request
            .get("keys")
            .and_then(Json::as_array)
            .ok_or("dataset_begin needs an array field 'keys'")?;
        let keys = keys_json
            .iter()
            .map(|k| {
                k.as_str()
                    .and_then(wire::key_from_hex)
                    .ok_or("keys must be 32-digit hex graph digests")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let missing = state
            .store
            .lock()
            .expect("graph store poisoned")
            .begin(dataset, keys);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            (
                "missing",
                Json::Arr(missing.into_iter().map(|i| Json::Num(i as f64)).collect()),
            ),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_dataset_graphs(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let dataset = dataset_field(request)?;
        let indices = request
            .get("indices")
            .and_then(Json::as_array)
            .ok_or("dataset_graphs needs an array field 'indices'")?
            .iter()
            .map(|i| i.as_usize().ok_or("indices must be non-negative integers"))
            .collect::<Result<Vec<_>, _>>()?;
        let graphs = request
            .get("graphs")
            .and_then(Json::as_array)
            .ok_or("dataset_graphs needs an array field 'graphs'")?
            .iter()
            .map(graph_from_json)
            .collect::<Result<Vec<Graph>, String>>()?;
        let stored = state
            .store
            .lock()
            .expect("graph store poisoned")
            .insert_graphs(dataset, &indices, graphs)?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("stored", Json::Num(stored as f64)),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_dataset_commit(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let dataset = dataset_field(request)?;
        let num_graphs = state
            .store
            .lock()
            .expect("graph store poisoned")
            .commit(dataset)?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("num_graphs", Json::Num(num_graphs as f64)),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_artifact_begin(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let artifact = artifact_field(request)?;
        let mut models = state.models.lock().expect("model store poisoned");
        let have = models.get(artifact).is_some();
        if !have {
            // A fresh begin resets any half-shipped text for this id.
            models.pending.insert(artifact.to_string(), String::new());
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("have", Json::Bool(have)),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_artifact_chunk(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let artifact = artifact_field(request)?;
        let text = request
            .get("text")
            .and_then(Json::as_str)
            .ok_or("artifact_chunk needs a string field 'text'")?;
        let mut models = state.models.lock().expect("model store poisoned");
        let buffer = models
            .pending
            .get_mut(artifact)
            .ok_or_else(|| format!("artifact '{artifact}' has no open begin"))?;
        buffer.push_str(text);
        Ok(Json::obj([("ok", Json::Bool(true))]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

fn cmd_artifact_commit(state: &WorkerState, request: &Json) -> Json {
    let run = || -> Result<Json, String> {
        let artifact = artifact_field(request)?;
        let mut models = state.models.lock().expect("model store poisoned");
        let text = models
            .pending
            .remove(artifact)
            .ok_or_else(|| format!("artifact '{artifact}' has no open begin"))?;
        let digest = model_artifact_id(&text);
        if digest != artifact {
            return Err(format!(
                "artifact digest mismatch: announced {artifact}, received {digest}"
            ));
        }
        // Parse eagerly: a corrupt model fails the commit, not the first
        // tile, so the coordinator's shipping phase catches it.
        let model = model_from_string(&text).map_err(|e| format!("artifact parse failed: {e}"))?;
        models.insert(
            artifact.to_string(),
            ModelEntry::new(model, CacheConfig::from_env()),
        );
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("parsed", Json::Bool(true)),
        ]))
    };
    run().unwrap_or_else(|e| error_response(&e))
}

/// Handles a `tile` request under the coordinator's trace context (when
/// the request is stamped and tracing is enabled): the worker's tile span
/// — and every engine-pool span it opens — joins the caller's trace, and
/// the records drained for that trace ride back on a successful reply as
/// a `spans` array for the coordinator to merge.
fn cmd_tile(state: &WorkerState, request: &Json) -> (Json, Disposition) {
    let ctx = wire::trace_stamp(request);
    let (mut response, disposition) = {
        let _adopted = haqjsk_obs::TraceContext::attach(ctx);
        let _span = haqjsk_obs::span("worker_tile");
        cmd_tile_inner(state, request)
    };
    if let Some(ctx) = ctx {
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            let spans = haqjsk_obs::take_trace_spans(ctx.trace_id);
            if !spans.is_empty() {
                if let Json::Obj(map) = &mut response {
                    map.insert(
                        "spans".to_string(),
                        Json::Arr(spans.iter().map(wire::span_to_json).collect()),
                    );
                }
            }
        }
    }
    (response, disposition)
}

/// Evaluates one tile request. An injected chaos kill answers an error and
/// closes this request's connection (a chaos hangup closes it without
/// answering).
fn cmd_tile_inner(state: &WorkerState, request: &Json) -> (Json, Disposition) {
    let mut disposition = Disposition::Keep;
    let mut run = || -> Result<Json, String> {
        let dataset = dataset_field(request)?;
        let job = request
            .get("job")
            .and_then(Json::as_usize)
            .ok_or("tile needs an integer field 'job'")?;
        if let Some(epoch) = request.get("epoch").and_then(Json::as_usize) {
            state.last_epoch.fetch_max(epoch, Ordering::Relaxed);
        }
        let kernel =
            KernelSpec::from_json(request.get("kernel").ok_or("tile needs a field 'kernel'")?)?;
        let pairs =
            wire::pairs_from_json(request.get("pairs").ok_or("tile needs a field 'pairs'")?)?;

        // Seeded chaos, drawn once per tile request in arrival order.
        let chaos = state.chaos.read().expect("chaos slot poisoned").clone();
        if let Some(chaos) = chaos {
            match chaos.draw(dataset, job) {
                Some(ChaosFault::Kill) => {
                    disposition = Disposition::Close;
                    return Err("chaos: injected kill".to_string());
                }
                Some(ChaosFault::Hangup) => {
                    // The response is swallowed, so its content is moot —
                    // the peer sees a mid-stream EOF.
                    disposition = Disposition::Swallow;
                    return Err("chaos: injected hangup (never written)".to_string());
                }
                Some(ChaosFault::Delay(pause)) => std::thread::sleep(pause),
                Some(ChaosFault::StoreMiss) => {
                    // One stored graph and the tile's model go, as the
                    // store budget and `MODEL_STORE_CAP` evict them when
                    // other datasets and models arrive between tiles.
                    let evicted: Vec<usize> = state
                        .store
                        .lock()
                        .expect("graph store poisoned")
                        .forget_one(dataset)
                        .into_iter()
                        .collect();
                    let model_evicted = state
                        .models
                        .lock()
                        .expect("model store poisoned")
                        .remove(&kernel.artifact);
                    if !evicted.is_empty() || model_evicted {
                        state
                            .counters
                            .store_miss_replies
                            .fetch_add(1, Ordering::Relaxed);
                        return Ok(wire::store_miss_response(job, &evicted, model_evicted));
                    }
                    // Nothing evictable (graphs pinned or unknown, model
                    // absent): the injected miss degenerates to a normal
                    // answer.
                }
                None => {}
            }
        }

        let entry = state
            .models
            .lock()
            .expect("model store poisoned")
            .get(&kernel.artifact);
        let Some(entry) = entry else {
            // The coordinator's repair re-announces the whole dataset, so
            // this miss need not list graphs.
            state
                .counters
                .store_miss_replies
                .fetch_add(1, Ordering::Relaxed);
            return Ok(wire::store_miss_response(job, &[], true));
        };
        // Pin the dataset so the bounded store cannot evict its graphs
        // mid-evaluation; a pin failure is a store miss, not an error.
        let pinned = state
            .store
            .lock()
            .expect("graph store poisoned")
            .pin_dataset(dataset);
        let graphs = match pinned {
            Ok(graphs) => graphs,
            Err(missing) => {
                state
                    .counters
                    .store_miss_replies
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(wire::store_miss_response(job, &missing, false));
            }
        };
        let n = graphs.len();
        let values = if pairs.iter().any(|&(i, j)| i >= n || j >= n) {
            Err(format!("tile pair index out of range for {n} graphs"))
        } else {
            eval_model_tile_chunked(&entry, &graphs, &pairs)
                .map_err(|e| format!("model tile evaluation failed: {e}"))
        };
        state
            .store
            .lock()
            .expect("graph store poisoned")
            .unpin_dataset(dataset);
        let values = values?;
        state.counters.tiles_served.fetch_add(1, Ordering::Relaxed);
        state
            .counters
            .pairs_evaluated
            .fetch_add(pairs.len(), Ordering::Relaxed);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("job", Json::Num(job as f64)),
            ("values", wire::values_to_json(&values)),
        ]))
    };
    let response = run().unwrap_or_else(|e| error_response(&e));
    (response, disposition)
}

/// Evaluates a fitted-model tile against the worker's reconstructed
/// model: the aligned transforms of the graphs the tile's pairs read come
/// from the entry's cache (computed at most once per distinct graph across
/// all tiles), then the tile's pair list runs through
/// `HaqjskModel::evaluate`: contiguous, lane-aligned chunks over the
/// worker's own engine pool, each chunk one `HaqjskModel::kernel_batch`. Byte-identical to the
/// coordinator's serial `HaqjskModel::gram_over_transforms` because
/// persistence round-trips the model exactly, the transform and kernel
/// are deterministic, and the batched eigensolver is bit-identical per
/// matrix.
fn eval_model_tile_chunked(
    entry: &ModelEntry,
    graphs: &[Graph],
    pairs: &[(usize, usize)],
) -> Result<Vec<f64>, String> {
    let mut touched: Vec<usize> = pairs.iter().flat_map(|&(i, j)| [i, j]).collect();
    touched.sort_unstable();
    touched.dedup();
    let touched_graphs: Vec<&Graph> = touched.iter().map(|&i| &graphs[i]).collect();
    let aligned = entry
        .model
        .transform_all_cached(&touched_graphs, &entry.cache)
        .map_err(|e| e.to_string())?;
    let at = |i: usize| &*aligned[touched.binary_search(&i).expect("a touched index")];
    let pairs: Vec<_> = pairs.iter().map(|&(i, j)| (at(i), at(j))).collect();
    entry
        .model
        .evaluate(&pairs, None)
        .map_err(|e| e.to_string())
}

fn cmd_chaos(state: &WorkerState, request: &Json) -> Json {
    match ChaosPlan::from_request(request) {
        Ok(plan) => {
            let armed = plan.is_some();
            *state.chaos.write().expect("chaos slot poisoned") =
                plan.map(|plan| Arc::new(ChaosState::new(plan)));
            Json::obj([("ok", Json::Bool(true)), ("armed", Json::Bool(armed))])
        }
        Err(e) => error_response(&e),
    }
}

fn cmd_stats(state: &WorkerState) -> Json {
    let store_stats = state.store.lock().expect("graph store poisoned").stats();
    let models = state.models.lock().expect("model store poisoned");
    let chaos = state.chaos.read().expect("chaos slot poisoned").clone();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("role", Json::Str("worker".to_string())),
        ("protocol", Json::Num(wire::PROTOCOL_VERSION as f64)),
        ("graphs_stored", Json::Num(store_stats.num_graphs as f64)),
        ("datasets", Json::Num(store_stats.num_datasets as f64)),
        (
            "store_resident_bytes",
            Json::Num(store_stats.resident_bytes as f64),
        ),
        ("store_evictions", Json::Num(store_stats.evictions as f64)),
        ("store_pin_misses", Json::Num(store_stats.pin_misses as f64)),
        ("models_stored", Json::Num(models.models.len() as f64)),
        (
            "aligned_cache_evictions",
            Json::Num(
                models
                    .models
                    .values()
                    .map(|entry| entry.cache.stats().evictions)
                    .sum::<usize>() as f64,
            ),
        ),
        (
            "last_epoch",
            Json::Num(state.last_epoch.load(Ordering::Relaxed) as f64),
        ),
        (
            "tiles_served",
            Json::Num(state.counters.tiles_served.load(Ordering::Relaxed) as f64),
        ),
        (
            "pairs_evaluated",
            Json::Num(state.counters.pairs_evaluated.load(Ordering::Relaxed) as f64),
        ),
        (
            "store_miss_replies",
            Json::Num(state.counters.store_miss_replies.load(Ordering::Relaxed) as f64),
        ),
        (
            "engine_threads",
            Json::Num(Engine::global().threads() as f64),
        ),
    ];
    match chaos {
        Some(chaos) => fields.extend([
            ("chaos_armed", Json::Bool(true)),
            ("chaos_seed", Json::Num(chaos.plan().seed as f64)),
            (
                "chaos_kills",
                Json::Num(chaos.kills.load(Ordering::Relaxed) as f64),
            ),
            (
                "chaos_hangups",
                Json::Num(chaos.hangups.load(Ordering::Relaxed) as f64),
            ),
            (
                "chaos_delays",
                Json::Num(chaos.delays.load(Ordering::Relaxed) as f64),
            ),
            (
                "chaos_misses",
                Json::Num(chaos.misses.load(Ordering::Relaxed) as f64),
            ),
        ]),
        None => fields.push(("chaos_armed", Json::Bool(false))),
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{dataset_id, dataset_keys};
    use haqjsk_core::{model_to_string, HaqjskConfig, HaqjskVariant};
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn exchange(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &Json) -> Json {
        writer.write_all(format!("{request}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    }

    fn ship_dataset(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        graphs: &[Graph],
    ) -> String {
        let keys = dataset_keys(graphs);
        let id = dataset_id(&keys);
        exchange(writer, reader, &wire::dataset_begin_request(&id, &keys));
        let refs: Vec<&Graph> = graphs.iter().collect();
        let indices: Vec<usize> = (0..graphs.len()).collect();
        exchange(
            writer,
            reader,
            &wire::dataset_graphs_request(&id, &indices, &refs),
        );
        exchange(writer, reader, &wire::dataset_commit_request(&id));
        id
    }

    /// Fits a small HAQJSK(A) model on `graphs` and ships it to the worker
    /// as one artifact chunk; returns the model and its tile kernel.
    fn ship_model(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        graphs: &[Graph],
    ) -> (HaqjskModel, Json) {
        let model = HaqjskModel::fit(
            graphs,
            HaqjskConfig::small(),
            HaqjskVariant::AlignedAdjacency,
        )
        .unwrap();
        let text = model_to_string(&model);
        let artifact = model_artifact_id(&text);
        exchange(writer, reader, &wire::artifact_begin_request(&artifact));
        exchange(
            writer,
            reader,
            &wire::artifact_chunk_request(&artifact, &text),
        );
        let commit = exchange(writer, reader, &wire::artifact_commit_request(&artifact));
        assert_eq!(commit.get("parsed").and_then(Json::as_bool), Some(true));
        (model, KernelSpec { artifact }.to_json())
    }

    /// The serial kernel values of `pairs` under `model`.
    fn model_values(model: &HaqjskModel, graphs: &[Graph], pairs: &[(usize, usize)]) -> Vec<u64> {
        let aligned = model.transform_all(graphs).unwrap();
        pairs
            .iter()
            .map(|&(i, j)| model.kernel(&aligned[i], &aligned[j]).to_bits())
            .collect()
    }

    #[test]
    fn worker_serves_dataset_and_tiles_over_loopback() {
        let server = WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let pong = exchange(&mut writer, &mut reader, &wire::ping_request());
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

        let graphs = vec![path_graph(4), cycle_graph(5), star_graph(6)];
        let id = ship_dataset(&mut writer, &mut reader, &graphs);
        let (model, kernel) = ship_model(&mut writer, &mut reader, &graphs);

        // A tile request answers the exact values of the serial model.
        let pairs = vec![(0, 0), (0, 1), (0, 2), (1, 2)];
        let response = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request(&id, 3, &kernel, &pairs, 7, None),
        );
        let tile = wire::parse_tile_response(&response).unwrap();
        assert_eq!(tile.job, 3);
        let bits: Vec<u64> = tile.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, model_values(&model, &graphs, &pairs));

        // Tiles against an uncommitted dataset answer a store miss (every
        // index missing) so the coordinator re-ships instead of failing.
        let bad = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request("ffff", 0, &kernel, &[(0, 1)], 7, None),
        );
        match wire::parse_tile_reply(&bad).unwrap() {
            wire::TileReply::StoreMiss {
                job,
                artifact_missing,
                ..
            } => {
                assert_eq!(job, 0);
                assert!(!artifact_missing);
            }
            other => panic!("expected a store miss, got {other:?}"),
        }

        let stats = exchange(
            &mut writer,
            &mut reader,
            &Json::obj([("cmd", Json::Str("stats".to_string()))]),
        );
        assert_eq!(stats.get("tiles_served").and_then(Json::as_usize), Some(1));
        assert_eq!(stats.get("graphs_stored").and_then(Json::as_usize), Some(3));
        assert_eq!(stats.get("last_epoch").and_then(Json::as_usize), Some(7));
        assert_eq!(
            stats.get("store_miss_replies").and_then(Json::as_usize),
            Some(1)
        );
        assert_eq!(
            stats.get("chaos_armed").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn model_artifacts_ship_parse_and_evaluate_tiles() {
        let server = WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let graphs = vec![path_graph(5), cycle_graph(6), star_graph(5), path_graph(7)];
        let id = ship_dataset(&mut writer, &mut reader, &graphs);

        let config = HaqjskConfig {
            max_layers: Some(2),
            ..HaqjskConfig::default()
        };
        let model = HaqjskModel::fit(&graphs, config, HaqjskVariant::AlignedAdjacency).unwrap();
        let text = model_to_string(&model);
        let digest = model_artifact_id(&text);

        // Before the artifact arrives, a model tile is a store miss with
        // `artifact_missing` set.
        let kernel = KernelSpec {
            artifact: digest.clone(),
        };
        let miss = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request(&id, 0, &kernel.to_json(), &[(0, 1)], 1, None),
        );
        match wire::parse_tile_reply(&miss).unwrap() {
            wire::TileReply::StoreMiss {
                artifact_missing, ..
            } => assert!(artifact_missing),
            other => panic!("expected an artifact miss, got {other:?}"),
        }

        // Ship the artifact in two chunks and commit.
        let begin = exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_begin_request(&digest),
        );
        assert_eq!(begin.get("have").and_then(Json::as_bool), Some(false));
        let mid = text.len() / 2;
        let mid = (mid..text.len())
            .find(|&i| text.is_char_boundary(i))
            .unwrap();
        exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_chunk_request(&digest, &text[..mid]),
        );
        exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_chunk_request(&digest, &text[mid..]),
        );
        let commit = exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_commit_request(&digest),
        );
        assert_eq!(commit.get("parsed").and_then(Json::as_bool), Some(true));

        // A second begin reports the artifact as already held.
        let again = exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_begin_request(&digest),
        );
        assert_eq!(again.get("have").and_then(Json::as_bool), Some(true));

        // Model tiles now answer the exact serial kernel values.
        let pairs = vec![(0, 0), (0, 1), (1, 2), (2, 3)];
        let response = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request(&id, 9, &kernel.to_json(), &pairs, 1, None),
        );
        let tile = wire::parse_tile_response(&response).unwrap();
        assert_eq!(tile.job, 9);
        let bits: Vec<u64> = tile.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, model_values(&model, &graphs, &pairs));

        // A commit whose text does not hash to the announced id fails.
        let fake = "not a model";
        exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_begin_request("bogus"),
        );
        exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_chunk_request("bogus", fake),
        );
        let bad = exchange(
            &mut writer,
            &mut reader,
            &wire::artifact_commit_request("bogus"),
        );
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn a_model_entry_cache_holds_to_its_budget() {
        use haqjsk_graph::generators::erdos_renyi;

        let graphs: Vec<Graph> = (0..12)
            .map(|i| erdos_renyi(6 + i % 5, 0.4, 300 + i as u64))
            .collect();
        let config = HaqjskConfig {
            max_layers: Some(2),
            ..HaqjskConfig::default()
        };
        let model = HaqjskModel::fit(&graphs, config, HaqjskVariant::AlignedAdjacency).unwrap();
        let pairs: Vec<(usize, usize)> = (0..graphs.len())
            .flat_map(|i| (i..graphs.len()).map(move |j| (i, j)))
            .collect();

        // A tile transforms only the graphs its pairs read.
        let unbounded = ModelEntry::new(model.clone(), CacheConfig::default());
        let part = [(0, 1), (1, 3)];
        let values = eval_model_tile_chunked(&unbounded, &graphs, &part).unwrap();
        assert_eq!(unbounded.cache.stats().entries, 3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), model_values(&model, &graphs, &part));

        let expected = eval_model_tile_chunked(&unbounded, &graphs, &pairs).unwrap();
        let total = unbounded.cache.stats().resident_bytes;

        let budget = total / 3;
        let bounded = ModelEntry::new(model, CacheConfig::with_budget(budget));
        let values = eval_model_tile_chunked(&bounded, &graphs, &pairs).unwrap();
        let stats = bounded.cache.stats();
        assert!(
            stats.resident_bytes <= budget,
            "{} bytes resident over a {budget}-byte budget",
            stats.resident_bytes
        );
        assert!(
            stats.evictions > 0,
            "{total} bytes of transforms never evicted"
        );
        assert_eq!(bits(&values), bits(&expected));
    }

    #[test]
    fn chaos_store_miss_is_transient_and_counted() {
        let server = WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let graphs = vec![path_graph(4), cycle_graph(5)];
        let id = ship_dataset(&mut writer, &mut reader, &graphs);
        let (model, kernel) = ship_model(&mut writer, &mut reader, &graphs);

        // Arm a plan that misses on every tile (seeded, miss:1000).
        let plan = ChaosPlan::parse("seed:7,miss:1000").unwrap();
        let armed = exchange(&mut writer, &mut reader, &wire::chaos_request(Some(&plan)));
        assert_eq!(armed.get("armed").and_then(Json::as_bool), Some(true));

        // The injected miss evicts one graph and the tile's model.
        let first = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request(&id, 4, &kernel, &[(0, 1)], 1, None),
        );
        let missing = match wire::parse_tile_reply(&first).unwrap() {
            wire::TileReply::StoreMiss {
                job,
                missing,
                artifact_missing,
            } => {
                assert_eq!(job, 4);
                assert_eq!(missing.len(), 1);
                assert!(artifact_missing);
                missing
            }
            other => panic!("expected a chaos store miss, got {other:?}"),
        };

        // Repair: re-ship exactly the evicted graph and the model, and the
        // *same* job succeeds on retry — the last-miss guard makes the
        // injected miss transient even at miss:1000.
        let keys = dataset_keys(&graphs);
        exchange(
            &mut writer,
            &mut reader,
            &wire::dataset_begin_request(&id, &keys),
        );
        let refs: Vec<&Graph> = missing.iter().map(|&i| &graphs[i]).collect();
        exchange(
            &mut writer,
            &mut reader,
            &wire::dataset_graphs_request(&id, &missing, &refs),
        );
        exchange(&mut writer, &mut reader, &wire::dataset_commit_request(&id));
        assert_eq!(ship_model(&mut writer, &mut reader, &graphs).1, kernel);
        let retry = exchange(
            &mut writer,
            &mut reader,
            &wire::tile_request(&id, 4, &kernel, &[(0, 1)], 1, None),
        );
        let tile = wire::parse_tile_response(&retry).unwrap();
        assert_eq!(tile.job, 4);
        assert_eq!(
            vec![tile.values[0].to_bits()],
            model_values(&model, &graphs, &[(0, 1)])
        );

        // Disarm; stats report the injected miss.
        exchange(&mut writer, &mut reader, &wire::chaos_request(None));
        let stats = exchange(
            &mut writer,
            &mut reader,
            &Json::obj([("cmd", Json::Str("stats".to_string()))]),
        );
        assert_eq!(
            stats.get("chaos_armed").and_then(Json::as_bool),
            Some(false)
        );
        assert!(stats.get("store_miss_replies").and_then(Json::as_usize) >= Some(1));
    }

    /// A chaos plan that kills every tile request.
    fn kill_every_tile() -> Json {
        wire::chaos_request(Some(&ChaosPlan::parse("seed:0,kill:1000").unwrap()))
    }

    #[test]
    fn a_faulting_tile_closes_only_its_own_connection() {
        // Handler level: the hangup travels with the faulting tile's own
        // response, so a ping handled right after it keeps its connection.
        let handler = WorkerHandler {
            state: Arc::new(WorkerState::new(WorkerOptions::default(), None)),
        };
        handler.handle(&kill_every_tile());
        let kernel = KernelSpec {
            artifact: "feed".repeat(8),
        }
        .to_json();
        let tile = wire::tile_request("ffff", 0, &kernel, &[(0, 1)], 1, None);
        let (faulted, disposition) = handler.handle(&tile);
        assert_eq!(faulted.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(disposition, Disposition::Close);
        let (pong, disposition) = handler.handle(&wire::ping_request());
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        assert_eq!(disposition, Disposition::Keep);

        // Over the wire: the faulting connection is closed, a second
        // connection keeps answering.
        let server = WorkerServer::spawn("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let connect = || {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        };
        let (mut faulty_writer, mut faulty_reader) = connect();
        let (mut writer, mut reader) = connect();
        exchange(&mut faulty_writer, &mut faulty_reader, &kill_every_tile());
        let faulted = exchange(&mut faulty_writer, &mut faulty_reader, &tile);
        assert_eq!(faulted.get("ok").and_then(Json::as_bool), Some(false));
        let mut line = String::new();
        assert_eq!(faulty_reader.read_line(&mut line).unwrap_or(0), 0);
        for _ in 0..2 {
            let pong = exchange(&mut writer, &mut reader, &wire::ping_request());
            assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn shutdown_acks_then_drains_only_when_asked_to_exit() {
        let shutdown = Json::obj([("cmd", Json::Str("shutdown".to_string()))]);
        for exit_on_shutdown in [false, true] {
            let mut server =
                WorkerServer::spawn("127.0.0.1:0", WorkerOptions { exit_on_shutdown }).unwrap();
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let ack = exchange(&mut writer, &mut reader, &shutdown);
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
            // The ack was written before the hangup.
            let mut line = String::new();
            assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
            assert_eq!(server.exit_requested(), exit_on_shutdown);
            if exit_on_shutdown {
                assert!(server.drain(Duration::from_secs(5)).drained);
            }
        }
    }
}
