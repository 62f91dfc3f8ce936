//! # haqjsk-engine
//!
//! The parallel Gram-computation engine: the single execution substrate for
//! every kernel in the HAQJSK workspace.
//!
//! The HAQJSK pipeline is dominated by `n(n+1)/2` pairwise kernel
//! evaluations, each of which historically re-derived per-graph features
//! (CTQW density matrices, depth-based vertex representations) that are in
//! fact reusable across every pair. This crate centralises the machinery
//! that fixes that:
//!
//! * [`pool`] — a reusable scoped-worker thread pool ([`WorkerPool`]) with
//!   the worker count configurable through the `HAQJSK_THREADS` environment
//!   variable,
//! * [`gram`] — **the one Gram tile scheduler**: the upper-triangle tiles
//!   of a full Gram, evaluated through one [`TileEvaluator`] on the pool
//!   or inline on the calling thread,
//! * [`backend`] — where a Gram's tiles run ([`BackendKind`]: `serial`
//!   inline, `local` on the pool; a `dist:<addrs>` value names the
//!   startup worker pool of `haqjsk-dist` and leaves the engine on
//!   `local`; any other spelling, the old `tiled`/`batched` ones
//!   included, is an unknown-backend error), the [`TileEvaluator`] seam
//!   and the [`per_pair`] shim.
//!   Selected per engine (builder) or per call, with a process-wide
//!   `HAQJSK_BACKEND` override; every path is byte-identical,
//! * [`engine`] — the [`Engine`] that ties pool, backend and tile width
//!   together: `gram` (a full Gram's tiles), `tile_width` (the grid the
//!   dist coordinator reproduces) and `map` / `map_chunks` (per-graph
//!   feature extraction and pair batches, under the engine's default
//!   backend),
//! * [`cache`] — a **budgeted** per-graph feature cache ([`FeatureCache`])
//!   keyed by a structural graph hash ([`hash::graph_key`]): one LRU list
//!   under one mutex, bounded by an optional byte budget (value sizes via
//!   [`CacheWeight`]), with exactly-once compute semantics per resident key
//!   and hit/miss/eviction instrumentation,
//! * [`json`] + [`serve`] + [`http`] — the TCP serving substrate: one
//!   hardened [`Server`] speaking one [`Codec`] (JSON-lines for
//!   `haqjsk-serve` and dist workers, HTTP/1.1 GET for the observability
//!   sidecar), the graph wire format and a dependency-free JSON.
//!
//! ## Architecture: one seam per scaling axis
//!
//! The engine deliberately separates *what* is computed (the caller's tile
//! evaluator), *where* it runs (the [`BackendKind`]), and *what is
//! remembered* (the [`FeatureCache`]):
//!
//! ```text
//!   callers (kernels, model, serving)
//!        │ TileEvaluator
//!        ▼
//!   Engine::gram ── one tile scheduler (gram::run_tiles)
//!        │      serial: inline │ local: WorkerPool
//!        │
//!        └────────── FeatureCache (one LRU + byte budget)
//! ```
//!
//! Batched kernels plug in at the evaluator (one tile, one batched
//! eigensolve); new memory policies land in the cache layer without
//! touching scheduling. Remote execution is not an engine seam: the
//! `haqjsk-dist` coordinator runs a fitted model's Gram itself, over the
//! same grid, with the model's evaluator as its local fallback.
//!
//! Higher layers route through [`Engine::global`]:
//! `haqjsk-kernels::kernel::gram_from_tiles` (behind every
//! [`GraphKernel`](../haqjsk_kernels/trait.GraphKernel.html)),
//! `haqjsk-core`'s `HaqjskModel` Grams and pair batches, and the benchmark
//! binaries.

pub mod backend;
pub mod cache;
pub mod engine;
pub mod gram;
pub mod hash;
pub mod http;
pub mod json;
pub mod obs;
pub mod pool;
pub mod serve;

pub use backend::{per_pair, BackendKind, TileEvaluator, BACKEND_ENV_VAR};
pub use cache::{
    parse_byte_size, CacheConfig, CacheStats, CacheWeight, FeatureCache, LruList,
    CACHE_BUDGET_ENV_VAR,
};
pub use engine::{Engine, EngineBuilder};
pub use hash::{graph_key, GraphKey};
pub use http::{HttpResponder, HttpResponse};
pub use json::Json;
pub use pool::{default_thread_count, WorkerPool, THREADS_ENV_VAR};
pub use serve::{
    error_response, graph_from_json, graph_to_json, Codec, Disposition, DrainReport, Handler,
    ServeConfig, ServeControl, Server, MAX_GRAPH_VERTICES,
};
