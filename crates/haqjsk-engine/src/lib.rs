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
//! * [`gram`] — **the one Gram tile scheduler**: the tiles of the column
//!   strip `j >= m` (the whole upper triangle for a full Gram, the new
//!   rows/columns for an extension), evaluated through one
//!   [`TileEvaluator`] on the pool or inline on the calling thread,
//! * [`backend`] — where a Gram runs ([`BackendKind`]: `serial` inline,
//!   `local` on the pool, `dist` through the remote-tiles hook installed
//!   by `haqjsk-dist`; `tiled`/`batched` and their variants are aliases of
//!   `local`), the [`TileEvaluator`] seam and the [`per_pair`] shim.
//!   Selected per engine (builder) or per call, with a process-wide
//!   `HAQJSK_BACKEND` override; every path is byte-identical,
//! * [`engine`] — the [`Engine`] that ties pool, backend and tile width
//!   together: `gram` (full), `gram_extend` (appending rows/columns for
//!   streaming workloads) and `map` (per-graph feature extraction),
//! * [`cache`] — a **sharded, budgeted** per-graph feature cache
//!   ([`FeatureCache`]) keyed by a structural graph hash
//!   ([`hash::graph_key`]): the key space is range-partitioned into
//!   eight independently locked shards, each maintaining an LRU list and its
//!   slice of an optional byte budget (value sizes via [`CacheWeight`]),
//!   with exactly-once compute semantics per resident key and full
//!   hit/miss/eviction instrumentation per shard,
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
//!        │ TileEvaluator (+ RemoteGram spec for dist)
//!        ▼
//!   Engine::gram / gram_extend ── one tile scheduler (gram::run_tiles)
//!        │      serial: inline │ local: WorkerPool │ dist: remote-tiles hook
//!        │                                                     │
//!        └────────── FeatureCache (8 key-range shards, ────────┘
//!                    LRU + byte budget per shard)
//! ```
//!
//! Batched kernels plug in at the evaluator (one tile, one batched
//! eigensolve); remote execution plugs in at the hook; new memory policies
//! land in the cache layer without touching scheduling.
//!
//! Higher layers route through [`Engine::global`]:
//! `haqjsk-kernels::kernel::gram_from_tiles` (behind every
//! [`GraphKernel`](../haqjsk_kernels/trait.GraphKernel.html)),
//! `haqjsk-core`'s `HaqjskModel` Grams and extensions, and the benchmark
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

pub use backend::{
    install_remote_tiles, per_pair, BackendKind, RemoteArtifact, RemoteGram, RemoteTiles,
    TileEvaluator, BACKEND_ENV_VAR,
};
pub use cache::{
    parse_byte_size, CacheConfig, CacheStats, CacheWeight, FeatureCache, LruList, ShardStats,
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
