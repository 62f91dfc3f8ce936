//! # haqjsk-dist
//!
//! Distributed tile execution: a worker-pool RPC backend that spans one
//! Gram matrix across processes and machines.
//!
//! The engine's tile scheduler hands whole tiles of index pairs to one
//! evaluator, which is exactly the shape a remote backend needs: this crate
//! adds the transport behind the engine's remote-tiles hook. A
//! [`Coordinator`] speaks a
//! JSON-lines TCP protocol (the same [`haqjsk_engine::json`] values and
//! `serve` framing as `haqjsk-serve`) to a pool of [`WorkerServer`]
//! processes, each running the existing engine locally:
//!
//! ```text
//!   Engine::gram (BackendKind::Distributed + model artifact, graphs)
//!                         │
//!        remote-tiles hook (installed by `install`)
//!                         │
//!                   Coordinator ──── dataset shipping (content-hash dedup)
//!                    │        │
//!      window + deadline    local fallback (byte-identical evaluator)
//!            │                          │
//!     haqjsk-worker ...  haqjsk-worker  └── tiles no worker returned
//!      (own engine,        (own engine,
//!       own caches)         own caches)
//! ```
//!
//! * **Selection.** `HAQJSK_BACKEND=dist:host:port,host:port` plus
//!   [`install_from_env`] (the binaries call it at startup), or
//!   [`Coordinator::connect`] + [`set_coordinator`] programmatically. Both
//!   install this crate's remote-tiles hook into the engine
//!   ([`haqjsk_engine::install_remote_tiles`]); kernels then select it like
//!   any other backend (`BackendKind::Distributed`).
//! * **Byte identity.** A distributed Gram is byte-identical to
//!   [`BackendKind::Serial`](haqjsk_engine::BackendKind) no matter which
//!   worker computed which tile, which tiles were re-dispatched, or which
//!   fell back to local execution — tile values are deterministic functions
//!   of (kernel, dataset, pair) and `f64`s round-trip bit-exactly through
//!   the JSON wire format.
//! * **Fault handling.** Outstanding-tile windows per worker,
//!   deadline-based straggler re-dispatch, death recovery with requeueing,
//!   and a local evaluator of last resort: a Gram never fails because a
//!   worker vanished. See [`fault`] and the private
//!   `scheduler` module.
//! * **What distributes.** Fitted HAQJSK model Grams, and only those: the
//!   coordinator ships the persisted-model artifact (content-addressed,
//!   dedup-shipped like datasets) and workers evaluate model tiles against
//!   a local reconstruction — the one tile kind a worker knows. Everything
//!   else — the closed-form QJSK and JTQK baselines, arbitrary closures,
//!   per-pair entries, extensions — runs on the engine's local tile
//!   scheduler when the distributed backend is selected, never failing, so
//!   the backend is always safe to enable globally.
//! * **Elastic membership.** Workers join ([`Coordinator::add_worker`])
//!   and leave ([`Coordinator::remove_worker`]) a *running* coordinator;
//!   dead workers sit in probation and are redialed with jittered
//!   exponential backoff; every transition bumps a membership epoch
//!   stamped on tile traffic. Worker-side graph stores are byte-budgeted
//!   (evictions repair via targeted re-shipping, not worker death), and a
//!   seeded [`chaos`] harness injects deterministic kills / hangups /
//!   delays / store misses for soak testing.

pub mod chaos;
pub mod coordinator;
pub mod dataset;
pub mod fault;
pub mod obs;
pub(crate) mod scheduler;
pub mod wire;
pub mod worker;

pub use chaos::{ChaosPlan, CHAOS_ENV_VAR};
pub use coordinator::{
    Coordinator, DistConfig, DistStats, DIST_CONNECT_TIMEOUT_ENV_VAR, DIST_DEADLINE_ENV_VAR,
    DIST_RECONNECT_BASE_ENV_VAR, DIST_RECONNECT_MAX_ENV_VAR, DIST_WINDOW_ENV_VAR,
};
pub use dataset::{StoreConfig, StoreStats, WORKER_STORE_BUDGET_ENV_VAR};
pub use fault::{LinkState, WorkerStatsSnapshot};
pub use obs::register_dist_metrics;
pub use wire::KernelSpec;
pub use worker::{WorkerOptions, WorkerServer};

use haqjsk_engine::{BackendKind, RemoteGram, TileEvaluator, WorkerPool};
use haqjsk_linalg::Matrix;
use std::sync::{Arc, OnceLock, RwLock};

fn coordinator_slot() -> &'static RwLock<Option<Arc<Coordinator>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Coordinator>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Installs `remote_tiles` as the engine's remote-tiles hook, so
/// `BackendKind::Distributed` fitted-model Grams reach the current
/// coordinator. Idempotent.
pub fn install() {
    haqjsk_engine::install_remote_tiles(remote_tiles);
}

/// The remote-tiles hook: hands a fitted-model Gram to the current
/// [`Coordinator`]. `None` — no coordinator installed, or it declined —
/// makes the engine run the Gram on its local pool.
fn remote_tiles(
    pool: &WorkerPool,
    n: usize,
    tile: usize,
    eval: &dyn TileEvaluator,
    spec: &RemoteGram<'_>,
) -> Option<Matrix> {
    current_coordinator()?.gram_tiles(pool, n, tile, eval, spec)
}

/// Swaps the process-wide coordinator (also [`install`]ing the hook);
/// returns the previous one. `None` reverts `BackendKind::Distributed` to
/// local execution.
pub fn set_coordinator(coordinator: Option<Arc<Coordinator>>) -> Option<Arc<Coordinator>> {
    install();
    let mut slot = coordinator_slot()
        .write()
        .expect("coordinator slot poisoned");
    std::mem::replace(&mut slot, coordinator)
}

/// The process-wide coordinator, if one is installed.
pub fn current_coordinator() -> Option<Arc<Coordinator>> {
    coordinator_slot()
        .read()
        .expect("coordinator slot poisoned")
        .clone()
}

/// Wires the distributed backend up from the environment: when
/// `HAQJSK_BACKEND` is `dist:<addr,addr>`, connects a [`Coordinator`]
/// (config from `HAQJSK_DIST_*`), installs it process-wide and returns it.
/// `Ok(None)` when the environment selects no distributed backend; an
/// error when it does but no worker is reachable — binaries should treat
/// that as fatal at startup rather than silently computing locally.
pub fn install_from_env() -> Result<Option<Arc<Coordinator>>, String> {
    let Some(addrs) = BackendKind::dist_addresses_from_env() else {
        return Ok(None);
    };
    let coordinator = Arc::new(Coordinator::connect(&addrs, DistConfig::from_env())?);
    set_coordinator(Some(Arc::clone(&coordinator)));
    Ok(Some(coordinator))
}
