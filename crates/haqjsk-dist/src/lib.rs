//! # haqjsk-dist
//!
//! Distributed tile execution: a worker-pool RPC backend that spans one
//! fitted model's Gram matrix across processes and machines.
//!
//! The engine's tile scheduler hands whole tiles of index pairs to one
//! evaluator, which is exactly the shape a remote backend needs: a
//! [`Coordinator`] runs the same tile grid over a pool of
//! [`WorkerServer`] processes, each running the existing engine locally,
//! speaking a JSON-lines TCP protocol (the same [`haqjsk_engine::json`]
//! values and `serve` framing as `haqjsk-serve`):
//!
//! ```text
//!   Coordinator::model_gram (model, graphs, transforms)
//!          │  artifact = persisted model; grid = Engine::tile_width
//!          │
//!   Coordinator ──── dataset + artifact shipping (content-hash dedup)
//!    │        │
//!   window + deadline    local fallback (the model's tile evaluator;
//!    │                       the whole Gram when no worker answers)
//!   haqjsk-worker ...  haqjsk-worker
//!    (own engine,        (own engine,
//!     own caches)         own caches)
//! ```
//!
//! * **Selection.** There is no engine hook: a caller holding a
//!   coordinator calls [`Coordinator::model_gram`]. The serving layer does
//!   so for a `fit` with `workers` (whose pool it then installs), and for
//!   every other `fit` and `load` with graphs whenever a pool is installed
//!   ([`current_coordinator`]): the pool a `workers` fit installed, or the
//!   startup pool of a server started with
//!   `HAQJSK_BACKEND=dist:host:port,host:port` ([`install_from_env`],
//!   which the binaries call at startup). The engine reads such a value as
//!   its default backend, `local`.
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
//!   scheduler, never failing, so a pool is always safe to install.
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

use haqjsk_engine::BackendKind;
use std::sync::{Arc, RwLock};

/// The process-wide coordinator and the counter totals of those it
/// replaced, read under one lock so a replacement is counted exactly once.
struct Slot {
    current: Option<Arc<Coordinator>>,
    retired: obs::Retired,
}

static SLOT: RwLock<Slot> = RwLock::new(Slot {
    current: None,
    retired: obs::Retired::NONE,
});

fn slot() -> std::sync::RwLockReadGuard<'static, Slot> {
    SLOT.read().expect("coordinator slot poisoned")
}

/// Swaps the process-wide coordinator, the pool `stats`, the
/// `haqjsk_dist_*` metrics and membership changes read; returns the
/// previous one. `None` uninstalls it. The previous coordinator's counter
/// totals, as of now, stay in the `haqjsk_dist_*_total` metrics.
pub fn set_coordinator(coordinator: Option<Arc<Coordinator>>) -> Option<Arc<Coordinator>> {
    let mut slot = SLOT.write().expect("coordinator slot poisoned");
    let previous = std::mem::replace(&mut slot.current, coordinator);
    if let Some(previous) = &previous {
        slot.retired.fold(&previous.stats());
    }
    previous
}

/// The process-wide coordinator, if one is installed.
pub fn current_coordinator() -> Option<Arc<Coordinator>> {
    slot().current.clone()
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
