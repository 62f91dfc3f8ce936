//! Distributed-layer observability: per-worker RPC round-trip histograms
//! plus a registry collector re-exporting [`DistStats`] as `haqjsk_dist_*`
//! metrics.
//!
//! Two kinds of exchange feed `haqjsk_dist_rpc_seconds{worker}`:
//!
//! * synchronous control/dataset RPCs (`Conn::call_counted` — dataset
//!   begin/chunk/commit), timed around one send + receive, and
//! * pipelined tile exchanges, timed from dispatch (the scheduler's
//!   in-flight stamp) to the winning commit.
//!
//! The aggregate counters and gauges are registered once by
//! [`register_dist_metrics`] and refreshed at snapshot time from the
//! process-wide coordinator; with no coordinator installed they read zero,
//! so the `haqjsk_dist_*` family is present in every scrape. Per-worker
//! series appear lazily as workers are configured (metric registration is
//! idempotent, and collectors run outside the family lock).
//!
//! Every `_total` counter is the installed coordinator's total plus the
//! totals of the coordinators it replaced, so installing a new pool never
//! moves a counter backwards. A replaced coordinator is folded in as of
//! its replacement: Grams it still runs after that are not counted.

use crate::{DistStats, WorkerStatsSnapshot};
use haqjsk_obs::{registry, Histogram};
use std::collections::BTreeMap;
use std::sync::{Once, OnceLock};

/// The per-worker RPC round-trip histogram
/// (`haqjsk_dist_rpc_seconds{worker="host:port"}`).
pub fn rpc_histogram(worker: &str) -> Histogram {
    registry().histogram(
        "haqjsk_dist_rpc_seconds",
        "Coordinator-observed round-trip time of one worker exchange \
         (dataset RPCs and tile dispatch-to-commit), by worker address.",
        &[("worker", worker)],
    )
}

/// `haqjsk_gram_build_seconds{backend="dist"}`: the engine's Gram
/// build-time family, observed for each Gram the coordinator runs on its
/// pool.
pub fn gram_build_histogram() -> &'static Histogram {
    static HISTOGRAM: OnceLock<Histogram> = OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        let (name, help) = haqjsk_engine::obs::GRAM_BUILD_SECONDS;
        registry().histogram(name, help, &[("backend", "dist")])
    })
}

/// A counter of the `haqjsk_dist_*` family: name, help, and where its
/// value sits in a stats snapshot `S`.
type Total<S> = (&'static str, &'static str, fn(&S) -> usize);

/// The coordinator-wide counters.
const TOTALS: [Total<DistStats>; 8] = [
    (
        "haqjsk_dist_grams_total",
        "Gram computations routed through the distributed coordinator.",
        |s| s.grams,
    ),
    (
        "haqjsk_dist_local_fallback_grams_total",
        "Gram computations the coordinator executed entirely locally.",
        |s| s.local_fallback_grams,
    ),
    (
        "haqjsk_dist_local_fallback_tiles_total",
        "Tiles evaluated by the coordinator's local fallback after worker failures.",
        |s| s.local_fallback_tiles,
    ),
    (
        "haqjsk_dist_dataset_keys_total",
        "Graph keys announced across all dataset shipping rounds.",
        |s| s.dataset_keys_total,
    ),
    (
        "haqjsk_dist_dataset_keys_shipped_total",
        "Graph keys actually shipped (announced keys minus dedup hits).",
        |s| s.dataset_keys_shipped,
    ),
    (
        "haqjsk_dist_tiles_scheduled_total",
        "Tiles handed to the distributed scheduler across all Grams.",
        |s| s.tiles_scheduled,
    ),
    (
        "haqjsk_dist_tiles_committed_total",
        "Tiles committed from worker results across all Grams.",
        |s| s.tiles_committed,
    ),
    (
        "haqjsk_dist_artifacts_shipped_total",
        "Model artifacts that actually travelled to a worker (dedup misses).",
        |s| s.artifacts_shipped,
    ),
];

/// The per-worker counters, labelled by worker address.
const WORKER_TOTALS: [Total<WorkerStatsSnapshot>; 8] = [
    (
        "haqjsk_dist_tiles_dispatched_total",
        "Tiles dispatched to the worker, by worker address.",
        |w| w.tiles_dispatched,
    ),
    (
        "haqjsk_dist_tiles_completed_total",
        "Tile results accepted from the worker, by worker address.",
        |w| w.tiles_completed,
    ),
    (
        "haqjsk_dist_tiles_redispatched_total",
        "Straggler tiles the worker re-claimed from peers, by worker address.",
        |w| w.tiles_redispatched,
    ),
    (
        "haqjsk_dist_bytes_shipped_total",
        "Request bytes shipped to the worker, by worker address.",
        |w| w.bytes_shipped,
    ),
    (
        "haqjsk_dist_datasets_shipped_total",
        "Dataset shipping rounds completed to the worker, by worker address.",
        |w| w.datasets_shipped,
    ),
    (
        "haqjsk_dist_worker_deaths_total",
        "Times the worker was declared dead, by worker address.",
        |w| w.deaths,
    ),
    (
        "haqjsk_dist_reconnects_total",
        "Times the worker revived out of probation, by worker address.",
        |w| w.reconnects,
    ),
    (
        "haqjsk_dist_store_misses_total",
        "store_miss tile replies received from the worker, by worker address.",
        |w| w.store_misses,
    ),
];

/// Counter totals of replaced coordinators, aggregate and per worker
/// address, in [`TOTALS`] / [`WORKER_TOTALS`] order.
#[derive(Clone)]
pub(crate) struct Retired {
    totals: [u64; 8],
    workers: BTreeMap<String, [u64; 8]>,
}

impl Retired {
    pub(crate) const NONE: Retired = Retired {
        totals: [0; 8],
        workers: BTreeMap::new(),
    };

    /// Adds a coordinator's counters.
    pub(crate) fn fold(&mut self, stats: &DistStats) {
        add(&mut self.totals, &TOTALS, stats);
        for worker in &stats.workers {
            let sums = self.workers.entry(worker.addr.clone()).or_default();
            add(sums, &WORKER_TOTALS, worker);
        }
    }
}

fn add<S>(sums: &mut [u64; 8], fields: &[Total<S>; 8], stats: &S) {
    for (sum, (_, _, read)) in sums.iter_mut().zip(fields) {
        *sum += read(stats) as u64;
    }
}

/// Registers the `haqjsk_dist_*` metric family (and the `dist` series of
/// [`gram_build_histogram`]): aggregate coordinator counters, the
/// dedup-rate gauge, and per-worker counters/liveness,
/// all refreshed from [`crate::current_coordinator`] (plus the totals of
/// the coordinators it replaced) at snapshot time. Idempotent; safe to
/// call with no coordinator installed.
pub fn register_dist_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        gram_build_histogram();
        let registry = registry();
        let totals = TOTALS.map(|(name, help, _)| registry.counter(name, help, &[]));
        let workers_gauge = registry.gauge(
            "haqjsk_dist_workers",
            "Workers configured on the current coordinator.",
            &[],
        );
        let epoch_gauge = registry.gauge(
            "haqjsk_dist_membership_epoch",
            "Membership epoch of the current coordinator (bumped on every \
             join, death, revival and drain).",
            &[],
        );
        let dedup_gauge = registry.gauge(
            "haqjsk_dist_dedup_hit_rate",
            "Fraction of announced dataset keys already resident on workers.",
            &[],
        );
        registry.register_collector(move || {
            let slot = crate::slot();
            let stats = slot.current.as_ref().map(|c| c.stats());
            let mut sums = slot.retired.clone();
            drop(slot);
            if let Some(stats) = &stats {
                sums.fold(stats);
            }
            for (counter, sum) in totals.iter().zip(sums.totals) {
                counter.store(sum);
            }
            let registry = haqjsk_obs::registry();
            for (addr, worker_sums) in &sums.workers {
                for ((name, help, _), sum) in WORKER_TOTALS.iter().zip(worker_sums) {
                    registry.counter(name, help, &[("worker", addr)]).store(*sum);
                }
            }
            let (workers, epoch, dedup) = stats.as_ref().map_or((0, 0, 0.0), |s| {
                (s.workers.len(), s.epoch, s.dedup_hit_rate())
            });
            workers_gauge.set(workers as f64);
            epoch_gauge.set(epoch as f64);
            dedup_gauge.set(dedup);
            let Some(stats) = stats else { return };
            for worker in &stats.workers {
                let labels = [("worker", worker.addr.as_str())];
                registry
                    .gauge(
                        "haqjsk_dist_worker_alive",
                        "Whether the worker link is currently believed live (1/0), by worker address.",
                        &labels,
                    )
                    .set(if worker.alive { 1.0 } else { 0.0 });
                // One gauge per (worker, state): exactly one of the three
                // reads 1 at any snapshot.
                for state in [
                    crate::fault::LinkState::Probation,
                    crate::fault::LinkState::Alive,
                    crate::fault::LinkState::Draining,
                ] {
                    registry
                        .gauge(
                            "haqjsk_dist_worker_state",
                            "Membership state of the worker link (1 on the \
                             active state, 0 elsewhere), by worker address and state.",
                            &[("worker", worker.addr.as_str()), ("state", state.label())],
                        )
                        .set(if worker.state == state { 1.0 } else { 0.0 });
                }
            }
        });
    });
}
