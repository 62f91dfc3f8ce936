//! Engine-side observability wiring: cached handles for the engine's own
//! metrics (Gram build time, tile latency, pool jobs, serve request
//! accounting) and the [`Snapshot`] → [`Json`] conversion the serving
//! layer's `metrics`/`stats` operations use.
//!
//! Handles are resolved once through `OnceLock`s so the hot paths never
//! take the registry lock; per-request serve metrics go through the
//! registry's keyed lookup (one mutex acquisition per network round-trip,
//! which is noise next to the socket I/O).

use crate::backend::BackendKind;
use crate::json::Json;
use haqjsk_obs::metrics::{registry, Counter, Gauge, Histogram, MetricValue, Snapshot};
use std::sync::OnceLock;
use std::time::Instant;

/// Name and help text of the Gram build-time family, labelled `backend`
/// by the path that ran the build: `serial` and `local` here, `dist` for
/// the Grams `haqjsk-dist`'s coordinator runs on its worker pool.
pub const GRAM_BUILD_SECONDS: (&str, &str) = (
    "haqjsk_gram_build_seconds",
    "Wall-clock time of one Gram matrix build, by the execution path that ran it.",
);

/// Histogram of wall-clock Gram build time of the engine path `ran`
/// ([`GRAM_BUILD_SECONDS`]).
pub fn gram_build_histogram(ran: BackendKind) -> &'static Histogram {
    static HISTOGRAMS: OnceLock<[Histogram; 2]> = OnceLock::new();
    let all = HISTOGRAMS.get_or_init(|| {
        BackendKind::ALL.map(|kind| {
            let (name, help) = GRAM_BUILD_SECONDS;
            registry().histogram(name, help, &[("backend", kind.label())])
        })
    });
    match ran {
        BackendKind::Serial => &all[0],
        BackendKind::Local => &all[1],
    }
}

/// Histogram of wall-clock Gram build time of `kernel`
/// (`haqjsk_kernel_gram_seconds`): one observation per Gram matrix,
/// in-process or distributed.
pub fn kernel_gram_histogram(kernel: &str) -> Histogram {
    registry().histogram(
        "haqjsk_kernel_gram_seconds",
        "Wall-clock time of one Gram matrix build, by kernel.",
        &[("kernel", kernel)],
    )
}

/// Histogram of per-tile evaluation latency of the Gram tile scheduler.
pub fn tile_eval_histogram() -> &'static Histogram {
    static HISTOGRAM: OnceLock<Histogram> = OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        registry().histogram(
            "haqjsk_tile_eval_seconds",
            "Wall-clock time of one Gram tile evaluation on the worker pool.",
            &[],
        )
    })
}

/// Counter of jobs ever submitted to the worker pool.
pub fn pool_jobs_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_pool_jobs_total",
            "Jobs submitted to the worker pool.",
            &[],
        )
    })
}

/// RAII timer recording into a histogram on drop — the per-Gram build
/// instrumentation (one `Instant` pair per Gram matrix, nothing per pair).
pub struct HistogramTimer {
    histogram: Histogram,
    start: Instant,
}

impl HistogramTimer {
    /// Starts timing into `histogram`.
    pub fn start(histogram: &Histogram) -> HistogramTimer {
        HistogramTimer {
            histogram: histogram.clone(),
            start: Instant::now(),
        }
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.start.elapsed());
    }
}

// ---------------------------------------------------------------------------
// Serve request accounting
// ---------------------------------------------------------------------------

/// Maximum length of an `op` label value; longer command names truncate.
const MAX_OP_LEN: usize = 32;

/// Maps a request command to a bounded-cardinality `op` label value:
/// lower-cased, non-`[a-z0-9_]` characters replaced with `_`, truncated.
pub fn sanitize_op(cmd: &str) -> String {
    let mut out = String::with_capacity(cmd.len().min(MAX_OP_LEN));
    for c in cmd.chars().take(MAX_OP_LEN) {
        let c = c.to_ascii_lowercase();
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    if out.is_empty() {
        out.push_str("unknown");
    }
    out
}

/// Counter of requests served, by operation.
pub fn serve_requests_counter(op: &str) -> Counter {
    registry().counter(
        "haqjsk_serve_requests_total",
        "Requests handled by the serving loop, by operation.",
        &[("op", op)],
    )
}

/// Histogram of request wall time, by operation.
pub fn serve_request_histogram(op: &str) -> Histogram {
    registry().histogram(
        "haqjsk_serve_request_seconds",
        "Wall-clock time spent handling one request, by operation.",
        &[("op", op)],
    )
}

/// Counter of error responses, by operation.
pub fn serve_errors_counter(op: &str) -> Counter {
    registry().counter(
        "haqjsk_serve_errors_total",
        "Requests answered with an error envelope, by operation.",
        &[("op", op)],
    )
}

/// Gauge of requests currently being handled.
pub fn serve_inflight_gauge() -> &'static Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        registry().gauge(
            "haqjsk_serve_inflight",
            "Requests currently being handled.",
            &[],
        )
    })
}

/// Counter of connections accepted by the serving loop.
pub fn serve_connections_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_serve_connections_total",
            "Connections accepted by the serving loop.",
            &[],
        )
    })
}

/// Gauge of connections currently open (incremented on accept, decremented
/// by the connection guard on close — unlike the accepted-connections
/// counter, this returns to baseline when clients disconnect).
pub fn serve_active_connections_gauge() -> &'static Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        registry().gauge(
            "haqjsk_serve_active_connections",
            "Connections currently open on the serving loop.",
            &[],
        )
    })
}

/// Counter of connections rejected at accept time because the concurrent
/// connection cap (`HAQJSK_SERVE_MAX_CONNS`) was reached.
pub fn serve_conns_rejected_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_serve_conns_rejected_total",
            "Connections shed at accept time by the connection cap.",
            &[],
        )
    })
}

/// Counter of frames rejected for exceeding `HAQJSK_SERVE_MAX_FRAME_BYTES`.
pub fn serve_frames_oversized_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_serve_frames_oversized_total",
            "Request frames rejected for exceeding the frame-size cap.",
            &[],
        )
    })
}

/// Counter of connections closed because a partially received frame made
/// no progress within the per-socket I/O timeout (slow-loris defense).
pub fn serve_io_timeouts_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_serve_io_timeouts_total",
            "Connections closed for stalling mid-frame past the I/O timeout.",
            &[],
        )
    })
}

/// Counter of handler panics caught by the connection loop's panic
/// isolation (the process keeps serving; the request gets an error line).
pub fn serve_panics_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_serve_panics_total",
            "Handler panics caught and answered with an error envelope.",
            &[],
        )
    })
}

/// Counter of heavy requests shed by admission control, by operation.
pub fn serve_rejected_counter(op: &str) -> Counter {
    registry().counter(
        "haqjsk_serve_rejected_total",
        "Heavy requests shed by admission control, by operation.",
        &[("op", op)],
    )
}

/// Counter of requests that exceeded their deadline, by operation.
pub fn serve_deadline_exceeded_counter(op: &str) -> Counter {
    registry().counter(
        "haqjsk_serve_deadline_exceeded_total",
        "Requests answered with deadline_exceeded, by operation.",
        &[("op", op)],
    )
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint accounting
// ---------------------------------------------------------------------------

/// Counter of HTTP requests answered, by (bounded) path label and status.
pub fn http_requests_counter(path: &str, status: u16) -> Counter {
    registry().counter(
        "haqjsk_http_requests_total",
        "HTTP requests answered by the scrape endpoint, by path and status.",
        &[("path", path), ("status", &status.to_string())],
    )
}

/// Gauge of HTTP connections currently open (returns to baseline when
/// clients disconnect).
pub fn http_active_connections_gauge() -> &'static Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        registry().gauge(
            "haqjsk_http_active_connections",
            "Connections currently open on the HTTP scrape endpoint.",
            &[],
        )
    })
}

/// Counter of HTTP connections accepted.
pub fn http_connections_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter(
            "haqjsk_http_connections_total",
            "Connections accepted by the HTTP scrape endpoint.",
            &[],
        )
    })
}

/// One-hot serving-state gauge: exactly one of
/// `haqjsk_serve_state{state="serving"}` and
/// `haqjsk_serve_state{state="draining"}` is 1.
pub fn set_serve_state(draining: bool) {
    static STATES: OnceLock<[Gauge; 2]> = OnceLock::new();
    let [serving, drain] = STATES.get_or_init(|| {
        let make = |state: &str| {
            registry().gauge(
                "haqjsk_serve_state",
                "Serving-loop lifecycle state (one-hot by 'state' label).",
                &[("state", state)],
            )
        };
        [make("serving"), make("draining")]
    });
    serving.set(if draining { 0.0 } else { 1.0 });
    drain.set(if draining { 1.0 } else { 0.0 });
}

// ---------------------------------------------------------------------------
// Snapshot -> Json
// ---------------------------------------------------------------------------

fn labels_to_json(labels: &[(String, String)]) -> Json {
    Json::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

/// Converts a registry snapshot to the engine's [`Json`] value: an array of
/// `{name, kind, labels, ...}` objects, histograms summarised as
/// count/sum/min/max/mean and the p50/p90/p99 estimates.
pub fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    let metrics = snapshot
        .entries
        .iter()
        .map(|entry| {
            let mut pairs = vec![
                ("name", Json::Str(entry.name.clone())),
                ("kind", Json::Str(entry.kind.as_str().to_string())),
                ("labels", labels_to_json(&entry.labels)),
            ];
            match &entry.value {
                MetricValue::Counter(v) => pairs.push(("value", Json::Num(*v as f64))),
                MetricValue::Gauge(v) => pairs.push(("value", Json::Num(*v))),
                MetricValue::Histogram(h) => {
                    pairs.push(("count", Json::Num(h.count as f64)));
                    pairs.push(("sum", Json::Num(h.sum)));
                    if h.count > 0 {
                        pairs.push(("min", Json::Num(h.min)));
                        pairs.push(("max", Json::Num(h.max)));
                        pairs.push(("mean", Json::Num(h.mean())));
                        pairs.push(("p50", Json::Num(h.quantile(0.5))));
                        pairs.push(("p90", Json::Num(h.quantile(0.9))));
                        pairs.push(("p99", Json::Num(h.quantile(0.99))));
                    }
                }
            }
            Json::obj(pairs)
        })
        .collect();
    Json::Arr(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_op_bounds_cardinality() {
        assert_eq!(sanitize_op("kernel_row"), "kernel_row");
        assert_eq!(sanitize_op("Kernel-Row!"), "kernel_row_");
        assert_eq!(sanitize_op(""), "unknown");
        assert!(sanitize_op(&"x".repeat(200)).len() <= MAX_OP_LEN);
    }

    #[test]
    fn snapshot_converts_to_json() {
        let op = "obs_unit_test";
        serve_requests_counter(op).inc();
        serve_request_histogram(op).observe(0.002);
        let json = snapshot_to_json(&registry().snapshot());
        let rendered = json.to_string();
        assert!(rendered.contains("haqjsk_serve_requests_total"));
        assert!(rendered.contains("haqjsk_serve_request_seconds"));
        assert!(rendered.contains(op));
    }
}
