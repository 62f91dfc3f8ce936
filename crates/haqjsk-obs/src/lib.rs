//! # haqjsk-obs
//!
//! The process-wide observability substrate of the workspace: one metrics
//! registry every layer reports through, a low-overhead span tracer, and
//! exposition of both as Prometheus text.
//!
//! Built on `std` only (like the rest of the workspace) with three pieces:
//!
//! * **Metrics** ([`metrics`]) — counters, gauges and log-linear-bucket
//!   latency histograms, registered once by `(name, labels)` and recorded
//!   through cheap cloneable handles. The hot path is sharded atomics: a
//!   `Counter::inc` or `Histogram::observe` touches a per-thread shard and
//!   never takes a lock, so instrumenting a Gram tile loop or an RPC path
//!   costs nanoseconds. Subsystems that already maintain their own atomic
//!   counters (the batched eigensolver, the distributed coordinator)
//!   re-export them through registry *collectors* — closures
//!   run at snapshot time — so one scrape covers every layer.
//! * **Tracing** ([`trace`]) — causal [`Span`] guards writing fixed-size
//!   records into per-thread ring buffers, drained as JSON lines for
//!   flamegraph-style offline analysis. Every span carries a
//!   [`TraceContext`] (trace id, span id, parent id); contexts are
//!   captured/attached across threads and processes so one trace follows
//!   a request through pool jobs and distributed workers. Disabled
//!   (near-zero cost) when the `HAQJSK_TRACE` environment variable is
//!   `0`.
//! * **Flight recorder** ([`flight`]) — an always-on bounded ring of
//!   recent request summaries plus a sticky slow-log
//!   (`HAQJSK_SLOW_REQUEST_MS`), so the last requests before an incident
//!   are always recoverable.
//! * **Exposition** ([`expo`]) — renders a registry [`Snapshot`] in the
//!   Prometheus text format, and parses/validates such text (the CI scrape
//!   check and the loopback tests share the validator).
//!
//! The crate deliberately knows nothing about the engine's `Json` value or
//! any other workspace type; the engine layers its own JSON conversion on
//! top of [`Snapshot`].

pub mod expo;
pub mod flight;
pub mod metrics;
pub mod trace;

pub use expo::{parse_exposition, render_prometheus, Exposition};
pub use flight::{
    flight_jsonl, flight_snapshot, record_request, slow_threshold, FlightDump, RequestRecord,
    SLOW_REQUEST_ENV_VAR,
};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricKind, MetricValue,
    Registry, Snapshot,
};
pub use trace::{
    drain_trace_jsonl, merge_spans, record_span, span, span_id_from_hex, span_id_hex,
    take_trace_spans, trace_enabled, trace_id_from_hex, trace_id_hex, ContextGuard, Span,
    SpanRecord, TraceContext, TraceDump, TRACE_ENV_VAR,
};
