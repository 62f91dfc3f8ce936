//! The flight recorder: an always-on bounded ring of recent request
//! summaries plus a sticky slow-log.
//!
//! Every served request — including rejected and panicked ones — appends
//! one [`RequestRecord`] (op, trace id, duration, status, rejection
//! marker) to a process-global ring of the most recent
//! `RECENT_CAPACITY` requests. Requests that were slow (duration at or
//! above `HAQJSK_SLOW_REQUEST_MS`, default 500), errored, or rejected are
//! *promoted* to a second, sticky slow-log ring that fast requests never
//! overwrite — so the interesting requests before an incident survive
//! long after the recent ring has churned past them.
//!
//! Unlike the span tracer this recorder has no off switch and
//! [`flight_snapshot`] does not consume: it is the post-incident record
//! of last resort, exposed over HTTP as `/debug/requests` and dumped to
//! stderr on graceful drain. Promotions are metered as
//! `haqjsk_slow_requests_total`.

use crate::metrics::{registry, Counter};
use crate::trace::trace_id_hex;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Environment variable: duration threshold (ms) promoting a request to
/// the sticky slow-log.
pub const SLOW_REQUEST_ENV_VAR: &str = "HAQJSK_SLOW_REQUEST_MS";

/// Default slow-request threshold when the env var is unset.
const DEFAULT_SLOW_MS: u64 = 500;

/// Requests kept in the recent ring.
const RECENT_CAPACITY: usize = 256;

/// Requests kept in the sticky slow-log.
const SLOW_CAPACITY: usize = 64;

/// The promotion threshold (cached after the first call; an unparseable
/// value falls back to the default).
pub fn slow_threshold() -> Duration {
    static THRESHOLD: OnceLock<Duration> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let ms = std::env::var(SLOW_REQUEST_ENV_VAR)
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_SLOW_MS);
        Duration::from_millis(ms)
    })
}

fn slow_counter() -> &'static Counter {
    static SLOW: OnceLock<Counter> = OnceLock::new();
    SLOW.get_or_init(|| {
        registry().counter(
            "haqjsk_slow_requests_total",
            "Requests promoted to the flight recorder's sticky slow-log \
             (slow, errored or rejected).",
            &[],
        )
    })
}

/// One request summary in the flight recorder.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Monotonic sequence number (process-wide, starting at 1).
    pub seq: u64,
    /// The request's sanitized op name.
    pub op: String,
    /// The request's trace id (`None` when tracing is disabled).
    pub trace_id: Option<u128>,
    /// Wall time the request finished, ms since the Unix epoch.
    pub unix_ms: u64,
    /// Request duration in nanoseconds.
    pub duration_ns: u64,
    /// Whether the response was `ok:true`.
    pub ok: bool,
    /// Admission-control marker (`overloaded`, `deadline_exceeded`) when
    /// the request was shed rather than served.
    pub rejected: Option<String>,
    /// The response's error message, if any (truncated).
    pub error: Option<String>,
}

struct FlightState {
    recent: VecDeque<RequestRecord>,
    slow: VecDeque<RequestRecord>,
    seq: u64,
    recorded: u64,
}

fn flight_state() -> &'static Mutex<FlightState> {
    static STATE: OnceLock<Mutex<FlightState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(FlightState {
            recent: VecDeque::with_capacity(RECENT_CAPACITY),
            slow: VecDeque::with_capacity(SLOW_CAPACITY),
            seq: 0,
            recorded: 0,
        })
    })
}

/// Error messages are summaries, not payload dumps.
const ERROR_TRUNCATE: usize = 200;

fn truncate_error(error: &str) -> String {
    if error.len() <= ERROR_TRUNCATE {
        return error.to_string();
    }
    let mut cut = ERROR_TRUNCATE;
    while !error.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &error[..cut])
}

/// Records one finished request. `rejected` is the admission-control
/// marker from the response (`overloaded` / `deadline_exceeded`), `error`
/// the response's error message. Always on; called once per request from
/// the serving layer.
pub fn record_request(
    op: &str,
    trace_id: Option<u128>,
    duration: Duration,
    ok: bool,
    rejected: Option<&str>,
    error: Option<&str>,
) {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let promote = duration >= slow_threshold() || !ok || rejected.is_some();
    {
        let mut state = flight_state().lock().expect("flight recorder poisoned");
        state.seq += 1;
        state.recorded += 1;
        let record = RequestRecord {
            seq: state.seq,
            op: op.to_string(),
            trace_id,
            unix_ms,
            duration_ns: duration.as_nanos() as u64,
            ok,
            rejected: rejected.map(str::to_string),
            error: error.map(truncate_error),
        };
        if promote {
            if state.slow.len() >= SLOW_CAPACITY {
                state.slow.pop_front();
            }
            state.slow.push_back(record.clone());
        }
        push_recent(&mut state, record);
    }
    if promote {
        slow_counter().inc();
    }
}

fn push_recent(state: &mut FlightState, record: RequestRecord) {
    if state.recent.len() >= RECENT_CAPACITY {
        state.recent.pop_front();
    }
    state.recent.push_back(record);
}

/// A point-in-time, non-consuming view of the flight recorder.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// The most recent requests, oldest first.
    pub recent: Vec<RequestRecord>,
    /// The sticky slow-log (slow/errored/rejected requests), oldest first.
    pub slow: Vec<RequestRecord>,
    /// The active promotion threshold in milliseconds.
    pub slow_threshold_ms: u64,
    /// Requests recorded since process start.
    pub recorded: u64,
}

/// Snapshots the flight recorder without consuming it.
pub fn flight_snapshot() -> FlightDump {
    let state = flight_state().lock().expect("flight recorder poisoned");
    FlightDump {
        recent: state.recent.iter().cloned().collect(),
        slow: state.slow.iter().cloned().collect(),
        slow_threshold_ms: slow_threshold().as_millis() as u64,
        recorded: state.recorded,
    }
}

fn escape_json(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn record_jsonl(kind: &str, r: &RequestRecord) -> String {
    let mut line = format!(
        "{{\"kind\":\"{kind}\",\"seq\":{},\"op\":\"{}\"",
        r.seq,
        escape_json(&r.op)
    );
    if let Some(trace_id) = r.trace_id {
        line.push_str(&format!(",\"trace\":\"{}\"", trace_id_hex(trace_id)));
    }
    line.push_str(&format!(
        ",\"unix_ms\":{},\"dur_us\":{:.3},\"ok\":{}",
        r.unix_ms,
        r.duration_ns as f64 / 1000.0,
        r.ok
    ));
    if let Some(rejected) = &r.rejected {
        line.push_str(&format!(",\"rejected\":\"{}\"", escape_json(rejected)));
    }
    if let Some(error) = &r.error {
        line.push_str(&format!(",\"error\":\"{}\"", escape_json(error)));
    }
    line.push('}');
    line
}

impl FlightDump {
    /// Renders the dump as JSON lines: one `meta` line, then the slow-log
    /// (`kind:"slow"`), then the recent ring (`kind:"recent"`), each
    /// oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"meta\",\"recorded\":{},\"slow_threshold_ms\":{},\"slow\":{},\"recent\":{}}}\n",
            self.recorded,
            self.slow_threshold_ms,
            self.slow.len(),
            self.recent.len()
        );
        for r in &self.slow {
            out.push_str(&record_jsonl("slow", r));
            out.push('\n');
        }
        for r in &self.recent {
            out.push_str(&record_jsonl("recent", r));
            out.push('\n');
        }
        out
    }
}

/// Snapshots the recorder and renders it as JSON lines (the
/// `/debug/requests` body and the on-drain stderr dump).
pub fn flight_jsonl() -> String {
    flight_snapshot().to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_record_and_slow_errored_rejected_promote() {
        let before = flight_snapshot();
        record_request(
            "flight_test_fast",
            Some(0xabc),
            Duration::from_micros(50),
            true,
            None,
            None,
        );
        record_request(
            "flight_test_error",
            None,
            Duration::from_micros(50),
            false,
            None,
            Some("boom"),
        );
        record_request(
            "flight_test_shed",
            Some(1),
            Duration::from_micros(10),
            false,
            Some("overloaded"),
            None,
        );
        record_request(
            "flight_test_slow",
            Some(2),
            slow_threshold() + Duration::from_millis(1),
            true,
            None,
            None,
        );
        let dump = flight_snapshot();
        assert_eq!(dump.recorded, before.recorded + 4);
        let ops: Vec<&str> = dump.recent.iter().map(|r| r.op.as_str()).collect();
        assert!(ops.contains(&"flight_test_fast"));
        let slow_ops: Vec<&str> = dump.slow.iter().map(|r| r.op.as_str()).collect();
        assert!(slow_ops.contains(&"flight_test_error"));
        assert!(slow_ops.contains(&"flight_test_shed"));
        assert!(slow_ops.contains(&"flight_test_slow"));
        assert!(!slow_ops.contains(&"flight_test_fast"));
        // JSONL carries the markers and the trace id.
        let jsonl = dump.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"meta\""));
        assert!(jsonl.contains("\"rejected\":\"overloaded\""));
        assert!(jsonl.contains("\"error\":\"boom\""));
        assert!(jsonl.contains(&trace_id_hex(0xabc)));
        // Snapshots do not consume.
        assert_eq!(flight_snapshot().recorded, dump.recorded);
    }

    #[test]
    fn rings_stay_bounded() {
        for i in 0..(RECENT_CAPACITY + SLOW_CAPACITY + 32) {
            record_request(
                "flight_test_bound",
                None,
                Duration::from_micros(1),
                i % 2 == 0,
                None,
                None,
            );
        }
        let dump = flight_snapshot();
        assert!(dump.recent.len() <= RECENT_CAPACITY);
        assert!(dump.slow.len() <= SLOW_CAPACITY);
    }
}
