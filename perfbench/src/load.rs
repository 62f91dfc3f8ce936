//! The four workloads: their inputs, their set-up, and the measured phase
//! that drives the server over the wire and records every request.

use crate::inputs::{fit_line, graph_line, Drawer, Labelled, SplitMix, Zipf};
use crate::procs::{command, Bins, Conn, Proc};
use crate::stats::MIN_P90_SAMPLES;
use haqjsk::core::HaqjskVariant;
use haqjsk::engine::Json;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Engine threads of the server (`HAQJSK_THREADS`); workers get one each.
pub const SERVER_THREADS: usize = 2;
/// Graphs per fit-batch / fit-dist training set.
pub const FIT_N: usize = 64;
/// Offset between consecutive training sets: they overlap by half.
const FIT_STEP: usize = 32;
/// Training sets in the fit cycle: enough that a run's median fit time
/// averages over many sets' k-means convergence, few enough that the
/// gate's reference fits stay cheap.
pub const FIT_SETS: usize = 32;
const QUERY_TRAIN: usize = 256;
const QUERY_POOL: usize = 256;
/// One `stats` probe per this many query-skewed and stream-rw reads.
const STATS_EVERY: usize = 20;
pub const STREAM_TRAIN: usize = 64;
const STREAM_POOL: usize = 128;
/// Appends per stream-rw run, spread evenly over the run, so each of the
/// [`crate::stats::WINDOWS`] time windows holds about two dozen.
pub const STREAM_APPENDS: usize = 240;
/// Fastest append schedule, well under the server's append capacity.
const MIN_APPEND_INTERVAL_S: f64 = 0.05;
/// A measured phase stops at this length even short of its sample floor.
const MAX_PHASE_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitBatch,
    FitDist,
    QuerySkewed,
    StreamRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FitBatch,
        Workload::FitDist,
        Workload::QuerySkewed,
        Workload::StreamRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitBatch => "fit-batch",
            Workload::FitDist => "fit-dist",
            Workload::QuerySkewed => "query-skewed",
            Workload::StreamRw => "stream-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The HAQJSK variant the workload fits: (D) for the read path, (A)
    /// everywhere else.
    pub fn variant(self) -> HaqjskVariant {
        match self {
            Workload::QuerySkewed => HaqjskVariant::AlignedDensity,
            _ => HaqjskVariant::AlignedAdjacency,
        }
    }

    /// [`Workload::variant`] as the `fit` request spells it.
    pub fn variant_field(self) -> &'static str {
        match self.variant() {
            HaqjskVariant::AlignedDensity => "D",
            HaqjskVariant::AlignedAdjacency => "A",
        }
    }

    pub fn is_fit(self) -> bool {
        matches!(self, Workload::FitBatch | Workload::FitDist)
    }

    /// The operations behind `p50_ms` / `p90_ms`.
    pub fn latency_ops(self) -> &'static [Op] {
        match self {
            Workload::FitBatch | Workload::FitDist => &[Op::Fit],
            Workload::QuerySkewed => &[Op::KernelRow, Op::Predict],
            Workload::StreamRw => &[Op::Append],
        }
    }

    /// The closed-loop operations behind `requests_per_s`.
    pub fn throughput_ops(self) -> &'static [Op] {
        match self {
            Workload::StreamRw => &[Op::Predict],
            other => other.latency_ops(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Fit,
    KernelRow,
    Predict,
    Append,
    Stats,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Fit, Op::KernelRow, Op::Predict, Op::Append, Op::Stats];

    pub fn name(self) -> &'static str {
        match self {
            Op::Fit => "fit",
            Op::KernelRow => "kernel_row",
            Op::Predict => "predict",
            Op::Append => "append",
            Op::Stats => "stats",
        }
    }
}

/// A workload's generated inputs.
pub struct Plan {
    pub workload: Workload,
    /// fit-batch / fit-dist: a ring the training sets are cut from;
    /// otherwise the setup fit's training set.
    pub train: Vec<Labelled>,
    /// Graphs queried, never trained on: one check graph per training set
    /// (fit-*), the Zipf pool (query-skewed) or the uniform read pool
    /// (stream-rw).
    pub heldout: Vec<Labelled>,
    /// stream-rw: the graphs appended, in order.
    pub appends: Vec<Labelled>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut drawer = Drawer::new(seed);
        let (train, heldout, appends) = match workload {
            Workload::FitBatch | Workload::FitDist => {
                (drawer.draw(FIT_SETS * FIT_STEP), drawer.draw(FIT_SETS), 0)
            }
            Workload::QuerySkewed => (drawer.draw(QUERY_TRAIN), drawer.draw(QUERY_POOL), 0),
            Workload::StreamRw => (
                drawer.draw(STREAM_TRAIN),
                drawer.draw(STREAM_POOL),
                STREAM_APPENDS,
            ),
        };
        Plan {
            workload,
            train,
            heldout,
            appends: drawer.draw(appends),
        }
    }

    /// Indices into `train` of training set `k`: fit-* cut overlapping
    /// windows from the ring, the other workloads train on all of it.
    pub fn training_set(&self, k: usize) -> Vec<usize> {
        if self.workload.is_fit() {
            (0..FIT_N)
                .map(|i| (k * FIT_STEP + i) % self.train.len())
                .collect()
        } else {
            (0..self.train.len()).collect()
        }
    }

    pub fn fit_line(&self, k: usize, workers: &[String]) -> String {
        let graphs: Vec<&Labelled> = self
            .training_set(k)
            .into_iter()
            .map(|i| &self.train[i])
            .collect();
        fit_line(&graphs, self.workload.variant_field(), workers)
    }
}

/// Every request line of a run, rendered once before timing starts.
pub struct Lines {
    pub fits: Vec<String>,
    pub kernel_row: Vec<String>,
    pub predict: Vec<String>,
    pub appends: Vec<String>,
    pub stats: String,
}

impl Lines {
    pub fn new(plan: &Plan, workers: &[String]) -> Lines {
        let sets = if plan.workload.is_fit() { FIT_SETS } else { 1 };
        let per_graph = |cmd: &str, graphs: &[Labelled]| {
            graphs
                .iter()
                .map(|g| graph_line(cmd, g))
                .collect::<Vec<_>>()
        };
        Lines {
            fits: (0..sets).map(|k| plan.fit_line(k, workers)).collect(),
            kernel_row: per_graph("kernel_row", &plan.heldout),
            predict: per_graph("predict", &plan.heldout),
            appends: per_graph("append", &plan.appends),
            stats: format!("{}\n", command("stats")),
        }
    }
}

/// The decoded part of a reply the correctness gate and the layer report
/// need.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    Fit {
        num_graphs: usize,
        levels: usize,
    },
    Row(Vec<f64>),
    Predict {
        label: usize,
        nearest: usize,
        value: f64,
    },
    Appended {
        num_graphs: usize,
    },
    Stats(Snapshot),
}

/// The per-model and per-coordinator counters of one `stats` reply. Both
/// restart from zero whenever a `fit` installs a new model (and, with
/// `workers`, a new coordinator).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub aligned_hits: f64,
    pub aligned_misses: f64,
    pub tiles_dispatched: f64,
    pub tiles_redispatched: f64,
    pub local_fallback_tiles: f64,
    pub bytes_shipped: f64,
    pub artifacts_shipped: f64,
    pub keys_total: f64,
    pub keys_shipped: f64,
}

impl Snapshot {
    pub fn from_stats(json: &Json) -> Snapshot {
        let num = |value: Option<&Json>| value.and_then(Json::as_f64).unwrap_or(0.0);
        let dist = json.get("distributed");
        let dist_field = |key: &str| num(dist.and_then(|d| d.get(key)));
        let per_worker = |key: &str| {
            dist.and_then(|d| d.get("workers"))
                .and_then(Json::as_array)
                .map_or(0.0, |workers| workers.iter().map(|w| num(w.get(key))).sum())
        };
        Snapshot {
            aligned_hits: num(json.get("aligned_cache_hits")),
            aligned_misses: num(json.get("aligned_cache_misses")),
            tiles_dispatched: per_worker("tiles_dispatched"),
            tiles_redispatched: per_worker("tiles_redispatched"),
            local_fallback_tiles: dist_field("local_fallback_tiles"),
            bytes_shipped: per_worker("bytes_shipped"),
            artifacts_shipped: dist_field("artifacts_shipped"),
            keys_total: dist_field("dataset_keys_total"),
            keys_shipped: dist_field("dataset_keys_shipped"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok(Body),
    /// `ok:false`; `rejected` when the server shed or timed it out.
    Failed {
        rejected: bool,
    },
    /// The connection broke before a reply line arrived.
    Missing,
}

/// One request of a measured phase. Times are seconds since the phase
/// started; closed-loop requests are due when they are sent.
#[derive(Debug, Clone)]
pub struct Record {
    pub op: Op,
    /// Training set (fit-*), held-out graph, or append index.
    pub item: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub reply: Reply,
}

impl Record {
    /// Client latency, from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Client latency, from when the request was sent.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }

    pub fn ok(&self) -> bool {
        matches!(self.reply, Reply::Ok(_))
    }
}

fn decode(op: Op, reply: Option<String>) -> Reply {
    let Some(json) = reply.and_then(|line| Json::parse(&line).ok()) else {
        return Reply::Missing;
    };
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Reply::Failed {
            rejected: json.get("rejected").is_some(),
        };
    }
    let count = |key: &str| json.get(key).and_then(Json::as_usize);
    let body = match op {
        Op::Fit => count("num_graphs")
            .zip(count("levels"))
            .map(|(num_graphs, levels)| Body::Fit { num_graphs, levels }),
        Op::KernelRow => json
            .get("values")
            .and_then(Json::as_array)
            .and_then(|values| {
                values
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Option<Vec<f64>>>()
                    .map(Body::Row)
            }),
        Op::Predict => match (
            count("label"),
            count("nearest"),
            json.get("kernel_value").and_then(Json::as_f64),
        ) {
            (Some(label), Some(nearest), Some(value)) => Some(Body::Predict {
                label,
                nearest,
                value,
            }),
            _ => None,
        },
        Op::Append => count("num_graphs").map(|num_graphs| Body::Appended { num_graphs }),
        Op::Stats => Some(Body::Stats(Snapshot::from_stats(&json))),
    };
    body.map_or(Reply::Failed { rejected: false }, Reply::Ok)
}

/// The server, plus the dist workers of fit-dist.
pub struct Fleet {
    pub server: Proc,
    pub workers: Vec<Proc>,
}

impl Fleet {
    /// Spawns the fleet with a pinned environment: engine threads, the
    /// trace flag, and nothing else (`HAQJSK_BACKEND` in particular is
    /// never inherited).
    pub fn spawn(bins: &Bins, workload: Workload, traced: bool) -> Result<Fleet, String> {
        let env = |threads: usize| {
            vec![
                ("HAQJSK_THREADS", threads.to_string()),
                ("HAQJSK_TRACE", if traced { "1" } else { "0" }.to_string()),
            ]
        };
        let workers = if workload == Workload::FitDist {
            (0..2)
                .map(|_| Proc::spawn(&bins.worker, &["127.0.0.1:0"], &env(1)))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let server = Proc::spawn(&bins.serve, &["127.0.0.1:0"], &env(SERVER_THREADS))?;
        Ok(Fleet { server, workers })
    }

    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    fn procs(&self) -> impl Iterator<Item = &Proc> {
        std::iter::once(&self.server).chain(self.workers.iter())
    }

    pub fn cpu_ms(&self) -> Result<f64, String> {
        self.procs().map(Proc::cpu_ms).sum()
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs().map(Proc::peak_rss_mb).sum()
    }
}

/// A fleet that has finished set-up: spawned, answering, and holding the
/// workload's first fitted model.
pub struct Ready {
    pub fleet: Fleet,
    pub setup_s: f64,
    pub setup_fit_bytes: usize,
}

/// Spawns the fleet and runs the set-up fit: the served model of
/// query-skewed and stream-rw, a warm-up fit of training set `k` for
/// fit-* (successive set-ups warm up on different sets).
pub fn set_up(bins: &Bins, plan: &Plan, traced: bool, k: usize) -> Result<Ready, String> {
    let start = Instant::now();
    let fleet = Fleet::spawn(bins, plan.workload, traced)?;
    let mut conn = Conn::connect(&fleet.server.addr)?;
    conn.call(&command("ping"))?;
    let line = plan.fit_line(k, &fleet.worker_addrs());
    conn.call_line(&line)?;
    Ok(Ready {
        fleet,
        setup_s: start.elapsed().as_secs_f64(),
        setup_fit_bytes: line.len(),
    })
}

/// What a measured phase leaves behind.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    /// The request lines the phase sent.
    pub lines: Lines,
}

impl Phase {
    pub fn of(&self, ops: &[Op]) -> impl Iterator<Item = &Record> + '_ {
        let ops = ops.to_vec();
        self.records.iter().filter(move |r| ops.contains(&r.op))
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok()).count()
    }
}

struct Clock(Instant);

impl Clock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, at: f64) {
        let wait = at - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }

    /// Whether a closed-loop client starts another request: until the
    /// run length has passed and the headline has its p90 sample floor.
    fn keep_going(&self, seconds: f64, headline_done: usize) -> bool {
        let t = self.now();
        (t < seconds || headline_done < MIN_P90_SAMPLES) && t < MAX_PHASE_S
    }

    fn exchange(&self, conn: &mut Conn, op: Op, item: usize, due: f64, line: &str) -> Record {
        let sent = self.now();
        let reply = decode(op, conn.exchange(line));
        Record {
            op,
            item,
            due,
            sent,
            done: self.now(),
            reply,
        }
    }

    fn closed(&self, conn: &mut Conn, op: Op, item: usize, line: &str) -> Record {
        self.exchange(conn, op, item, self.now(), line)
    }
}

/// Drives the measured phase. `traced` adds a `stats` probe after every
/// fit and every check query of fit-*, so the layer report can attribute
/// each model's cache traffic.
pub fn measure(
    plan: &Plan,
    fleet: &Fleet,
    seconds: f64,
    clients: usize,
    seed: u64,
    traced: bool,
) -> Result<Phase, String> {
    let lines = Lines::new(plan, &fleet.worker_addrs());
    let addr = fleet.server.addr.as_str();
    let cpu_before = fleet.cpu_ms()?;
    let clock = Clock(Instant::now());
    let records = match plan.workload {
        Workload::FitBatch | Workload::FitDist => {
            fit_client(&mut Conn::connect(addr)?, &lines, &clock, seconds, traced)
        }
        Workload::QuerySkewed => {
            let conns = (0..clients.max(1))
                .map(|_| Conn::connect(addr))
                .collect::<Result<Vec<_>, _>>()?;
            let zipf = Zipf::new(plan.heldout.len());
            let headline = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .enumerate()
                    .map(|(c, mut conn)| {
                        let rng = SplitMix::new(seed ^ (0xA5A5_0000 + c as u64));
                        let (lines, zipf, headline, clock) = (&lines, &zipf, &headline, &clock);
                        scope.spawn(move || {
                            query_client(&mut conn, lines, zipf, rng, headline, clock, seconds)
                        })
                    })
                    .collect();
                join_all(handles)
            })
        }
        Workload::StreamRw => {
            let mut writer = Conn::connect(addr)?;
            let mut reader = Conn::connect(addr)?;
            let interval = (seconds / STREAM_APPENDS as f64).max(MIN_APPEND_INTERVAL_S);
            let appending = AtomicBool::new(true);
            let pool = plan.heldout.len();
            std::thread::scope(|scope| {
                let (lines, clock, appending) = (&lines, &clock, &appending);
                let appender = scope.spawn(move || {
                    let records = append_client(&mut writer, lines, clock, interval);
                    appending.store(false, Ordering::SeqCst);
                    records
                });
                let predictor = scope.spawn(move || {
                    let mut rng = SplitMix::new(seed ^ 0x5EED_0000);
                    let mut out = Vec::new();
                    let mut i = 0usize;
                    while appending.load(Ordering::SeqCst) && clock.now() < MAX_PHASE_S {
                        let record = if i % STATS_EVERY == STATS_EVERY - 1 {
                            clock.closed(&mut reader, Op::Stats, 0, &lines.stats)
                        } else {
                            let q = rng.below(pool);
                            clock.closed(&mut reader, Op::Predict, q, &lines.predict[q])
                        };
                        let lost = record.reply == Reply::Missing;
                        out.push(record);
                        i += 1;
                        if lost {
                            break;
                        }
                    }
                    out
                });
                join_all(vec![appender, predictor])
            })
        }
    };
    let wall_s = records.iter().map(|r| r.done).fold(0.0, f64::max).max(1e-9);
    Ok(Phase {
        records,
        wall_s,
        cpu_ms: fleet.cpu_ms()? - cpu_before,
        peak_rss_mb: fleet.peak_rss_mb()?,
        lines,
    })
}

fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, Vec<Record>>>) -> Vec<Record> {
    let mut records: Vec<Record> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("load-generator thread panicked"))
        .collect();
    records.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    records
}

/// fit-* client: re-fit the next training set of the cycle, then check the
/// fresh model with one `kernel_row` of that set's held-out graph.
fn fit_client(
    conn: &mut Conn,
    lines: &Lines,
    clock: &Clock,
    seconds: f64,
    traced: bool,
) -> Vec<Record> {
    let mut out = Vec::new();
    let mut fits = 0;
    while clock.keep_going(seconds, fits) {
        let set = fits % lines.fits.len();
        let mut step = vec![clock.closed(conn, Op::Fit, set, &lines.fits[set])];
        if traced {
            step.push(clock.closed(conn, Op::Stats, set, &lines.stats));
        }
        step.push(clock.closed(conn, Op::KernelRow, set, &lines.kernel_row[set]));
        if traced {
            step.push(clock.closed(conn, Op::Stats, set, &lines.stats));
        }
        let lost = step.iter().any(|r| r.reply == Reply::Missing);
        out.extend(step);
        fits += 1;
        if lost {
            break;
        }
    }
    out
}

/// query-skewed client: `kernel_row` and `predict` in turn over a Zipf(1)
/// draw of the held-out pool, one `stats` probe per [`STATS_EVERY`]
/// requests.
fn query_client(
    conn: &mut Conn,
    lines: &Lines,
    zipf: &Zipf,
    mut rng: SplitMix,
    headline: &AtomicUsize,
    clock: &Clock,
    seconds: f64,
) -> Vec<Record> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while clock.keep_going(seconds, headline.load(Ordering::Relaxed)) {
        let record = if i % STATS_EVERY == STATS_EVERY - 1 {
            clock.closed(conn, Op::Stats, 0, &lines.stats)
        } else {
            let q = zipf.sample(&mut rng);
            headline.fetch_add(1, Ordering::Relaxed);
            if i.is_multiple_of(2) {
                clock.closed(conn, Op::KernelRow, q, &lines.kernel_row[q])
            } else {
                clock.closed(conn, Op::Predict, q, &lines.predict[q])
            }
        };
        let lost = record.reply == Reply::Missing;
        out.push(record);
        i += 1;
        if lost {
            break;
        }
    }
    out
}

/// stream-rw writer: open loop, append `i` is due at `i * interval`. A
/// late reply delays the next send, and that delay counts against the
/// next append's latency because latency runs from the due time.
fn append_client(conn: &mut Conn, lines: &Lines, clock: &Clock, interval: f64) -> Vec<Record> {
    let mut out = Vec::with_capacity(lines.appends.len());
    for (i, line) in lines.appends.iter().enumerate() {
        let due = i as f64 * interval;
        clock.sleep_until(due);
        let record = clock.exchange(conn, Op::Append, i, due, line);
        let lost = record.reply == Reply::Missing;
        out.push(record);
        if lost {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk::engine::graph_key;
    use std::collections::HashSet;

    #[test]
    fn held_out_and_append_pools_are_disjoint_from_training() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 11);
            let train: HashSet<_> = plan.train.iter().map(|g| graph_key(&g.graph)).collect();
            assert_eq!(train.len(), plan.train.len(), "{}", workload.name());
            for g in plan.heldout.iter().chain(plan.appends.iter()) {
                assert!(
                    !train.contains(&graph_key(&g.graph)),
                    "{}: held-out graph in training",
                    workload.name()
                );
            }
            let again = Plan::new(workload, 11);
            let keys = |p: &Plan| {
                p.heldout
                    .iter()
                    .map(|g| graph_key(&g.graph))
                    .collect::<Vec<_>>()
            };
            assert_eq!(keys(&plan), keys(&again));
        }
    }

    #[test]
    fn fit_sets_overlap_by_half() {
        let plan = Plan::new(Workload::FitBatch, 3);
        let a: HashSet<usize> = plan.training_set(0).into_iter().collect();
        let b: HashSet<usize> = plan.training_set(1).into_iter().collect();
        assert_eq!(a.len(), FIT_N);
        assert_eq!(a.intersection(&b).count(), FIT_N / 2);
        let last: HashSet<usize> = plan.training_set(FIT_SETS - 1).into_iter().collect();
        assert_eq!(last.intersection(&a).count(), FIT_N / 2, "the cycle wraps");
    }

    #[test]
    fn replies_decode_by_operation() {
        let line = |s: &str| Some(s.to_string());
        assert_eq!(
            decode(Op::KernelRow, line(r#"{"ok":true,"values":[1.5,2]}"#)),
            Reply::Ok(Body::Row(vec![1.5, 2.0]))
        );
        assert_eq!(
            decode(
                Op::Predict,
                line(r#"{"ok":false,"error":"x","rejected":"overloaded"}"#)
            ),
            Reply::Failed { rejected: true }
        );
        assert_eq!(decode(Op::Append, None), Reply::Missing);
        assert_eq!(
            decode(Op::Append, line(r#"{"ok":true}"#)),
            Reply::Failed { rejected: false }
        );
    }
}
