//! The traced run's per-layer breakdown.
//!
//! Three sources, each used where it is exact:
//! * the server's own `metrics` scrape (request, Gram, tile, eigen and
//!   dist-RPC histograms) and `stats` replies (per-model cache and
//!   per-coordinator dist counters), before and after the traced pass;
//! * the client's record of every request;
//! * an in-process replay of a sample of the traced requests through the
//!   public functions of each layer, one span per call, row or Gram
//!   (never per pair), all spans of a request sharing its trace id.
//!
//! A layer's time is its spans' self time: duration minus the part of it
//! that child spans cover.

use crate::gate::{Gate, Reference};
use crate::inputs::SplitMix;
use crate::load::{Body, Op, Phase, Plan, Record, Reply, Snapshot, Workload};
use crate::procs::{command, Conn};
use crate::stats::{mean, p50, MIN_P90_SAMPLES};
use haqjsk::core::aligned::{aligned_adjacency_family, aligned_density_family};
use haqjsk::core::correspondence::GraphCorrespondences;
use haqjsk::core::db_representation::DbRepresentations;
use haqjsk::core::{AlignedGraph, HaqjskConfig, HaqjskModel, PrototypeHierarchy};
use haqjsk::engine::{graph_from_json, graph_key, graph_to_json, FeatureCache, Json};
use haqjsk::graph::Graph;
use haqjsk::kernels::KernelMatrix;
use haqjsk::quantum::ctqw::ctqw_density_from_adjacency;
use haqjsk::quantum::qjsd;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Fits replayed per traced run (each costs about one server fit).
const FIT_REPLAYS: usize = 8;
/// `kernel_row` / `predict` requests replayed per traced run.
const QUERY_REPLAYS: usize = 300;

// ---------------------------------------------------------------------------
// The server's registry
// ---------------------------------------------------------------------------

struct Entry {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
    count: f64,
    sum: f64,
    p90: f64,
}

/// One `metrics` scrape.
pub struct Scrape(Vec<Entry>);

impl Scrape {
    pub fn take(conn: &mut Conn) -> Result<Scrape, String> {
        let reply = conn.call(&command("metrics"))?;
        let entries = reply
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("metrics reply without a 'metrics' array")?;
        let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Scrape(
            entries
                .iter()
                .map(|e| Entry {
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    labels: match e.get("labels") {
                        Some(Json::Obj(map)) => map
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                            .collect(),
                        _ => BTreeMap::new(),
                    },
                    value: num(e, "value"),
                    count: num(e, "count"),
                    sum: num(e, "sum"),
                    p90: num(e, "p90"),
                })
                .collect(),
        ))
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        label: Option<(&'a str, &'a str)>,
    ) -> impl Iterator<Item = &'a Entry> + 'a {
        self.0.iter().filter(move |e| {
            e.name == name
                && label.is_none_or(|(k, v)| e.labels.get(k).map(String::as_str) == Some(v))
        })
    }

    /// A label of the `haqjsk_build_info` gauge.
    pub fn build_label(&self, label: &str) -> Option<String> {
        self.matching("haqjsk_build_info", None)
            .find_map(|e| e.labels.get(label).cloned())
    }
}

/// What changed in the registry across the traced pass.
struct Delta<'a> {
    before: &'a Scrape,
    after: &'a Scrape,
}

impl Delta<'_> {
    fn value(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        let total = |s: &Scrape| s.matching(name, label).map(|e| e.value).sum::<f64>();
        total(self.after) - total(self.before)
    }

    /// (observations, sum of observed values) added to a histogram.
    fn hist(&self, name: &str, label: Option<(&str, &str)>) -> (f64, f64) {
        let total = |s: &Scrape| {
            s.matching(name, label)
                .fold((0.0, 0.0), |(c, t), e| (c + e.count, t + e.sum))
        };
        let (c1, s1) = total(self.after);
        let (c0, s0) = total(self.before);
        (c1 - c0, s1 - s0)
    }

    fn mean(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        let (count, sum) = self.hist(name, label);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One span, in the shape of the server's `trace_dump` records.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u128,
    pub id: u64,
    pub parent: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

impl Span {
    pub fn jsonl(&self) -> String {
        let parent = if self.parent == 0 {
            String::new()
        } else {
            format!(",\"parent\":\"{:016x}\"", self.parent)
        };
        format!(
            "{{\"name\":\"{}\",\"trace\":\"{:032x}\",\"span\":\"{:016x}\"{parent},\"start_us\":{:.3},\"dur_us\":{:.3},\"thread\":0,\"src\":\"perfbench\"}}",
            self.name, self.trace, self.id, self.start_us, self.dur_us
        )
    }
}

/// Keeps spans in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    ids: SplitMix,
    trace: u128,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(seed: u64) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            ids: SplitMix::new(seed ^ 0x7ACE),
            trace: 0,
            spans: Vec::new(),
        }
    }

    fn next_id(&mut self) -> u64 {
        loop {
            let id = self.ids.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    /// Starts the trace of the next replayed request.
    fn new_trace(&mut self) {
        self.trace = ((self.next_id() as u128) << 64) | self.next_id() as u128;
    }

    /// Runs `f` inside a span named `name` under `parent` (0: a root).
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(self, id);
        self.push(name, id, parent, start, start.elapsed());
        out
    }

    /// A child span for time accumulated over many short calls (every
    /// `qjsd` of one row or Gram), laid at the start of its parent.
    fn accumulated(&mut self, name: &'static str, parent: u64, start: Instant, total: Duration) {
        let id = self.next_id();
        self.push(name, id, parent, start, total);
    }

    fn push(&mut self, name: &'static str, id: u64, parent: u64, start: Instant, dur: Duration) {
        self.spans.push(Span {
            name,
            trace: self.trace,
            id,
            parent,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
    }
}

/// Each span's self time in µs: its duration minus the union of its
/// children's intervals within it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let mut covered = 0.0;
            let mut reach = lo;
            let mut intervals = children.get(&s.id).cloned().unwrap_or_default();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (a, b) in intervals {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_us - covered).max(0.0)
        })
        .collect()
}

/// Per span name: calls and total self time in ms.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut table: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(span.name).or_default();
        row.0 += 1;
        row.1 += self_us / 1e3;
    }
    table
}

// ---------------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------------

/// The replay's spans plus what spans cannot hold exactly.
pub struct Replay {
    pub recorder: Recorder,
    pairs: usize,
    pair_time: Duration,
    qjsd_calls: usize,
    qjsd_time: Duration,
    queries: usize,
    query_lookups: f64,
    /// Replayed values that differ from the reference model: the replay
    /// no longer mirrors the library and its layer times need a look.
    pub drift: Vec<String>,
}

impl Replay {
    /// `HaqjskModel::kernel`, with the time in `qjsd` accumulated.
    fn kernel(&mut self, model: &HaqjskModel, a: &AlignedGraph, b: &AlignedGraph) -> f64 {
        let (da, db) = (a.densities(model.variant()), b.densities(model.variant()));
        let mut total = 0.0;
        for h in 0..da.len().min(db.len()) {
            let start = Instant::now();
            let divergence = qjsd(&da[h], &db[h]).expect("aligned structures share a dimension");
            self.qjsd_time += start.elapsed();
            self.qjsd_calls += 1;
            total += (-model.config().mu * divergence).exp();
        }
        total
    }

    /// `HaqjskModel::transform`, one span per stage.
    fn transform(&mut self, parent: u64, model: &HaqjskModel, graph: &Graph) -> AlignedGraph {
        let rec = &mut self.recorder;
        rec.span("transform", parent, |rec, id| {
            let single = rec.span("transform.db_repr", id, |_, _| {
                DbRepresentations::compute(std::slice::from_ref(graph), model.max_layers())
            });
            let correspondences = rec.span("transform.correspondence", id, |_, _| {
                GraphCorrespondences::compute(&single, 0, model.hierarchy())
            });
            let adjacency_densities = rec.span("transform.adjacency_density", id, |_, _| {
                aligned_adjacency_family(graph, &correspondences)
                    .iter()
                    .map(ctqw_density_from_adjacency)
                    .collect::<Result<Vec<_>, _>>()
                    .expect("a served graph transforms")
            });
            let aligned_densities = rec.span("transform.aligned_density", id, |_, _| {
                aligned_density_family(graph, &correspondences).expect("a served graph transforms")
            });
            AlignedGraph {
                adjacency_densities,
                aligned_densities,
            }
        })
    }

    /// One row of pair kernels under a span, `qjsd` as its child.
    fn row(
        &mut self,
        name: &'static str,
        parent: u64,
        model: &HaqjskModel,
        pairs: &[(&AlignedGraph, &AlignedGraph)],
    ) -> Vec<f64> {
        let id = self.recorder.next_id();
        let start = Instant::now();
        let qjsd_before = self.qjsd_time;
        let values: Vec<f64> = pairs
            .iter()
            .map(|(a, b)| self.kernel(model, a, b))
            .collect();
        let elapsed = start.elapsed();
        self.recorder.push(name, id, parent, start, elapsed);
        self.recorder
            .accumulated("qjsd", id, start, self.qjsd_time - qjsd_before);
        self.pairs += pairs.len();
        self.pair_time += elapsed;
        values
    }

    fn decode(&mut self, parent: u64, line: &str, field: &str) -> Vec<Graph> {
        self.recorder.span("wire.decode", parent, |_, _| {
            let request = Json::parse(line.trim_end()).expect("a rendered request parses");
            match request.get(field) {
                Some(Json::Arr(graphs)) => graphs
                    .iter()
                    .map(|g| graph_from_json(g).expect("a rendered graph decodes"))
                    .collect(),
                Some(graph) => vec![graph_from_json(graph).expect("a rendered graph decodes")],
                None => Vec::new(),
            }
        })
    }

    fn encode(&mut self, parent: u64, graphs: &[Graph], response: Json) {
        self.recorder.span("wire.encode", parent, |_, _| {
            let request = Json::Arr(graphs.iter().map(graph_to_json).collect());
            std::hint::black_box((request.to_string(), response.to_string()));
        });
    }

    fn replay_fit(&mut self, plan: &Plan, reference: &Reference, line: &str) {
        self.recorder.new_trace();
        let root = self.recorder.next_id();
        let start = Instant::now();
        let graphs = self.decode(root, line, "graphs");
        let config = HaqjskConfig::small();
        let reps = self
            .recorder
            .span("hierarchy.db_repr", root, |_, _| match config.max_layers {
                Some(k) => DbRepresentations::compute(&graphs, k),
                None => DbRepresentations::compute_auto(&graphs, config.layer_cap),
            });
        let hierarchy = self.recorder.span("hierarchy.build", root, |_, _| {
            PrototypeHierarchy::build(&reps, &config)
        });
        let model = HaqjskModel::from_parts(
            config,
            plan.workload.variant(),
            reps.max_layers(),
            hierarchy,
        );
        let features: Vec<AlignedGraph> = graphs
            .iter()
            .map(|g| self.transform(root, &model, g))
            .collect();
        let pairs: Vec<(&AlignedGraph, &AlignedGraph)> = (0..features.len())
            .flat_map(|i| (i..features.len()).map(move |j| (i, j)))
            .map(|(i, j)| (&features[i], &features[j]))
            .collect();
        let gram = self.row("gram", root, &model, &pairs);
        self.encode(root, &graphs, Json::obj([("ok", Json::Bool(true))]));
        self.recorder.push("fit", root, 0, start, start.elapsed());
        if features.first().map(|f| &f.adjacency_densities)
            != reference.features.first().map(|f| &f.adjacency_densities)
            || gram.get(1).map(|v| v.to_bits())
                != Some(
                    reference
                        .model
                        .kernel(&reference.features[0], &reference.features[1])
                        .to_bits(),
                )
        {
            self.drift
                .push("replayed fit differs from the reference model".to_string());
        }
    }

    fn replay_query(
        &mut self,
        op: Op,
        line: &str,
        model: &HaqjskModel,
        train: &[Graph],
        labels: &[usize],
        cache: &FeatureCache<AlignedGraph>,
    ) {
        self.recorder.new_trace();
        let root = self.recorder.next_id();
        let start = Instant::now();
        let lookups_before = cache.stats().hits + cache.stats().misses;
        let query = self.decode(root, line, "graph").remove(0);
        let features = self.recorder.span("cache.lookup", root, |_, _| {
            model
                .transform_all_cached(train, cache)
                .expect("training graphs transform")
        });
        let key = graph_key(&query);
        let aligned = match cache.get(key) {
            Some(hit) => hit,
            None => {
                let fresh = self.transform(root, model, &query);
                cache.get_or_compute(key, || fresh)
            }
        };
        let pairs: Vec<(&AlignedGraph, &AlignedGraph)> = features
            .iter()
            .map(|t| (aligned.as_ref(), t.as_ref()))
            .collect();
        let row = self.row("kernel.row", root, model, &pairs);
        if let Some((a, b)) = pairs.first() {
            if row[0].to_bits() != model.kernel(a, b).to_bits() {
                self.drift
                    .push("replayed kernel differs from HaqjskModel::kernel".to_string());
            }
        }
        let response = if op == Op::Predict {
            let (best, value) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("a non-empty training set");
            Json::obj([
                ("label", Json::Num(labels[best] as f64)),
                ("kernel_value", Json::Num(*value)),
            ])
        } else {
            Json::obj([(
                "values",
                Json::Arr(row.into_iter().map(Json::Num).collect()),
            )])
        };
        self.encode(root, std::slice::from_ref(&query), response);
        self.recorder
            .push(op.name(), root, 0, start, start.elapsed());
        self.queries += 1;
        self.query_lookups += (cache.stats().hits + cache.stats().misses - lookups_before) as f64;
    }

    fn replay_append(
        &mut self,
        line: &str,
        model: &HaqjskModel,
        train: &mut Vec<Graph>,
        gram: &mut KernelMatrix,
        cache: &FeatureCache<AlignedGraph>,
    ) {
        self.recorder.new_trace();
        let root = self.recorder.next_id();
        let start = Instant::now();
        let graph = self.decode(root, line, "graph").remove(0);
        let mut all = self
            .recorder
            .span("append.clone", root, |_, _| train.clone());
        let key = graph_key(&graph);
        if cache.get(key).is_none() {
            let fresh = self.transform(root, model, &graph);
            cache.get_or_compute(key, || fresh);
        }
        all.push(graph.clone());
        *gram = self.recorder.span("gram.extend", root, |_, _| {
            model
                .gram_matrix_extended_on(gram, &all, cache, None)
                .expect("the served Gram extends")
        });
        *train = all;
        self.encode(
            root,
            std::slice::from_ref(&graph),
            Json::obj([("ok", Json::Bool(true))]),
        );
        self.recorder
            .push("append", root, 0, start, start.elapsed());
    }
}

/// Replays a sample of the traced pass in-process, in send order: up to
/// [`FIT_REPLAYS`] fits, up to [`QUERY_REPLAYS`] queries, and every append.
/// fit-* replays only the first check of each training set: the server
/// checks a fresh model whose cache has never seen the query, and the
/// replay keeps one cache per set.
pub fn replay(plan: &Plan, refs: &[Reference], phase: &Phase, seed: u64) -> Replay {
    let lines = &phase.lines;
    let mut replay = Replay {
        recorder: Recorder::new(seed),
        pairs: 0,
        pair_time: Duration::ZERO,
        qjsd_calls: 0,
        qjsd_time: Duration::ZERO,
        queries: 0,
        query_lookups: 0.0,
        drift: Vec::new(),
    };
    // The served state per reference, as the server holds it after its
    // fit: training features cached, and (stream-rw) the Gram to extend.
    let served: Vec<(FeatureCache<AlignedGraph>, usize)> = refs
        .iter()
        .map(|r| {
            let cache = FeatureCache::new();
            let fitted = plan.training_set(0).len().min(r.train.len());
            r.model
                .transform_all_cached(&r.train[..fitted], &cache)
                .expect("training graphs transform");
            (cache, fitted)
        })
        .collect();
    let stream = plan.workload == Workload::StreamRw;
    let mut stream_train: Vec<Graph> = refs[0].train[..served[0].1].to_vec();
    let mut stream_gram = stream.then(|| {
        refs[0]
            .model
            .gram_matrix_cached(&stream_train, &served[0].0)
            .expect("the served Gram builds")
    });
    let query_cap = if plan.workload.is_fit() {
        refs.len()
    } else {
        QUERY_REPLAYS
    };
    let (mut fits, mut queries) = (0, 0);
    for record in phase.records.iter().filter(|r| r.ok()) {
        let reference = if plan.workload.is_fit() {
            record.item
        } else {
            0
        };
        match record.op {
            Op::Fit if fits < FIT_REPLAYS => {
                fits += 1;
                replay.replay_fit(plan, &refs[reference], &lines.fits[record.item]);
            }
            Op::KernelRow | Op::Predict if queries < query_cap => {
                queries += 1;
                let line = if record.op == Op::Predict {
                    &lines.predict[record.item]
                } else {
                    &lines.kernel_row[record.item]
                };
                let r = &refs[reference];
                let train: &[Graph] = if stream { &stream_train } else { &r.train };
                replay.replay_query(
                    record.op,
                    line,
                    &r.model,
                    train,
                    &r.labels,
                    &served[reference].0,
                );
            }
            Op::Append => replay.replay_append(
                &lines.appends[record.item],
                &refs[0].model,
                &mut stream_train,
                stream_gram.as_mut().expect("only stream-rw appends"),
                &served[0].0,
            ),
            _ => {}
        }
    }
    replay
}

// ---------------------------------------------------------------------------
// The per-layer metrics
// ---------------------------------------------------------------------------

/// Everything the per-layer report reads.
pub struct Traced<'a> {
    pub plan: &'a Plan,
    pub phase: &'a Phase,
    pub untraced: &'a Phase,
    pub before: &'a Scrape,
    pub after: &'a Scrape,
    /// `stats` before and after the pass (one model serves the whole pass
    /// outside fit-*).
    pub stats_before: &'a Snapshot,
    pub stats_after: &'a Snapshot,
    pub gate: &'a Gate,
    pub replay: &'a Replay,
    pub setup_fit_bytes: usize,
    pub fit_request_bytes: &'a [usize],
}

/// The headline latency p50 of a phase, in ms.
pub fn headline_p50(workload: Workload, phase: &Phase) -> f64 {
    let latencies: Vec<f64> = phase
        .of(workload.latency_ops())
        .filter(|r| r.ok())
        .map(Record::latency_ms)
        .collect();
    p50(&latencies).unwrap_or(0.0)
}

/// The stats snapshots that close each model's (and coordinator's) life
/// in a fit-* pass: after the fit for the coordinator, after the check
/// query for the model.
fn fit_lifetimes(records: &[Record]) -> (Snapshot, Snapshot) {
    let (mut dist, mut cache) = (Snapshot::default(), Snapshot::default());
    for pair in records.windows(2) {
        if let (
            prev,
            Record {
                reply: Reply::Ok(Body::Stats(s)),
                ..
            },
        ) = (&pair[0], &pair[1])
        {
            let sum = if prev.op == Op::Fit {
                &mut dist
            } else {
                &mut cache
            };
            sum.aligned_hits += s.aligned_hits;
            sum.aligned_misses += s.aligned_misses;
            sum.tiles_dispatched += s.tiles_dispatched;
            sum.tiles_redispatched += s.tiles_redispatched;
            sum.local_fallback_tiles += s.local_fallback_tiles;
            sum.bytes_shipped += s.bytes_shipped;
            sum.artifacts_shipped += s.artifacts_shipped;
            sum.keys_total += s.keys_total;
            sum.keys_shipped += s.keys_shipped;
        }
    }
    (dist, cache)
}

pub fn per_layer(t: &Traced) -> BTreeMap<&'static str, f64> {
    let workload = t.plan.workload;
    let delta = Delta {
        before: t.before,
        after: t.after,
    };
    let ok = |ops: &[Op]| t.phase.of(ops).filter(|r| r.ok()).collect::<Vec<_>>();
    // Counts are per served request: every fit, kernel_row, predict and
    // append, so they compare across versions that finish different
    // numbers of requests.
    let served = ok(&[Op::Fit, Op::KernelRow, Op::Predict, Op::Append])
        .len()
        .max(1) as f64;
    let served_ms = |ops: &[&str]| {
        let (count, sum) = ops.iter().fold((0.0, 0.0), |(c, s), op| {
            let (dc, ds) = delta.hist("haqjsk_serve_request_seconds", Some(("op", op)));
            (c + dc, s + ds)
        });
        if count > 0.0 {
            sum / count * 1e3
        } else {
            0.0
        }
    };
    let overhead = |ops: &[Op], names: &[&str]| {
        let client: Vec<f64> = ok(ops).iter().map(|r| r.service_ms()).collect();
        if client.is_empty() {
            0.0
        } else {
            mean(&client) - served_ms(names)
        }
    };
    // Cache traffic per model, dist traffic per coordinator.
    let (dist, cache) = if workload.is_fit() {
        fit_lifetimes(&t.phase.records)
    } else {
        let (b, a) = (t.stats_before, t.stats_after);
        let cache = Snapshot {
            aligned_hits: a.aligned_hits - b.aligned_hits,
            aligned_misses: a.aligned_misses - b.aligned_misses,
            ..Snapshot::default()
        };
        (Snapshot::default(), cache)
    };
    let lookups = cache.aligned_hits + cache.aligned_misses;
    // Pair kernels the server evaluated, from each reply and the training
    // size it was served at.
    let pairs: f64 = t
        .phase
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| match &r.reply {
            Reply::Ok(Body::Fit { num_graphs, .. }) => (num_graphs * (num_graphs + 1) / 2) as f64,
            Reply::Ok(Body::Row(row)) => row.len() as f64,
            Reply::Ok(Body::Predict { .. }) => {
                t.gate.predict_sizes.get(&i).copied().unwrap_or(0) as f64
            }
            Reply::Ok(Body::Appended { num_graphs }) => *num_graphs as f64,
            _ => 0.0,
        })
        .sum();
    let table = self_time_table(&t.replay.recorder.spans);
    let self_ms = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |(calls, total)| total / *calls as f64)
    };
    let stats_p90 = {
        let stats = t
            .after
            .matching("haqjsk_serve_request_seconds", Some(("op", "stats")));
        let p90 = stats
            .map(|e| (e.count, e.p90))
            .fold((0.0, 0.0_f64), |a, b| (a.0 + b.0, a.1.max(b.1)));
        if p90.0 >= MIN_P90_SAMPLES as f64 {
            p90.1 * 1e3
        } else {
            0.0
        }
    };
    let appends = ok(&[Op::Append]);
    let fit_bytes = if t.fit_request_bytes.is_empty() {
        t.setup_fit_bytes as f64
    } else {
        mean(
            &t.fit_request_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_p50 = headline_p50(workload, t.untraced);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us = |d: Duration, n: usize| ratio(d.as_secs_f64() * 1e6, n as f64);
    BTreeMap::from([
        ("serving.fit_ms", served_ms(&["fit"])),
        ("serving.kernel_row_ms", served_ms(&["kernel_row"])),
        ("serving.predict_ms", served_ms(&["predict"])),
        ("serving.append_ms", served_ms(&["append"])),
        ("serving.stats_p90_ms", stats_p90),
        (
            "serving.rejected",
            delta.value("haqjsk_serve_rejected_total", None),
        ),
        ("wire.fit_overhead_ms", overhead(&[Op::Fit], &["fit"])),
        (
            "wire.query_overhead_ms",
            overhead(&[Op::KernelRow, Op::Predict], &["kernel_row", "predict"]),
        ),
        (
            "wire.append_overhead_ms",
            overhead(&[Op::Append], &["append"]),
        ),
        ("wire.fit_request_bytes", fit_bytes),
        ("wire.decode_ms", self_ms("wire.decode")),
        ("wire.encode_ms", self_ms("wire.encode")),
        ("hierarchy.db_repr_ms", self_ms("hierarchy.db_repr")),
        ("hierarchy.build_ms", self_ms("hierarchy.build")),
        ("transform.calls", cache.aligned_misses / served),
        ("transform.db_repr_ms", self_ms("transform.db_repr")),
        (
            "transform.correspondence_ms",
            self_ms("transform.correspondence"),
        ),
        (
            "transform.adjacency_density_ms",
            self_ms("transform.adjacency_density"),
        ),
        (
            "transform.aligned_density_ms",
            self_ms("transform.aligned_density"),
        ),
        ("cache.aligned_hits", cache.aligned_hits / served),
        ("cache.aligned_misses", cache.aligned_misses / served),
        (
            "cache.aligned_hit_ratio",
            ratio(cache.aligned_hits, lookups),
        ),
        (
            "cache.lookups_per_query",
            ratio(t.replay.query_lookups, t.replay.queries as f64),
        ),
        (
            "gram.build_ms",
            delta.mean("haqjsk_gram_build_seconds", None) * 1e3,
        ),
        (
            "gram.tiles",
            delta.hist("haqjsk_tile_eval_seconds", None).0 / served,
        ),
        (
            "gram.tile_eval_ms",
            delta.mean("haqjsk_tile_eval_seconds", None) * 1e3,
        ),
        ("gram.extend_ms", self_ms("gram.extend")),
        ("kernel.pairs", pairs / served),
        ("kernel.pair_us", us(t.replay.pair_time, t.replay.pairs)),
        ("qjsd.call_us", us(t.replay.qjsd_time, t.replay.qjsd_calls)),
        (
            "eigen.batched_matrices",
            delta.value("haqjsk_eigen_batched_matrices_total", None) / served,
        ),
        (
            "eigen.batch_lanes_mean",
            delta.mean("haqjsk_eigen_batch_lanes", None),
        ),
        ("dist.tiles_dispatched", dist.tiles_dispatched / served),
        ("dist.tiles_redispatched", dist.tiles_redispatched / served),
        (
            "dist.local_fallback_tiles",
            dist.local_fallback_tiles / served,
        ),
        ("dist.bytes_shipped", dist.bytes_shipped / served),
        ("dist.artifacts_shipped", dist.artifacts_shipped / served),
        (
            "dist.dedup_hit_ratio",
            ratio(dist.keys_total - dist.keys_shipped, dist.keys_total),
        ),
        (
            "dist.rpc_ms",
            delta.mean("haqjsk_dist_rpc_seconds", None) * 1e3,
        ),
        (
            "loadgen.append_lateness_ms",
            mean(
                &appends
                    .iter()
                    .map(|r| (r.sent - r.due) * 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "trace.overhead_ratio",
            ratio(headline_p50(workload, t.phase), untraced_p50),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: f64, dur: f64) -> Span {
        Span {
            name,
            trace: 1,
            id,
            parent,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("request", 1, 0, 0.0, 100.0),
            span("a", 2, 1, 10.0, 30.0),
            span("b", 3, 1, 30.0, 30.0), // overlaps a by 10
            span("c", 4, 3, 40.0, 5.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50.0, 30.0, 25.0, 5.0]);
        let table = self_time_table(&spans);
        assert_eq!(table["request"], (1, 0.05));
        assert!(spans[3].jsonl().contains("\"parent\":\"0000000000000003\""));
        assert!(!spans[0].jsonl().contains("parent"));
    }
}
