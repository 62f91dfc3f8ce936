//! Seeded workload inputs.
//!
//! Graphs come from three `haqjsk-datasets` families (MUTAG, IMDB-B and
//! PTC(MR)), two generator classes each; a graph's label is
//! `2 * family + class`. Every draw is deduplicated by `graph_key` against
//! everything drawn before it from the same seed, so training sets,
//! held-out pools and append streams are disjoint, and a "cold" graph is
//! one the server has never seen.

use haqjsk::datasets::synth::generate_graph;
use haqjsk::datasets::DatasetSpec;
use haqjsk::engine::{graph_key, graph_to_json, GraphKey, Json};
use haqjsk::graph::Graph;
use std::collections::HashSet;

/// The dataset families the generator cycles through.
pub const FAMILIES: [&str; 3] = ["MUTAG", "IMDB-B", "PTC(MR)"];

/// splitmix64: a small generator whose stream depends only on its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A generated graph with its class label.
#[derive(Debug, Clone)]
pub struct Labelled {
    pub graph: Graph,
    pub label: usize,
}

/// Draws structurally distinct labelled graphs from one seed.
pub struct Drawer {
    rng: SplitMix,
    seen: HashSet<GraphKey>,
    index: usize,
}

impl Drawer {
    pub fn new(seed: u64) -> Drawer {
        Drawer {
            rng: SplitMix::new(seed),
            seen: HashSet::new(),
            index: 0,
        }
    }

    /// The next `count` graphs whose keys this drawer has not produced yet.
    pub fn draw(&mut self, count: usize) -> Vec<Labelled> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while out.len() < count {
            attempts += 1;
            assert!(
                attempts <= 100 * (count + 1),
                "the generators keep repeating graphs"
            );
            let family = self.index % FAMILIES.len();
            let class = (self.index / FAMILIES.len()) % 2;
            self.index += 1;
            let spec = DatasetSpec::by_name(FAMILIES[family]).expect("a Table II dataset name");
            let graph = generate_graph(spec, class, self.rng.next_u64());
            if self.seen.insert(graph_key(&graph)) {
                out.push(Labelled {
                    graph,
                    label: 2 * family + class,
                });
            }
        }
        out
    }
}

/// Zipf(1) over `n` ranks: rank `r` (0-based) is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A `fit` request line (newline-terminated) over `graphs`, with labels.
pub fn fit_line(graphs: &[&Labelled], variant: &str, workers: &[String]) -> String {
    let mut pairs = vec![
        ("cmd", Json::Str("fit".to_string())),
        (
            "graphs",
            Json::Arr(graphs.iter().map(|g| graph_to_json(&g.graph)).collect()),
        ),
        (
            "labels",
            Json::Arr(graphs.iter().map(|g| Json::Num(g.label as f64)).collect()),
        ),
        ("variant", Json::Str(variant.to_string())),
    ];
    if !workers.is_empty() {
        pairs.push((
            "workers",
            Json::Arr(workers.iter().cloned().map(Json::Str).collect()),
        ));
    }
    format!("{}\n", Json::obj(pairs))
}

/// A single-graph request line (`kernel_row`, `predict`, `append`);
/// `append` carries the graph's label.
pub fn graph_line(cmd: &str, graph: &Labelled) -> String {
    let mut pairs = vec![
        ("cmd", Json::Str(cmd.to_string())),
        ("graph", graph_to_json(&graph.graph)),
    ];
    if cmd == "append" {
        pairs.push(("label", Json::Num(graph.label as f64)));
    }
    format!("{}\n", Json::obj(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(graphs: &[Labelled]) -> Vec<GraphKey> {
        graphs.iter().map(|g| graph_key(&g.graph)).collect()
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_distinct() {
        let a = Drawer::new(7).draw(60);
        let b = Drawer::new(7).draw(60);
        let c = Drawer::new(8).draw(60);
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        let distinct: HashSet<GraphKey> = keys(&a).into_iter().collect();
        assert_eq!(distinct.len(), a.len());
        // Every family and class shows up, labelled 2 * family + class.
        let labels: HashSet<usize> = a.iter().map(|g| g.label).collect();
        assert_eq!(labels, (0..6).collect());
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(64);
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..4000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let sample = draw(3);
        assert!(sample.iter().all(|&r| r < 64));
        let top = sample.iter().filter(|&&r| r == 0).count();
        let tail = sample.iter().filter(|&&r| r == 63).count();
        // Rank 0 has 64 times the weight of rank 63 (about 21% vs 0.3%).
        assert!(top > 600 && tail < 60, "top {top}, tail {tail}");
    }
}
