//! Depth-based (DB) vectorial vertex representations.
//!
//! Following Sec. III-A of the paper (and the depth-based complexity traces
//! of Bai & Hancock), each vertex `v` of each graph is represented, for a
//! layer parameter `k`, by the `k`-dimensional vector of Shannon entropies of
//! the degree distributions inside its `1..k`-hop balls. The HAQJSK kernels
//! use the whole family `k = 1..K`, where `K` is the greatest shortest-path
//! length over the dataset (capped for tractability). One BFS sweep per
//! graph yields both its traces and its diameter, so deriving `K` costs no
//! second all-pairs BFS: the traces are computed to the cap and truncated to
//! `K`, since trace entry `k` depends on `k` alone.

use haqjsk_engine::Engine;
use haqjsk_graph::subgraph::depth_based_traces;
use haqjsk_graph::Graph;

/// Depth-based representations of every vertex of every graph in a dataset.
#[derive(Debug, Clone)]
pub struct DbRepresentations {
    /// `traces[g][v]` is the `K`-dimensional DB trace of vertex `v` of graph
    /// `g`.
    traces: Vec<Vec<Vec<f64>>>,
    /// The largest layer `K`.
    max_layers: usize,
}

impl DbRepresentations {
    /// Computes the DB traces of every vertex of every graph up to layer
    /// `max_layers`, one graph per task on the engine's worker pool (each
    /// graph's traces depend on that graph alone).
    pub fn compute(graphs: &[Graph], max_layers: usize) -> Self {
        let max_layers = max_layers.max(1);
        let traces = Engine::global().map(graphs.len(), |g| {
            depth_based_traces(&graphs[g], max_layers).0
        });
        DbRepresentations { traces, max_layers }
    }

    /// Derives `K` from the dataset (greatest shortest-path length, clamped
    /// to `[1, layer_cap]`) and computes the representations: each graph's
    /// traces to the cap and its diameter come from one sweep, one graph
    /// per task on the engine's pool, and the traces are then cut to `K`.
    pub fn compute_auto(graphs: &[Graph], layer_cap: usize) -> Self {
        let layer_cap = layer_cap.max(1);
        let swept =
            Engine::global().map(graphs.len(), |g| depth_based_traces(&graphs[g], layer_cap));
        let greatest = swept.iter().map(|&(_, diameter)| diameter).max();
        let max_layers = greatest.unwrap_or(0).clamp(1, layer_cap);
        let traces = swept
            .into_iter()
            .map(|(mut traces, _)| {
                for trace in &mut traces {
                    trace.truncate(max_layers);
                }
                traces
            })
            .collect();
        DbRepresentations { traces, max_layers }
    }

    /// The largest layer `K`.
    pub fn max_layers(&self) -> usize {
        self.max_layers
    }

    /// Number of graphs covered.
    pub fn num_graphs(&self) -> usize {
        self.traces.len()
    }

    /// The `k`-dimensional representation `R^k(v)` of vertex `v` of graph
    /// `g` — the first `k` entries of its DB trace.
    pub fn representation(&self, graph: usize, vertex: usize, k: usize) -> &[f64] {
        &self.traces[graph][vertex][..k.min(self.max_layers)]
    }

    /// The `K`-dimensional DB traces of every vertex of one graph; a
    /// `k`-dimensional representation is a prefix of its vertex's trace.
    pub(crate) fn graph_traces(&self, graph: usize) -> &[Vec<f64>] {
        &self.traces[graph]
    }

    /// The pooled `k`-dimensional representations of **all** vertices of
    /// **all** graphs, in graph-major order, as one row-major
    /// `vertices x k` buffer — the point set `R^k(V)` on which the 1-level
    /// prototypes are learned (Eq. 12–14).
    pub fn pooled_points(&self, k: usize) -> Vec<f64> {
        let k = k.min(self.max_layers);
        let mut points = Vec::with_capacity(self.total_vertices() * k);
        for trace in self.traces.iter().flatten() {
            points.extend_from_slice(&trace[..k]);
        }
        points
    }

    /// Total number of vertices across the dataset.
    pub fn total_vertices(&self) -> usize {
        self.traces.iter().map(|g| g.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};
    use haqjsk_graph::shortest_paths::diameter;

    fn dataset() -> Vec<Graph> {
        vec![path_graph(5), cycle_graph(6), star_graph(4)]
    }

    #[test]
    fn shapes_are_consistent() {
        let reps = DbRepresentations::compute(&dataset(), 3);
        assert_eq!(reps.num_graphs(), 3);
        assert_eq!(reps.max_layers(), 3);
        assert_eq!(reps.total_vertices(), 5 + 6 + 4);
        assert_eq!(reps.representation(0, 0, 3).len(), 3);
        assert_eq!(reps.representation(0, 0, 2).len(), 2);
        // Requesting more layers than computed clamps.
        assert_eq!(reps.representation(0, 0, 10).len(), 3);
        assert_eq!(reps.graph_traces(1).len(), 6);
        assert_eq!(reps.pooled_points(3).len(), 15 * 3);
        assert_eq!(&reps.pooled_points(2)[2..4], reps.representation(0, 1, 2));
    }

    #[test]
    fn auto_layer_selection_uses_dataset_diameter() {
        let graphs = vec![path_graph(4), path_graph(6)]; // diameters 3 and 5
        let reps = DbRepresentations::compute_auto(&graphs, 10);
        assert_eq!(reps.max_layers(), 5);
        let capped = DbRepresentations::compute_auto(&graphs, 3);
        assert_eq!(capped.max_layers(), 3);
        // A dataset of singleton graphs still gets at least one layer.
        let trivial = vec![Graph::new(1)];
        assert_eq!(DbRepresentations::compute_auto(&trivial, 5).max_layers(), 1);
    }

    /// `compute_auto` is `compute` at the clamped greatest diameter, with
    /// the same traces, on a path, a disconnected graph, an edgeless graph
    /// and a 1-vertex graph.
    #[test]
    fn auto_layers_match_compute_at_the_clamped_max_diameter() {
        let graphs = vec![
            path_graph(6),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5)]).unwrap(),
            Graph::new(4),
            Graph::new(1),
        ];
        let greatest = graphs.iter().map(diameter).max().unwrap();
        assert_eq!(greatest, 5);
        for layer_cap in [0, 2, 5, 9] {
            let auto = DbRepresentations::compute_auto(&graphs, layer_cap);
            let k = greatest.clamp(1, layer_cap.max(1));
            let reference = DbRepresentations::compute(&graphs, k);
            assert_eq!(auto.max_layers(), k);
            for g in 0..graphs.len() {
                let bits = |reps: &DbRepresentations| -> Vec<Vec<u64>> {
                    reps.graph_traces(g)
                        .iter()
                        .map(|trace| trace.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&auto), bits(&reference), "graph {g}, cap {layer_cap}");
            }
        }
    }

    #[test]
    fn representations_are_entropy_valued() {
        let reps = DbRepresentations::compute(&dataset(), 4);
        for g in 0..reps.num_graphs() {
            for v in 0..dataset()[g].num_vertices() {
                for &x in reps.representation(g, v, 4) {
                    assert!(x.is_finite());
                    assert!(x >= 0.0);
                }
            }
        }
    }

    #[test]
    fn symmetric_vertices_share_representations() {
        let reps = DbRepresentations::compute(&[cycle_graph(6)], 3);
        // Every vertex of a cycle is equivalent, so all representations match.
        let first = reps.representation(0, 0, 3).to_vec();
        for v in 1..6 {
            assert_eq!(reps.representation(0, v, 3), first.as_slice());
        }
    }

    #[test]
    fn zero_layer_request_is_promoted_to_one() {
        let reps = DbRepresentations::compute(&dataset(), 0);
        assert_eq!(reps.max_layers(), 1);
    }
}
