//! Depth-based (DB) vectorial vertex representations.
//!
//! Following Sec. III-A of the paper (and the depth-based complexity traces
//! of Bai & Hancock), each vertex `v` of each graph is represented, for a
//! layer parameter `k`, by the `k`-dimensional vector of Shannon entropies of
//! the degree distributions inside its `1..k`-hop balls. The HAQJSK kernels
//! use the whole family `k = 1..K`, where `K` is the greatest shortest-path
//! length over the dataset (capped for tractability).

use haqjsk_graph::shortest_paths::greatest_shortest_path_length;
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
    /// `max_layers`.
    pub fn compute(graphs: &[Graph], max_layers: usize) -> Self {
        let max_layers = max_layers.max(1);
        let traces = graphs
            .iter()
            .map(|g| depth_based_traces(g, max_layers))
            .collect();
        DbRepresentations { traces, max_layers }
    }

    /// Derives `K` from the dataset (greatest shortest-path length, clamped
    /// to `[1, layer_cap]`) and computes the representations.
    pub fn compute_auto(graphs: &[Graph], layer_cap: usize) -> Self {
        let k = greatest_shortest_path_length(graphs).clamp(1, layer_cap.max(1));
        Self::compute(graphs, k)
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
    /// **all** graphs, in graph-major order — the point set `R^k(V)` on which
    /// the 1-level prototypes are learned (Eq. 12–14).
    pub fn pooled_representations(&self, k: usize) -> Vec<Vec<f64>> {
        let k = k.min(self.max_layers);
        self.traces
            .iter()
            .flat_map(|graph| graph.iter().map(move |trace| trace[..k].to_vec()))
            .collect()
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
        assert_eq!(reps.pooled_representations(3).len(), 15);
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
