//! Shortest-path graph kernel (SPGK, Borgwardt & Kriegel).
//!
//! Each graph is mapped to a histogram over triples
//! `(label(u), label(v), shortest-path-length(u, v))` with `label(u) ≤
//! label(v)`; the kernel is the inner product of those histograms. This is
//! the classic local R-convolution baseline of the paper's Table III/IV:
//! positive definite, but blind to structural correspondence.

use crate::kernel::{gram_from_tiles, sorted_histogram, sparse_dot, GraphKernel};
use crate::matrix::KernelMatrix;
use haqjsk_engine::{per_pair, BackendKind};
use haqjsk_graph::shortest_paths::{all_pairs_shortest_paths, INFINITE_DISTANCE};
use haqjsk_graph::Graph;

/// A sparse shortest-path histogram: `((min_label, max_label, distance),
/// count)` sorted by key — the CSR-style feature vector whose merge-join
/// dot product is the kernel value. No dense union feature space is ever
/// materialised, so the memory footprint tracks each graph's own feature
/// count rather than the whole dataset's label × distance alphabet.
pub type SpFeatureVec = Vec<((usize, usize, usize), f64)>;

/// The shortest-path kernel. `max_distance` truncates the histogram (path
/// lengths above it are ignored); `None` keeps every finite length.
#[derive(Debug, Clone, Default)]
pub struct ShortestPathKernel {
    /// Optional cap on the path lengths that enter the feature map.
    pub max_distance: Option<usize>,
}

impl ShortestPathKernel {
    /// Creates a kernel considering all finite path lengths.
    pub fn new() -> Self {
        ShortestPathKernel { max_distance: None }
    }

    /// Creates a kernel that ignores paths longer than `max_distance`.
    pub fn with_max_distance(max_distance: usize) -> Self {
        ShortestPathKernel {
            max_distance: Some(max_distance),
        }
    }

    /// Histogram over `(min_label, max_label, distance)` triples, as a
    /// sorted sparse vector.
    pub fn feature_map(&self, graph: &Graph) -> SpFeatureVec {
        let labels = graph.effective_labels();
        let distances = all_pairs_shortest_paths(graph);
        let n = graph.num_vertices();
        let mut keys: Vec<(usize, usize, usize)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let d = distances[u][v];
                if d == INFINITE_DISTANCE || d == 0 {
                    continue;
                }
                if let Some(cap) = self.max_distance {
                    if d > cap {
                        continue;
                    }
                }
                keys.push((labels[u].min(labels[v]), labels[u].max(labels[v]), d));
            }
        }
        sorted_histogram(keys)
    }
}

impl GraphKernel for ShortestPathKernel {
    fn name(&self) -> &'static str {
        "SPGK"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        sparse_dot(&self.feature_map(a), &self.feature_map(b))
    }

    // Factors through explicit feature maps: one shortest-path pass per
    // graph, then a merge-join dot per pair on the requested backend.
    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = crate::kernel::time_kernel_gram(self.name());
        let sparse: Vec<SpFeatureVec> = graphs.iter().map(|g| self.feature_map(g)).collect();
        let pairs = per_pair(|i, j| sparse_dot(&sparse[i], &sparse[j]));
        gram_from_tiles(graphs.len(), backend, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    fn count_of(f: &SpFeatureVec, key: (usize, usize, usize)) -> f64 {
        f.iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, c)| c)
            .unwrap_or(0.0)
    }

    #[test]
    fn feature_map_of_path_graph() {
        let kernel = ShortestPathKernel::new();
        let g = path_graph(3); // labels = degrees = [1, 2, 1]
        let f = kernel.feature_map(&g);
        // Pairs: (0,1) d=1 labels (1,2); (1,2) d=1 labels (1,2); (0,2) d=2 labels (1,1).
        assert_eq!(count_of(&f, (1, 2, 1)), 2.0);
        assert_eq!(count_of(&f, (1, 1, 2)), 1.0);
        assert_eq!(f.len(), 2);
        assert!(f.windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique keys");
    }

    #[test]
    fn max_distance_truncates_features() {
        let g = path_graph(6);
        let full = ShortestPathKernel::new().feature_map(&g);
        let capped = ShortestPathKernel::with_max_distance(2).feature_map(&g);
        let full_count: f64 = full.iter().map(|&(_, c)| c).sum();
        let capped_count: f64 = capped.iter().map(|&(_, c)| c).sum();
        assert!(capped_count < full_count);
        assert!(capped.iter().all(|&((_, _, d), _)| d <= 2));
    }

    #[test]
    fn kernel_symmetry_and_self_dominance() {
        let kernel = ShortestPathKernel::new();
        let a = cycle_graph(6);
        let b = star_graph(6);
        assert_eq!(kernel.compute(&a, &b), kernel.compute(&b, &a));
        assert!(kernel.compute(&a, &a) >= kernel.compute(&a, &b));
    }

    #[test]
    fn permutation_invariance() {
        let kernel = ShortestPathKernel::new();
        let g = star_graph(7);
        let perm = vec![6, 5, 4, 3, 2, 1, 0];
        let h = g.permute(&perm).unwrap();
        assert!((kernel.compute(&g, &g) - kernel.compute(&g, &h)).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pairs_are_ignored() {
        let kernel = ShortestPathKernel::new();
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let f = kernel.feature_map(&g);
        let total: f64 = f.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 2.0, "only the two connected pairs count");
    }

    #[test]
    fn gram_matches_pairwise_and_is_psd() {
        let kernel = ShortestPathKernel::new();
        let graphs = vec![
            path_graph(5),
            cycle_graph(6),
            star_graph(5),
            complete_graph(4),
        ];
        let gram = kernel.gram_matrix(&graphs);
        assert!(gram.is_positive_semidefinite(1e-9).unwrap());
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                assert!((gram.get(i, j) - kernel.compute(&graphs[i], &graphs[j])).abs() < 1e-9);
            }
        }
    }
}
