//! Depth-based aligned kernel (the DBAK / ASK family the paper compares
//! against).
//!
//! Following Bai & Xu et al., every vertex is described by its depth-based
//! complexity trace (the entropies of its `k`-layer expansion subgraphs), and
//! the kernel between two graphs counts the pairs of vertices that are
//! mutually aligned in that representation space. The alignment is a
//! one-to-one matching computed per pair of graphs — precisely the step that
//! makes this family **non-transitive** and therefore not positive definite,
//! which is the deficiency the HAQJSK kernels repair with dataset-level
//! prototypes.

use crate::kernel::GraphKernel;
use haqjsk_graph::subgraph::depth_based_traces;
use haqjsk_graph::Graph;
use haqjsk_linalg::assignment::hungarian;
use haqjsk_linalg::vector::distance;

/// The depth-based aligned kernel.
#[derive(Debug, Clone)]
pub struct DepthBasedAlignedKernel {
    /// Number of expansion layers `K` in the depth-based traces.
    pub layers: usize,
    /// Bandwidth of the per-pair Gaussian similarity applied to matched
    /// vertex representations.
    pub bandwidth: f64,
}

impl Default for DepthBasedAlignedKernel {
    fn default() -> Self {
        DepthBasedAlignedKernel {
            layers: 4,
            bandwidth: 1.0,
        }
    }
}

impl DepthBasedAlignedKernel {
    /// Creates the kernel with `layers` expansion layers and a Gaussian
    /// `bandwidth` on the matched-representation distance.
    pub fn new(layers: usize, bandwidth: f64) -> Self {
        DepthBasedAlignedKernel { layers, bandwidth }
    }

    /// Optimal one-to-one vertex matching between the two graphs in
    /// depth-based representation space. Returns `(pairs, total_distance)`
    /// where `pairs[i] = (u, v)` matches vertex `u` of `a` with vertex `v`
    /// of `b`; when the graphs have different sizes the extra vertices stay
    /// unmatched.
    pub fn align(&self, a: &Graph, b: &Graph) -> (Vec<(usize, usize)>, f64) {
        let (ta, _) = depth_based_traces(a, self.layers);
        let (tb, _) = depth_based_traces(b, self.layers);
        let na = ta.len();
        let nb = tb.len();
        let n = na.max(nb);
        if n == 0 {
            return (Vec::new(), 0.0);
        }
        // Pad the cost matrix with a large constant so dummy matches are only
        // used when a graph runs out of vertices.
        let padding = 1e6;
        let mut cost = vec![padding; n * n];
        for (i, ra) in ta.iter().enumerate() {
            for (j, rb) in tb.iter().enumerate() {
                cost[i * n + j] = distance(ra, rb);
            }
        }
        let (assignment, _) = hungarian(&cost, n);
        let mut pairs = Vec::new();
        let mut total = 0.0;
        for (i, &j) in assignment.iter().enumerate() {
            if i < na && j < nb {
                pairs.push((i, j));
                total += cost[i * n + j];
            }
        }
        (pairs, total)
    }
}

impl GraphKernel for DepthBasedAlignedKernel {
    fn name(&self) -> &'static str {
        "Depth-based aligned"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        let (ta, _) = depth_based_traces(a, self.layers);
        let (tb, _) = depth_based_traces(b, self.layers);
        let (pairs, _) = self.align(a, b);
        // Sum of Gaussian similarities over the aligned vertex pairs — one
        // unit of kernel mass per well-aligned pair, following the
        // "count the aligned vertex pairs" definition of the DBAK family.
        pairs
            .iter()
            .map(|&(u, v)| {
                let d = distance(&ta[u], &tb[v]);
                (-d * d / (2.0 * self.bandwidth * self.bandwidth)).exp()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};
    use haqjsk_kernels_test_util::assert_symmetric_kernel;

    /// Tiny local helper module so the symmetry check reads clearly.
    mod haqjsk_kernels_test_util {
        use super::super::GraphKernel;
        use haqjsk_graph::Graph;

        pub fn assert_symmetric_kernel<K: GraphKernel>(kernel: &K, a: &Graph, b: &Graph) {
            let ab = kernel.compute(a, b);
            let ba = kernel.compute(b, a);
            assert!((ab - ba).abs() < 1e-9, "{}: {ab} vs {ba}", kernel.name());
        }
    }

    #[test]
    fn alignment_matches_all_vertices_of_smaller_graph() {
        let kernel = DepthBasedAlignedKernel::default();
        let a = path_graph(4);
        let b = cycle_graph(6);
        let (pairs, total) = kernel.align(&a, &b);
        assert_eq!(pairs.len(), 4);
        assert!(total >= 0.0);
        // All matched indices are in range and distinct.
        let mut seen_a = std::collections::BTreeSet::new();
        let mut seen_b = std::collections::BTreeSet::new();
        for &(u, v) in &pairs {
            assert!(u < 4 && v < 6);
            assert!(seen_a.insert(u));
            assert!(seen_b.insert(v));
        }
    }

    #[test]
    fn self_alignment_is_perfect() {
        let kernel = DepthBasedAlignedKernel::default();
        let g = star_graph(6);
        let (pairs, total) = kernel.align(&g, &g);
        assert_eq!(pairs.len(), 6);
        assert!(total < 1e-9, "self alignment distance should vanish");
        // Kernel value equals the number of vertices for a perfect alignment.
        assert!((kernel.compute(&g, &g) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_symmetric() {
        let kernel = DepthBasedAlignedKernel::new(3, 0.5);
        assert_symmetric_kernel(&kernel, &path_graph(5), &cycle_graph(7));
        assert_symmetric_kernel(&kernel, &star_graph(6), &path_graph(4));
    }

    #[test]
    fn similar_graphs_score_higher_than_dissimilar_ones() {
        let kernel = DepthBasedAlignedKernel::default();
        let c6 = cycle_graph(6);
        let c6_again = cycle_graph(6);
        let s6 = star_graph(6);
        assert!(kernel.compute(&c6, &c6_again) > kernel.compute(&c6, &s6));
    }

    #[test]
    fn empty_graphs_produce_zero() {
        let kernel = DepthBasedAlignedKernel::default();
        let empty = Graph::new(0);
        let g = path_graph(3);
        assert_eq!(kernel.compute(&empty, &g), 0.0);
        let (pairs, total) = kernel.align(&empty, &empty);
        assert!(pairs.is_empty());
        assert_eq!(total, 0.0);
    }
}
