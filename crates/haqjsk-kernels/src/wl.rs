//! Weisfeiler–Lehman subtree kernel (WLSK).
//!
//! The R-convolution baseline of Shervashidze et al.: `h` rounds of WL label
//! refinement, where each round replaces every vertex label with a compressed
//! label of `(own label, sorted multiset of neighbour labels)`. The kernel is
//! the inner product of the concatenated label-count histograms over all
//! rounds. Unlabelled graphs use vertex degrees as initial labels, matching
//! the convention used for the paper's unlabelled datasets.
//!
//! ## Content-addressed labels, CSR-style feature maps
//!
//! Compressed labels are **content hashes** of the `(label, sorted
//! neighbour labels)` signature (a splitmix64 sponge) rather than entries
//! in a shared dictionary. That makes each graph's feature map a
//! self-contained per-graph artifact — two graphs agree on a feature key
//! exactly when their refinement signatures agree, no matter when or where
//! the maps were computed — which is what lets JTQK extract WL histograms per
//! graph and lets this kernel skip any joint pass over the dataset. The
//! maps themselves are sorted `(key, count)` vectors ([`WlFeatureVec`]):
//! the kernel value is a cache-friendly merge-join dot product, and the
//! Gram computation never materialises the dense union label space (whose
//! size grows with the whole dataset's label alphabet).

use crate::kernel::{gram_from_tiles, sorted_histogram, GraphKernel};
use crate::matrix::KernelMatrix;
use haqjsk_engine::{per_pair, BackendKind};
use haqjsk_graph::Graph;

/// The shared merge-join dot of sorted sparse vectors (re-exported from
/// [`crate::kernel`], where the CSR-style feature-map kernels all get it).
pub use crate::kernel::sparse_dot;

/// A sparse WL feature histogram: `(feature key, count)` sorted by key.
pub type WlFeatureVec = Vec<(u64, f64)>;

/// splitmix64 finaliser — the mixing core of the content-addressed labels.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Weisfeiler–Lehman subtree kernel with `iterations` refinement rounds.
#[derive(Debug, Clone)]
pub struct WeisfeilerLehmanKernel {
    /// Number of WL refinement iterations (the paper's tables use height 10).
    pub iterations: usize,
}

impl Default for WeisfeilerLehmanKernel {
    fn default() -> Self {
        WeisfeilerLehmanKernel { iterations: 4 }
    }
}

impl WeisfeilerLehmanKernel {
    /// Creates the kernel with the given number of refinement rounds.
    pub fn new(iterations: usize) -> Self {
        WeisfeilerLehmanKernel { iterations }
    }

    /// Runs WL refinement on one graph and returns its concatenated label
    /// histogram over all iterations as a sorted sparse vector. Labels are
    /// content-addressed, so maps computed independently are directly
    /// comparable across graphs and across calls.
    pub fn feature_map(&self, graph: &Graph) -> WlFeatureVec {
        let n = graph.num_vertices();
        let mut labels: Vec<u64> = graph.effective_labels().iter().map(|&l| l as u64).collect();
        let mut keys: Vec<u64> = Vec::with_capacity(n * (self.iterations + 1));
        // Round 0: raw labels.
        keys.extend(labels.iter().map(|&l| mix64(l)));

        let mut neigh: Vec<u64> = Vec::new();
        for round in 0..self.iterations {
            // Per-round salt keeps equal signatures from different rounds
            // in distinct histogram slots (the rounds are concatenated).
            let tag = (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut updated = Vec::with_capacity(n);
            for v in 0..n {
                neigh.clear();
                neigh.extend(graph.neighbors(v).map(|u| labels[u]));
                neigh.sort_unstable();
                // splitmix64 sponge over (own label, sorted neighbours).
                let mut h = mix64(labels[v] ^ 0x517c_c1b7_2722_0a95);
                for &nl in &neigh {
                    h = mix64(h ^ mix64(nl));
                }
                updated.push(h);
            }
            labels = updated;
            keys.extend(labels.iter().map(|&l| mix64(l ^ tag)));
        }
        sorted_histogram(keys)
    }

    /// Feature maps of a whole dataset; each map is independent (see
    /// [`WeisfeilerLehmanKernel::feature_map`]).
    pub fn feature_maps(&self, graphs: &[Graph]) -> Vec<WlFeatureVec> {
        graphs.iter().map(|g| self.feature_map(g)).collect()
    }
}

impl GraphKernel for WeisfeilerLehmanKernel {
    fn name(&self) -> &'static str {
        "WLSK"
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        sparse_dot(&self.feature_map(a), &self.feature_map(b))
    }

    // The WL Gram factors through explicit feature maps: one refinement
    // pass per graph, then a merge-join dot per pair on the requested
    // backend — no dense union label space is ever materialised.
    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = crate::kernel::time_kernel_gram(self.name());
        let features = self.feature_maps(graphs);
        let pairs = per_pair(|i, j| sparse_dot(&features[i], &features[j]));
        gram_from_tiles(graphs.len(), backend, pairs, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    #[test]
    fn identical_graphs_have_maximal_similarity() {
        let kernel = WeisfeilerLehmanKernel::new(3);
        let g = cycle_graph(6);
        let self_sim = kernel.compute(&g, &g);
        let cross = kernel.compute(&g, &path_graph(6));
        assert!(self_sim > cross);
    }

    #[test]
    fn kernel_is_symmetric_and_nonnegative() {
        let kernel = WeisfeilerLehmanKernel::default();
        let a = star_graph(7);
        let b = cycle_graph(7);
        assert_eq!(kernel.compute(&a, &b), kernel.compute(&b, &a));
        assert!(kernel.compute(&a, &b) >= 0.0);
    }

    #[test]
    fn isomorphic_graphs_get_equal_self_similarity() {
        let kernel = WeisfeilerLehmanKernel::new(3);
        let g = path_graph(6);
        let perm = vec![5, 4, 3, 2, 1, 0];
        let h = g.permute(&perm).unwrap();
        // WL features are permutation invariant, so all pairwise values agree.
        assert!((kernel.compute(&g, &g) - kernel.compute(&h, &h)).abs() < 1e-9);
        assert!((kernel.compute(&g, &h) - kernel.compute(&g, &g)).abs() < 1e-9);
    }

    #[test]
    fn labels_sharpen_discrimination() {
        let kernel = WeisfeilerLehmanKernel::new(2);
        let mut a = path_graph(4);
        let mut b = path_graph(4);
        // Same topology, different labels -> lower similarity than identical labels.
        a.set_labels(vec![1, 1, 1, 1]).unwrap();
        b.set_labels(vec![2, 2, 2, 2]).unwrap();
        let cross = kernel.compute(&a, &b);
        let same = kernel.compute(&a, &a);
        assert!(cross < same);
        assert_eq!(cross, 0.0, "disjoint label alphabets share no features");
    }

    #[test]
    fn feature_maps_are_sorted_and_self_contained() {
        let kernel = WeisfeilerLehmanKernel::new(3);
        let g = cycle_graph(7);
        let map = kernel.feature_map(&g);
        assert!(
            map.windows(2).all(|w| w[0].0 < w[1].0),
            "keys sorted, unique"
        );
        // Total count = vertices x (iterations + 1) rounds.
        let total: f64 = map.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, (7 * 4) as f64);
        // A map computed alone equals the map computed alongside others.
        let joint = kernel.feature_maps(&[path_graph(5), g.clone(), star_graph(6)]);
        assert_eq!(joint[1], map, "feature maps are dataset-independent");
    }

    #[test]
    fn gram_matrix_is_psd() {
        let kernel = WeisfeilerLehmanKernel::new(3);
        let graphs = vec![
            path_graph(5),
            cycle_graph(5),
            star_graph(5),
            cycle_graph(7),
            path_graph(8),
        ];
        let gram = kernel.gram_matrix(&graphs);
        assert_eq!(gram.len(), 5);
        assert!(gram.is_positive_semidefinite(1e-9).unwrap());
        // Gram entries must match pairwise computation (content-addressed
        // signatures make values identical across call patterns).
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let direct = kernel.compute(&graphs[i], &graphs[j]);
                assert!((gram.get(i, j) - direct).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_iterations_reduces_to_label_histogram_kernel() {
        let kernel = WeisfeilerLehmanKernel::new(0);
        let a = path_graph(4); // degrees 1,2,2,1
        let b = path_graph(4);
        // Histogram dot product: two labels "1" (count 2) and "2" (count 2)
        // => 2*2 + 2*2 = 8.
        assert_eq!(kernel.compute(&a, &b), 8.0);
    }

    #[test]
    fn sparse_dot_merges_sorted_vectors() {
        let a = vec![(1u64, 2.0), (5, 1.0), (9, 3.0)];
        let b = vec![(1u64, 4.0), (6, 2.0), (9, 0.5)];
        assert_eq!(sparse_dot(&a, &b), 2.0 * 4.0 + 3.0 * 0.5);
        assert_eq!(sparse_dot(&a, &[]), 0.0);
    }
}
