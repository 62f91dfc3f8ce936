//! Correspondences between graph vertices and hierarchical prototypes
//! (Eq. 15 / Eq. 17 of the paper).
//!
//! `C^{h,k}_p ∈ {0,1}^{|V_p| × |P^{h,k}|}` has a single 1 per row: vertex
//! `v_i` is aligned to its nearest `h`-level prototype in the `k`-dimensional
//! depth-based representation space. The matrix is therefore kept as its
//! assignment vector — one prototype index per vertex. Two vertices (of the
//! same or of different graphs) are *transitively aligned* whenever they map
//! to the same prototype — the key property that makes the resulting
//! kernels positive definite.

use crate::db_representation::DbRepresentations;
use crate::hierarchy::PrototypeHierarchy;
use crate::kmeans::nearest;
use haqjsk_linalg::Matrix;

/// The correspondence matrix of one graph against one prototype set, as
/// the column index of the single 1 in each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrespondenceMatrix {
    /// `assignment[v]` = prototype index that vertex `v` is aligned to.
    assignment: Vec<usize>,
    /// Number of prototypes (columns of `C`).
    num_prototypes: usize,
}

impl CorrespondenceMatrix {
    /// Aligns each vertex representation to its nearest prototype.
    pub fn align<'a>(
        vertex_representations: impl IntoIterator<Item = &'a [f64]>,
        prototypes: &[Vec<f64>],
    ) -> Self {
        let assignment = vertex_representations
            .into_iter()
            .map(|rep| match prototypes {
                [] => 0,
                _ => nearest(rep, prototypes).0,
            })
            .collect();
        CorrespondenceMatrix {
            assignment,
            num_prototypes: prototypes.len(),
        }
    }

    /// Number of vertices (rows).
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Number of prototypes (columns).
    pub fn num_prototypes(&self) -> usize {
        self.num_prototypes
    }

    /// Prototype index assigned to vertex `v`.
    pub fn prototype_of(&self, v: usize) -> usize {
        self.assignment[v]
    }

    /// Congruence transform `Cᵀ X C` mapping an `n x n` vertex-indexed
    /// matrix (adjacency or density) into the fixed-size prototype-indexed
    /// space — the aligned-structure construction of Eq. 19 / Eq. 21.
    pub fn transform(&self, vertex_matrix: &Matrix) -> Matrix {
        let n = self.num_vertices();
        let m = self.num_prototypes();
        debug_assert_eq!(vertex_matrix.rows(), n);
        debug_assert_eq!(vertex_matrix.cols(), n);
        if m == 0 {
            return Matrix::zeros(0, 0);
        }
        // Because C has exactly one 1 per row, CᵀXC can be accumulated
        // directly: out[a(i)][a(j)] += X[i][j]. This is O(n²) instead of two
        // dense O(n² m) multiplications.
        let mut out = Matrix::zeros(m, m);
        for i in 0..n {
            let pi = self.assignment[i];
            for j in 0..n {
                let x = vertex_matrix[(i, j)];
                if x != 0.0 {
                    out[(pi, self.assignment[j])] += x;
                }
            }
        }
        out
    }
}

/// All correspondence matrices of one graph: indexed by hierarchy level `h`
/// (1-based) and layer parameter `k` (1-based).
#[derive(Debug, Clone)]
pub struct GraphCorrespondences {
    /// `per_level[h-1][k-1]` is `C^{h,k}_p`.
    per_level: Vec<Vec<CorrespondenceMatrix>>,
}

impl GraphCorrespondences {
    /// Computes every `C^{h,k}_p` for one graph against a prototype
    /// hierarchy. The `k`-dimensional representations are read in place as
    /// prefixes of the graph's DB traces.
    pub fn compute(
        representations: &DbRepresentations,
        graph_index: usize,
        hierarchy: &PrototypeHierarchy,
    ) -> Self {
        let traces = representations.graph_traces(graph_index);
        let per_level = (1..=hierarchy.num_levels())
            .map(|h| {
                (1..=hierarchy.max_layers())
                    .map(|k| {
                        let prefixes = traces.iter().map(|t| &t[..k.min(t.len())]);
                        CorrespondenceMatrix::align(prefixes, hierarchy.layer(k).prototypes(h))
                    })
                    .collect()
            })
            .collect();
        GraphCorrespondences { per_level }
    }

    /// `C^{h,k}` for 1-based `h` and `k`.
    pub fn at(&self, h: usize, k: usize) -> &CorrespondenceMatrix {
        &self.per_level[h - 1][k - 1]
    }

    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> usize {
        self.per_level.len()
    }

    /// Number of layer parameters.
    pub fn max_layers(&self) -> usize {
        self.per_level.first().map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HaqjskConfig;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    fn align(reps: &[Vec<f64>], prototypes: &[Vec<f64>]) -> CorrespondenceMatrix {
        CorrespondenceMatrix::align(reps.iter().map(Vec::as_slice), prototypes)
    }

    /// The dense 0/1 matrix `C` the assignment vector stands for.
    fn dense(c: &CorrespondenceMatrix) -> Matrix {
        let mut matrix = Matrix::zeros(c.num_vertices(), c.num_prototypes());
        for v in 0..c.num_vertices() {
            matrix[(v, c.prototype_of(v))] = 1.0;
        }
        matrix
    }

    #[test]
    fn rows_have_exactly_one_assignment() {
        let reps = vec![vec![0.1, 0.2], vec![5.0, 5.0], vec![0.15, 0.25]];
        let prototypes = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        let c = align(&reps, &prototypes);
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(c.num_prototypes(), 2);
        assert_eq!(c.prototype_of(0), 0);
        assert_eq!(c.prototype_of(1), 1);
        assert_eq!(c.prototype_of(2), 0);
    }

    #[test]
    fn transform_accumulates_adjacency_mass() {
        // Path 0-1-2 with vertices 0,2 aligned to prototype 0 and vertex 1
        // aligned to prototype 1.
        let reps = vec![vec![0.0], vec![10.0], vec![0.0]];
        let prototypes = vec![vec![0.0], vec![10.0]];
        let c = align(&reps, &prototypes);
        let adjacency = haqjsk_graph::generators::path_graph(3).adjacency_matrix();
        let aligned = c.transform(&adjacency);
        assert_eq!(aligned.shape(), (2, 2));
        // Edges (0,1) and (1,2) both connect prototype 0 with prototype 1.
        assert_eq!(aligned[(0, 1)], 2.0);
        assert_eq!(aligned[(1, 0)], 2.0);
        assert_eq!(aligned[(0, 0)], 0.0);
        assert_eq!(aligned[(1, 1)], 0.0);
        // Total mass is preserved by the congruence with a row-stochastic
        // 0/1 matrix.
        assert_eq!(aligned.sum(), adjacency.sum());
        // Matches the explicit matrix product CᵀAC.
        let matrix = dense(&c);
        let explicit = matrix
            .transpose()
            .matmul(&adjacency)
            .unwrap()
            .matmul(&matrix)
            .unwrap();
        assert!((&explicit - &aligned).max_abs() < 1e-12);
    }

    #[test]
    fn empty_prototype_set_is_tolerated() {
        let reps = vec![vec![1.0], vec![2.0]];
        let c = align(&reps, &[]);
        assert_eq!(c.num_prototypes(), 0);
        let transformed = c.transform(&Matrix::identity(2));
        assert_eq!(transformed.shape(), (0, 0));
    }

    #[test]
    fn graph_correspondences_cover_all_levels_and_layers() {
        let graphs = vec![path_graph(5), cycle_graph(6), star_graph(4)];
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = HaqjskConfig {
            hierarchy_levels: 3,
            num_prototypes: 6,
            ..HaqjskConfig::small()
        };
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        let corr = GraphCorrespondences::compute(&reps, 1, &hierarchy);
        assert_eq!(corr.num_levels(), 3);
        assert_eq!(corr.max_layers(), reps.max_layers());
        for h in 1..=3 {
            for k in 1..=corr.max_layers() {
                let c = corr.at(h, k);
                assert_eq!(c.num_vertices(), graphs[1].num_vertices());
                assert_eq!(c.num_prototypes(), hierarchy.prototypes_at(h, k));
            }
        }
    }

    #[test]
    fn identical_graphs_get_identical_correspondences() {
        // Transitivity in action: two copies of the same graph align to the
        // same prototypes, so their correspondence matrices coincide.
        let graphs = vec![cycle_graph(5), cycle_graph(5), path_graph(6)];
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = HaqjskConfig {
            hierarchy_levels: 2,
            num_prototypes: 4,
            ..HaqjskConfig::small()
        };
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        let c0 = GraphCorrespondences::compute(&reps, 0, &hierarchy);
        let c1 = GraphCorrespondences::compute(&reps, 1, &hierarchy);
        for h in 1..=2 {
            for k in 1..=reps.max_layers() {
                assert_eq!(c0.at(h, k), c1.at(h, k));
            }
        }
    }
}
