//! The core undirected graph type.
//!
//! Graphs in the paper are simple, undirected and un-attributed; several of
//! the baseline kernels (WLSK, SPGK) additionally consume discrete vertex
//! labels, and the paper substitutes vertex degrees when a dataset carries no
//! labels. [`Graph`] therefore stores an adjacency structure plus optional
//! integer labels per vertex, and exposes the matrix views (adjacency, degree,
//! Laplacian) that the quantum-walk machinery consumes.

use crate::error::GraphError;
use crate::Result;
use haqjsk_linalg::Matrix;
use std::collections::BTreeSet;

/// A simple undirected graph with optional integer vertex labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_vertices: usize,
    /// Sorted adjacency sets, one per vertex.
    adjacency: Vec<BTreeSet<usize>>,
    /// Optional discrete vertex labels (e.g. atom types). When `None`, the
    /// degree of each vertex is used wherever a label is required, following
    /// the paper's convention for unlabelled datasets.
    labels: Option<Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            num_vertices: n,
            adjacency: vec![BTreeSet::new(); n],
            labels: None,
        }
    }

    /// Creates a graph from an edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge. Self-loops are rejected, duplicate edges are
    /// silently ignored (the graph is simple).
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.adjacency[u].insert(v);
        self.adjacency[v].insert(u);
        Ok(())
    }

    /// Removes an undirected edge if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<bool> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let existed = self.adjacency[u].remove(&v);
        self.adjacency[v].remove(&u);
        Ok(existed)
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.num_vertices && v < self.num_vertices && self.adjacency[u].contains(&v)
    }

    /// Adds an extra isolated vertex, returning its index.
    pub fn add_vertex(&mut self) -> usize {
        self.adjacency.push(BTreeSet::new());
        if let Some(labels) = &mut self.labels {
            labels.push(0);
        }
        self.num_vertices += 1;
        self.num_vertices - 1
    }

    /// Neighbours of `u` in ascending order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[u].iter().copied()
    }

    /// Degree of vertex `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency[u].len()
    }

    /// Degrees of every vertex.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices).map(|u| self.degree(u)).collect()
    }

    /// All edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.num_vertices {
            for &v in &self.adjacency[u] {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Sets the full vertex label vector. The length must match the number of
    /// vertices.
    pub fn set_labels(&mut self, labels: Vec<usize>) -> Result<()> {
        if labels.len() != self.num_vertices {
            return Err(GraphError::InvalidArgument(format!(
                "label vector length {} does not match {} vertices",
                labels.len(),
                self.num_vertices
            )));
        }
        self.labels = Some(labels);
        Ok(())
    }

    /// Returns the explicit vertex labels if present.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Returns vertex labels, substituting the degree for unlabelled graphs —
    /// the convention the paper uses for the unlabelled benchmark datasets.
    pub fn effective_labels(&self) -> Vec<usize> {
        match &self.labels {
            Some(l) => l.clone(),
            None => self.degrees(),
        }
    }

    /// Dense adjacency matrix `A`.
    pub fn adjacency_matrix(&self) -> Matrix {
        let n = self.num_vertices;
        let mut a = Matrix::zeros(n, n);
        for u in 0..n {
            for &v in &self.adjacency[u] {
                a[(u, v)] = 1.0;
            }
        }
        a
    }

    /// Diagonal degree matrix `D`.
    pub fn degree_matrix(&self) -> Matrix {
        let degs: Vec<f64> = self.degrees().iter().map(|&d| d as f64).collect();
        Matrix::from_diag(&degs)
    }

    /// Combinatorial Laplacian `L = D - A`, the Hamiltonian of the CTQW in
    /// the paper (Sec. II-A).
    pub fn laplacian(&self) -> Matrix {
        &self.degree_matrix() - &self.adjacency_matrix()
    }

    /// The degree distribution normalised to a probability vector. This is
    /// the distribution whose square root initialises the CTQW amplitude
    /// vector in the paper (`α_u(0) ∝ sqrt(d_u)` after normalisation).
    pub fn degree_distribution(&self) -> Vec<f64> {
        let degs = self.degrees();
        let total: usize = degs.iter().sum();
        if total == 0 {
            // No edges at all: fall back to the uniform distribution so the
            // CTQW still has a valid initial state.
            return vec![1.0 / self.num_vertices.max(1) as f64; self.num_vertices];
        }
        degs.iter().map(|&d| d as f64 / total as f64).collect()
    }

    /// Returns a relabelled copy of the graph: vertex `i` of the new graph is
    /// vertex `perm[i]` of the old one. Labels are carried along.
    pub fn permute(&self, perm: &[usize]) -> Result<Graph> {
        if perm.len() != self.num_vertices {
            return Err(GraphError::InvalidArgument(format!(
                "permutation length {} does not match {} vertices",
                perm.len(),
                self.num_vertices
            )));
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(GraphError::InvalidArgument(
                    "not a valid permutation".to_string(),
                ));
            }
            seen[p] = true;
        }
        // inverse[old] = new index of old vertex
        let mut inverse = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inverse[old] = new;
        }
        let mut g = Graph::new(self.num_vertices);
        for (u, v) in self.edges() {
            g.add_edge(inverse[u], inverse[v])?;
        }
        if let Some(labels) = &self.labels {
            let new_labels: Vec<usize> = perm.iter().map(|&old| labels[old]).collect();
            g.set_labels(new_labels)?;
        }
        Ok(g)
    }

    /// Returns the vertex-induced subgraph on `vertices` (indices into this
    /// graph), together with the mapping from new indices to old ones.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> Result<(Graph, Vec<usize>)> {
        for &v in vertices {
            self.check_vertex(v)?;
        }
        let mut sorted: Vec<usize> = vertices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let index_of = |v: usize| sorted.binary_search(&v).ok();
        let mut g = Graph::new(sorted.len());
        for (new_u, &old_u) in sorted.iter().enumerate() {
            for &old_v in &self.adjacency[old_u] {
                if let Some(new_v) = index_of(old_v) {
                    if new_u < new_v {
                        g.add_edge(new_u, new_v)?;
                    }
                }
            }
        }
        if let Some(labels) = &self.labels {
            g.set_labels(sorted.iter().map(|&v| labels[v]).collect())?;
        }
        Ok((g, sorted))
    }

    /// Graph density `2m / (n (n-1))`; zero for graphs with fewer than two
    /// vertices.
    pub fn density(&self) -> f64 {
        let n = self.num_vertices;
        if n < 2 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / (n as f64 * (n as f64 - 1.0))
    }

    fn check_vertex(&self, v: usize) -> Result<()> {
        if v >= self.num_vertices {
            Err(GraphError::VertexOutOfBounds {
                vertex: v,
                num_vertices: self.num_vertices,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degrees(), vec![1, 2, 1]);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 3).unwrap();
        // Duplicate edges are ignored.
        g.add_edge(3, 0).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(0, 3).unwrap());
        assert!(!g.remove_edge(0, 3).unwrap());
        assert_eq!(g.num_edges(), 0);
        assert!(g.add_edge(0, 0).is_err());
        assert!(g.add_edge(0, 9).is_err());
    }

    #[test]
    fn add_vertex_grows_graph() {
        let mut g = path3();
        g.set_labels(vec![1, 2, 3]).unwrap();
        let v = g.add_vertex();
        assert_eq!(v, 3);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.labels().unwrap().len(), 4);
    }

    #[test]
    fn matrices_of_path_graph() {
        let g = path3();
        let a = g.adjacency_matrix();
        assert_eq!(a[(0, 1)], 1.0);
        assert_eq!(a[(0, 2)], 0.0);
        assert!(a.is_symmetric(0.0));
        let d = g.degree_matrix();
        assert_eq!(d[(1, 1)], 2.0);
        let l = g.laplacian();
        assert_eq!(l[(1, 1)], 2.0);
        assert_eq!(l[(0, 1)], -1.0);
        // Laplacian rows sum to zero.
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| l[(i, j)]).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn degree_distribution_sums_to_one() {
        let g = path3();
        let p = g.degree_distribution();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        // Edgeless graph falls back to uniform.
        let empty = Graph::new(4);
        let q = empty.degree_distribution();
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((q[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn labels_explicit_and_effective() {
        let mut g = path3();
        assert!(g.labels().is_none());
        assert_eq!(g.effective_labels(), vec![1, 2, 1]);
        g.set_labels(vec![7, 8, 9]).unwrap();
        assert_eq!(g.effective_labels(), vec![7, 8, 9]);
        assert!(g.set_labels(vec![1]).is_err());
    }

    #[test]
    fn permute_preserves_structure() {
        let mut g = path3();
        g.set_labels(vec![10, 20, 30]).unwrap();
        let p = g.permute(&[2, 1, 0]).unwrap();
        assert_eq!(p.num_edges(), 2);
        // Old vertex 2 (label 30, degree 1) is now vertex 0.
        assert_eq!(p.labels().unwrap()[0], 30);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(1), 2);
        assert!(g.permute(&[0, 0, 1]).is_err());
        assert!(g.permute(&[0, 1]).is_err());
    }

    #[test]
    fn induced_subgraph_extracts_edges_and_labels() {
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        g.set_labels(vec![0, 1, 2, 3, 4]).unwrap();
        let (sub, mapping) = g.induced_subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(mapping, vec![1, 2, 3]);
        assert_eq!(sub.labels().unwrap(), &[1, 2, 3]);
        assert!(g.induced_subgraph(&[99]).is_err());
    }

    #[test]
    fn density_values() {
        assert_eq!(Graph::new(1).density(), 0.0);
        assert!((triangle().density() - 1.0).abs() < 1e-12);
        assert!((path3().density() - 2.0 / 3.0).abs() < 1e-12);
    }
}
