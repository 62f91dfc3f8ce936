//! Breadth-first and all-pairs shortest paths on unweighted graphs.
//!
//! Shortest-path structure enters the reproduction in three places: the
//! depth-based vertex representations expand `k`-layer subgraphs by hop
//! distance, the shortest-path baseline kernel (SPGK) counts path-length
//! co-occurrences, and the parameter `K` of the HAQJSK kernels is tied to the
//! greatest shortest-path length over the dataset.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Marker distance for vertex pairs in different connected components.
pub const INFINITE_DISTANCE: usize = usize::MAX;

/// Hop distances from `source` to every vertex (BFS). Unreachable vertices
/// get [`INFINITE_DISTANCE`].
pub fn bfs_distances(graph: &Graph, source: usize) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut dist = vec![INFINITE_DISTANCE; n];
    if source >= n {
        return dist;
    }
    dist[source] = 0;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in graph.neighbors(u) {
            if dist[v] == INFINITE_DISTANCE {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs shortest path distances as a dense `n x n` table of hop counts.
pub fn all_pairs_shortest_paths(graph: &Graph) -> Vec<Vec<usize>> {
    (0..graph.num_vertices())
        .map(|s| bfs_distances(graph, s))
        .collect()
}

/// The diameter restricted to reachable pairs (the greatest finite shortest
/// path length in the graph). Returns 0 for edgeless graphs. The paper sets
/// the largest expansion-subgraph layer `K` to the greatest diameter over
/// the dataset; a fit reads it off the DB traces' own BFS sweep
/// ([`depth_based_traces`](crate::subgraph::depth_based_traces)), and this
/// all-pairs BFS is kept as the reference it is tested against.
pub fn diameter(graph: &Graph) -> usize {
    (0..graph.num_vertices())
        .flat_map(|v| bfs_distances(graph, v))
        .filter(|&d| d != INFINITE_DISTANCE)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITE_DISTANCE);
        assert_eq!(d[3], INFINITE_DISTANCE);
        // Out-of-range source yields all-infinite distances.
        let d_bad = bfs_distances(&g, 10);
        assert!(d_bad.iter().all(|&x| x == INFINITE_DISTANCE));
    }

    #[test]
    fn all_pairs_symmetry() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let d = all_pairs_shortest_paths(&g);
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, &dij) in row.iter().enumerate() {
                assert_eq!(dij, d[j][i]);
            }
        }
        assert_eq!(d[0][2], 2);
    }

    #[test]
    fn diameter_keeps_the_greatest_finite_distance() {
        let g = path(5);
        assert_eq!(diameter(&g), 4);
        assert_eq!(diameter(&Graph::new(3)), 0);
        // Diameter ignores unreachable pairs but keeps the largest finite one.
        let disc = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(diameter(&disc), 2);
    }
}
