//! Depth-based complexity traces.
//!
//! The depth-based (DB) vertex representations of the paper (Sec. III-A,
//! following Bai & Hancock's "Depth-based complexity traces of graphs") are
//! read off the `k`-layer expansion subgraphs rooted at each vertex: the
//! induced subgraph on all vertices within `k` hops of the root. Each layer
//! contributes the Shannon entropy of that subgraph's degree distribution.
//! The subgraphs are never built: one BFS per root, over flat neighbour
//! lists built once per graph, gives every vertex's hop distance `d`. A
//! vertex nearer than `k` keeps its full degree inside the `k`-hop ball; a
//! vertex at exactly `k` (the boundary) keeps the neighbours no farther than
//! itself, counted once per root. Layers past the root's eccentricity see
//! the whole component, so they repeat the last layer's entropy, and the
//! greatest eccentricity is the graph's diameter.

use crate::graph::Graph;
use haqjsk_linalg::vector::shannon_entropy;

/// Depth-based complexity traces for every vertex of the graph, as an
/// `n x max_k` table (row per vertex), with the graph's diameter (the
/// greatest finite hop distance; 0 for an edgeless graph) from the same
/// BFS sweep. Entry `k - 1` of a row is the Shannon entropy of the degree
/// distribution of the `k`-layer expansion subgraph rooted at that vertex,
/// with degrees listed in ascending vertex order — bit for bit what the
/// materialised induced subgraph would give. It depends on `k` alone, so a
/// table computed to a larger `max_k` truncates to a smaller one. A row is
/// the vectorial vertex representation `R^k(v)` aligned by the HAQJSK
/// kernels.
pub fn depth_based_traces(graph: &Graph, max_k: usize) -> (Vec<Vec<f64>>, usize) {
    const UNREACHED: usize = usize::MAX;
    let n = graph.num_vertices();
    // The neighbours of `u` are `targets[offsets[u]..offsets[u + 1]]`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(2 * graph.num_edges());
    offsets.push(0);
    for u in 0..n {
        targets.extend(graph.neighbors(u));
        offsets.push(targets.len());
    }
    let neighbours = |u: usize| &targets[offsets[u]..offsets[u + 1]];
    let mut dist = vec![UNREACHED; n];
    let mut queue = Vec::with_capacity(n);
    // `boundary[u]`: the degree of `u` inside the ball of radius `dist[u]`.
    let mut boundary = vec![0.0_f64; n];
    let mut degrees = Vec::with_capacity(n);
    let mut diameter = 0;
    let traces = (0..n)
        .map(|root| {
            dist.fill(UNREACHED);
            dist[root] = 0;
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in neighbours(u) {
                    if dist[v] == UNREACHED {
                        dist[v] = dist[u] + 1;
                        queue.push(v);
                    }
                }
            }
            // BFS visits in non-decreasing distance: the last is farthest.
            let eccentricity = dist[queue[queue.len() - 1]];
            diameter = diameter.max(eccentricity);
            for &u in &queue {
                let within = neighbours(u).iter().filter(|&&v| dist[v] <= dist[u]);
                boundary[u] = within.count() as f64;
            }
            let mut trace = Vec::with_capacity(max_k);
            for k in 1..=max_k.min(eccentricity.max(1)) {
                degrees.clear();
                degrees.extend((0..n).filter(|&u| dist[u] <= k).map(|u| {
                    if dist[u] < k {
                        neighbours(u).len() as f64
                    } else {
                        boundary[u]
                    }
                }));
                trace.push(shannon_entropy(&degrees));
            }
            if let Some(&whole) = trace.last() {
                trace.resize(max_k, whole);
            }
            trace
        })
        .collect();
    (traces, diameter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn whole_ball_entropy_reflects_degree_uniformity() {
        // Cycle C4 is 2-regular: uniform degree distribution, entropy ln 4.
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let cycle = depth_based_traces(&c4, 2).0[0][1];
        assert!((cycle - 4.0_f64.ln()).abs() < 1e-12);
        // A star is less uniform than the cycle on the same vertex count.
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(depth_based_traces(&star, 1).0[0][0] < cycle);
        // Edgeless graphs have zero entropy at every layer.
        assert!(depth_based_traces(&Graph::new(3), 2)
            .0
            .iter()
            .flatten()
            .all(|&h| h == 0.0));
    }

    #[test]
    fn trace_is_monotone_in_information_for_path_interior() {
        let t = &depth_based_traces(&path(7), 3).0[3];
        assert_eq!(t.len(), 3);
        // As layers expand, the subgraph grows and so does its entropy.
        assert!(t[0] <= t[1] + 1e-12);
        assert!(t[1] <= t[2] + 1e-12);
    }

    #[test]
    fn traces_distinguish_endpoints_from_centres() {
        let g = path(7);
        let (traces, _) = depth_based_traces(&g, 3);
        assert_eq!(traces.len(), 7);
        assert_eq!(traces[0].len(), 3);
        // The centre vertex sees more structure at layer 2 than an endpoint.
        assert!(traces[3][1] > traces[0][1]);
        // Symmetric vertices have identical traces.
        for (a, b) in [(0, 6), (1, 5)] {
            for (x, y) in traces[a].iter().zip(&traces[b]) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn layers_ignore_other_components() {
        // Vertex 0's component is the path 0-1-2; the edge 3-4 never
        // enters its balls, so its trace equals that of a path's endpoint.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(
            depth_based_traces(&g, 4).0[0],
            depth_based_traces(&path(3), 4).0[0]
        );
    }

    #[test]
    fn zero_layers_gives_empty_traces() {
        assert!(depth_based_traces(&path(4), 0).0.iter().all(Vec::is_empty));
    }
}
