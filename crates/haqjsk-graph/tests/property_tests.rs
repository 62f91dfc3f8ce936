//! Property-based tests for the graph substrate.

use haqjsk_graph::generators::{
    barabasi_albert, complete_graph, erdos_renyi, path_graph, random_tree, star_graph,
};
use haqjsk_graph::shortest_paths::{
    all_pairs_shortest_paths, bfs_distances, diameter, INFINITE_DISTANCE,
};
use haqjsk_graph::subgraph::depth_based_traces;
use haqjsk_graph::{analysis, io, Graph};
use haqjsk_linalg::vector::shannon_entropy;
use proptest::prelude::*;

fn random_graph_strategy() -> impl Strategy<Value = Graph> {
    (3usize..20, 0.05f64..0.8, 0u64..1000).prop_map(|(n, p, seed)| erdos_renyi(n, p, seed))
}

/// Reference DB traces from materialised expansion subgraphs: for every
/// root and layer `k`, the Shannon entropy of the degree vector of the
/// subgraph induced by the `k`-hop ball.
fn traces_from_induced_subgraphs(g: &Graph, max_k: usize) -> Vec<Vec<f64>> {
    (0..g.num_vertices())
        .map(|root| {
            let dist = bfs_distances(g, root);
            (1..=max_k)
                .map(|k| {
                    let ball: Vec<usize> = (0..g.num_vertices())
                        .filter(|&v| dist[v] != INFINITE_DISTANCE && dist[v] <= k)
                        .collect();
                    let (sub, _) = g.induced_subgraph(&ball).unwrap();
                    let degrees: Vec<f64> = sub.degrees().iter().map(|&d| d as f64).collect();
                    shannon_entropy(&degrees)
                })
                .collect()
        })
        .collect()
}

/// Bit-level view of a trace table, so equality means bit-identical.
fn trace_bits(traces: &[Vec<f64>]) -> Vec<Vec<u64>> {
    traces
        .iter()
        .map(|t| t.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The BFS-counted traces equal the induced-subgraph traces bit for bit on
/// degenerate shapes: 0- and 1-node, edgeless, disconnected, complete and
/// star graphs.
#[test]
fn depth_based_traces_match_induced_subgraphs_on_degenerate_graphs() {
    let mut two_components = path_graph(4);
    let offset = two_components.num_vertices();
    for _ in 0..5 {
        two_components.add_vertex();
    }
    for (u, v) in star_graph(5).edges() {
        two_components.add_edge(offset + u, offset + v).unwrap();
    }
    let graphs = [
        Graph::new(0),
        Graph::new(1),
        Graph::new(5),
        two_components,
        Graph::from_edges(6, &[(0, 1), (3, 4)]).unwrap(),
        complete_graph(1),
        complete_graph(2),
        complete_graph(7),
        star_graph(2),
        star_graph(9),
    ];
    for g in &graphs {
        for max_k in [0, 1, 3, 8] {
            assert_eq!(
                trace_bits(&depth_based_traces(g, max_k)),
                trace_bits(&traces_from_induced_subgraphs(g, max_k)),
                "graph {g:?}, K = {max_k}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Laplacian rows always sum to zero and the matrix is symmetric PSD-shaped.
    #[test]
    fn laplacian_row_sums_zero(g in random_graph_strategy()) {
        let l = g.laplacian();
        prop_assert!(l.is_symmetric(1e-12));
        for i in 0..g.num_vertices() {
            let s: f64 = (0..g.num_vertices()).map(|j| l[(i, j)]).sum();
            prop_assert!(s.abs() < 1e-12);
        }
    }

    /// Sum of degrees equals twice the number of edges.
    #[test]
    fn handshake_lemma(g in random_graph_strategy()) {
        let total: usize = g.degrees().iter().sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    /// Shortest path distances satisfy the triangle inequality and symmetry.
    #[test]
    fn shortest_paths_metric(g in random_graph_strategy()) {
        let d = all_pairs_shortest_paths(&g);
        let n = g.num_vertices();
        for i in 0..n {
            prop_assert_eq!(d[i][i], 0);
            for j in 0..n {
                prop_assert_eq!(d[i][j], d[j][i]);
                if d[i][j] != INFINITE_DISTANCE {
                    for k in 0..n {
                        if d[i][k] != INFINITE_DISTANCE && d[k][j] != INFINITE_DISTANCE {
                            prop_assert!(d[i][j] <= d[i][k] + d[k][j]);
                        }
                    }
                }
            }
        }
    }

    /// Permuting a graph preserves degree multiset, edge count and diameter.
    #[test]
    fn permutation_invariants(g in random_graph_strategy(), seed in 0u64..100) {
        let n = g.num_vertices();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed + 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let p = g.permute(&perm).unwrap();
        prop_assert_eq!(p.num_edges(), g.num_edges());
        let mut d1 = g.degrees();
        let mut d2 = p.degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(diameter(&p), diameter(&g));
    }

    /// The BFS-counted traces equal, bit for bit, the Shannon entropy of
    /// each materialised expansion subgraph's degree vector.
    #[test]
    fn depth_based_traces_match_induced_subgraphs(g in random_graph_strategy(), max_k in 0usize..7) {
        prop_assert_eq!(
            trace_bits(&depth_based_traces(&g, max_k)),
            trace_bits(&traces_from_induced_subgraphs(&g, max_k))
        );
    }

    /// Depth-based traces have the requested dimensionality and are finite
    /// and non-negative.
    #[test]
    fn depth_based_traces_shape(g in random_graph_strategy()) {
        let traces = depth_based_traces(&g, 4);
        prop_assert_eq!(traces.len(), g.num_vertices());
        for t in &traces {
            prop_assert_eq!(t.len(), 4);
            for &x in t {
                prop_assert!(x.is_finite());
                prop_assert!(x >= 0.0);
            }
        }
    }

    /// Text serialisation round-trips exactly.
    #[test]
    fn io_roundtrip(g in random_graph_strategy()) {
        let text = io::graph_to_string(&g);
        let back = io::graph_from_string(&text).unwrap();
        prop_assert_eq!(back, g);
    }

    /// Random trees always have n-1 edges and are connected.
    #[test]
    fn random_trees_are_trees(n in 2usize..40, seed in 0u64..500) {
        let t = random_tree(n, seed);
        prop_assert_eq!(t.num_edges(), n - 1);
        prop_assert!(analysis::is_connected(&t));
    }

    /// Barabasi-Albert graphs are connected and have no more than n*m edges.
    #[test]
    fn ba_graphs_connected(n in 5usize..40, m in 1usize..4, seed in 0u64..200) {
        let g = barabasi_albert(n, m, seed);
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert!(analysis::is_connected(&g));
        prop_assert!(g.num_edges() <= n * m + (m * (m + 1)) / 2);
    }
}
