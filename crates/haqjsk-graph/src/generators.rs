//! Random and deterministic graph generators.
//!
//! The benchmark datasets of the paper are not redistributable inside this
//! repository, so the dataset crate synthesises stand-ins whose per-class
//! structure differs. The generators here are the building blocks: classic
//! deterministic families (paths, cycles, stars, complete graphs),
//! Erdős–Rényi / Barabási–Albert / Watts–Strogatz random models, stochastic
//! block models, random regular graphs and random trees, plus perturbation
//! helpers (edge rewiring / addition / deletion).

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic path graph `P_n`.
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i).expect("indices in range");
    }
    g
}

/// Deterministic cycle graph `C_n` (empty for `n < 3`).
pub fn cycle_graph(n: usize) -> Graph {
    let mut g = path_graph(n);
    if n >= 3 {
        g.add_edge(n - 1, 0).expect("indices in range");
    }
    g
}

/// Star graph `S_n`: vertex 0 connected to all others.
pub fn star_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0, i).expect("indices in range");
    }
    g
}

/// Complete graph `K_n`.
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j).expect("indices in range");
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` random graph.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                g.add_edge(i, j).expect("indices in range");
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment graph: starts from a small clique
/// of `m + 1` vertices and attaches each new vertex to `m` existing vertices
/// chosen proportionally to degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    let m = m.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let core = (m + 1).min(n.max(1));
    let mut g = complete_graph(core);
    if n <= core {
        return g;
    }
    // Repeated-endpoint list gives degree-proportional sampling.
    let mut endpoints: Vec<usize> = Vec::new();
    for (u, v) in g.edges() {
        endpoints.push(u);
        endpoints.push(v);
    }
    for _ in core..n {
        let new = g.add_vertex();
        let mut targets = std::collections::BTreeSet::new();
        let mut guard = 0;
        while targets.len() < m.min(new) && guard < 50 * m {
            guard += 1;
            let pick = if endpoints.is_empty() {
                rng.gen_range(0..new)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if pick != new {
                targets.insert(pick);
            }
        }
        for &t in &targets {
            g.add_edge(new, t).expect("indices in range");
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    g
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex is
/// joined to its `k` nearest neighbours (k rounded down to even), with each
/// edge rewired with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    if n < 2 {
        return g;
    }
    let half = (k / 2).max(1);
    for i in 0..n {
        for j in 1..=half {
            let v = (i + j) % n;
            if i != v {
                g.add_edge(i, v).expect("indices in range");
            }
        }
    }
    // Rewire each original lattice edge with probability beta.
    for i in 0..n {
        for j in 1..=half {
            let v = (i + j) % n;
            if i == v || !g.has_edge(i, v) {
                continue;
            }
            if rng.gen::<f64>() < beta {
                let mut guard = 0;
                loop {
                    guard += 1;
                    if guard > 20 {
                        break;
                    }
                    let w = rng.gen_range(0..n);
                    if w != i && !g.has_edge(i, w) {
                        g.remove_edge(i, v).expect("edge exists");
                        g.add_edge(i, w).expect("indices in range");
                        break;
                    }
                }
            }
        }
    }
    g
}

/// Stochastic block model: `block_sizes[b]` vertices per block, edge
/// probability `p_in` inside a block and `p_out` across blocks.
pub fn stochastic_block_model(block_sizes: &[usize], p_in: f64, p_out: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = block_sizes.iter().sum();
    let mut block_of = Vec::with_capacity(n);
    for (b, &size) in block_sizes.iter().enumerate() {
        block_of.extend(std::iter::repeat_n(b, size));
    }
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = if block_of[i] == block_of[j] {
                p_in
            } else {
                p_out
            };
            if rng.gen::<f64>() < p {
                g.add_edge(i, j).expect("indices in range");
            }
        }
    }
    g
}

/// Random `d`-regular-ish graph via the configuration model with rejection of
/// self-loops and duplicate edges (the result is close to regular; exact
/// regularity is not required by any consumer).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    if n < 2 || d == 0 {
        return g;
    }
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(&mut rng);
    let mut attempts = 0;
    while stubs.len() >= 2 && attempts < 20 * n * d {
        attempts += 1;
        let a = stubs.len() - 1;
        let b = rng.gen_range(0..a);
        let (u, v) = (stubs[a], stubs[b]);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("indices in range");
            stubs.swap_remove(a);
            stubs.swap_remove(b.min(stubs.len().saturating_sub(1)));
        } else {
            stubs.shuffle(&mut rng);
        }
    }
    g
}

/// Uniform random labelled tree on `n` vertices (random Prüfer sequence).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    if n < 2 {
        return g;
    }
    if n == 2 {
        g.add_edge(0, 1).expect("in range");
        return g;
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut ptr = 0usize;
    let mut leaf = usize::MAX;
    // Standard O(n) Prüfer decoding with a moving pointer.
    let mut deg = degree.clone();
    for &v in &prufer {
        let u = if leaf != usize::MAX {
            let u = leaf;
            leaf = usize::MAX;
            u
        } else {
            while deg[ptr] != 1 {
                ptr += 1;
            }
            let u = ptr;
            ptr += 1;
            u
        };
        g.add_edge(u, v).expect("indices in range");
        deg[u] -= 1;
        deg[v] -= 1;
        if deg[v] == 1 && v < ptr {
            leaf = v;
        }
    }
    // Connect the final two leaves.
    let mut last: Vec<usize> = (0..n).filter(|&v| deg[v] == 1).collect();
    if last.len() >= 2 {
        let b = last.pop().unwrap();
        let a = last.pop().unwrap();
        g.add_edge(a, b).expect("indices in range");
    }
    g
}

/// Randomly rewires `count` existing edges of the graph (each rewiring keeps
/// one endpoint and moves the other to a uniformly random non-neighbour).
pub fn rewire_edges(graph: &Graph, count: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = graph.clone();
    let n = g.num_vertices();
    if n < 3 {
        return g;
    }
    for _ in 0..count {
        let edges = g.edges();
        if edges.is_empty() {
            break;
        }
        let &(u, v) = &edges[rng.gen_range(0..edges.len())];
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 20 {
                break;
            }
            let w = rng.gen_range(0..n);
            if w != u && w != v && !g.has_edge(u, w) {
                g.remove_edge(u, v).expect("edge exists");
                g.add_edge(u, w).expect("indices in range");
                break;
            }
        }
    }
    g
}

/// Adds `count` random non-existing edges.
pub fn add_random_edges(graph: &Graph, count: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = graph.clone();
    let n = g.num_vertices();
    if n < 2 {
        return g;
    }
    let mut added = 0;
    let mut guard = 0;
    while added < count && guard < 50 * (count + 1) {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("indices in range");
            added += 1;
        }
    }
    g
}

/// Removes `count` random existing edges.
pub fn remove_random_edges(graph: &Graph, count: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = graph.clone();
    for _ in 0..count {
        let edges = g.edges();
        if edges.is_empty() {
            break;
        }
        let &(u, v) = &edges[rng.gen_range(0..edges.len())];
        g.remove_edge(u, v).expect("edge exists");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_connected;

    #[test]
    fn deterministic_families() {
        assert_eq!(path_graph(5).num_edges(), 4);
        assert_eq!(cycle_graph(5).num_edges(), 5);
        assert_eq!(cycle_graph(2).num_edges(), 1);
        assert_eq!(star_graph(6).num_edges(), 5);
        assert_eq!(star_graph(6).degree(0), 5);
        assert_eq!(complete_graph(5).num_edges(), 10);
    }

    #[test]
    fn erdos_renyi_extremes_and_determinism() {
        let empty = erdos_renyi(10, 0.0, 1);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(10, 1.0, 1);
        assert_eq!(full.num_edges(), 45);
        let a = erdos_renyi(20, 0.3, 7);
        let b = erdos_renyi(20, 0.3, 7);
        assert_eq!(a.edges(), b.edges());
        let c = erdos_renyi(20, 0.3, 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn barabasi_albert_sizes_and_hubs() {
        let g = barabasi_albert(50, 2, 3);
        assert_eq!(g.num_vertices(), 50);
        assert!(g.num_edges() >= 49); // at least a tree's worth of edges
        assert!(is_connected(&g));
        // Preferential attachment should create at least one hub.
        let max_deg = g.degrees().into_iter().max().unwrap();
        assert!(max_deg >= 5, "expected a hub, max degree {max_deg}");
        // Small n edge cases.
        assert_eq!(barabasi_albert(3, 5, 1).num_vertices(), 3);
        assert_eq!(barabasi_albert(1, 1, 1).num_vertices(), 1);
    }

    #[test]
    fn watts_strogatz_keeps_degree_mass() {
        let g = watts_strogatz(30, 4, 0.0, 5);
        // Without rewiring this is the ring lattice: 2-degree per half, so 30*2 edges.
        assert_eq!(g.num_edges(), 60);
        let h = watts_strogatz(30, 4, 0.5, 5);
        // Rewiring preserves the number of edges.
        assert_eq!(h.num_edges(), 60);
        assert_eq!(watts_strogatz(1, 2, 0.1, 1).num_edges(), 0);
    }

    #[test]
    fn sbm_has_denser_blocks() {
        let g = stochastic_block_model(&[20, 20], 0.8, 0.05, 11);
        let mut within = 0usize;
        let mut across = 0usize;
        for (u, v) in g.edges() {
            if (u < 20) == (v < 20) {
                within += 1;
            } else {
                across += 1;
            }
        }
        assert!(within > across, "within {within} across {across}");
    }

    #[test]
    fn random_regular_close_to_regular() {
        let g = random_regular(20, 3, 9);
        assert_eq!(g.num_vertices(), 20);
        let max_deg = g.degrees().into_iter().max().unwrap();
        assert!(max_deg <= 3);
        assert!(g.num_edges() > 20); // close to 30
        assert_eq!(random_regular(1, 3, 1).num_edges(), 0);
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..5 {
            let g = random_tree(12, seed);
            assert_eq!(g.num_edges(), 11);
            assert!(is_connected(&g));
        }
        assert_eq!(random_tree(2, 0).num_edges(), 1);
        assert_eq!(random_tree(1, 0).num_edges(), 0);
    }

    #[test]
    fn perturbations_preserve_or_change_edge_counts() {
        let g = cycle_graph(12);
        let rew = rewire_edges(&g, 3, 2);
        assert_eq!(rew.num_edges(), g.num_edges());
        let more = add_random_edges(&g, 4, 2);
        assert_eq!(more.num_edges(), g.num_edges() + 4);
        let fewer = remove_random_edges(&g, 4, 2);
        assert_eq!(fewer.num_edges(), g.num_edges() - 4);
        // Removing more edges than exist empties the graph without panicking.
        let none = remove_random_edges(&g, 100, 2);
        assert_eq!(none.num_edges(), 0);
    }
}
