//! Linear assignment via the Hungarian (Kuhn–Munkres) algorithm.
//!
//! The aligned QJSK baseline (Eq. 11 of the paper) follows Umeyama's spectral
//! matching: the vertex-correspondence matrix `Q` is the permutation that
//! maximises the overlap `|Φ_p||Φ_q|ᵀ` of eigenvector magnitudes. Extracting
//! that permutation from the overlap matrix is a linear assignment problem,
//! solved here with the O(n³) Jonker-style shortest augmenting path variant of
//! the Hungarian algorithm.

/// Solves the minimum-cost assignment problem for a square cost matrix given
/// in row-major order (`cost[i * n + j]` is the cost of assigning row `i` to
/// column `j`).
///
/// Returns `assignment` where `assignment[i] = j` means row `i` is matched to
/// column `j`, together with the total cost of the optimal assignment.
///
/// For rectangular problems, pad the cost matrix with a large constant before
/// calling (the callers in this workspace always pad to square).
pub fn hungarian(cost: &[f64], n: usize) -> (Vec<usize>, f64) {
    assert_eq!(cost.len(), n * n, "cost matrix must be n*n");
    if n == 0 {
        return (vec![], 0.0);
    }

    // Shortest augmenting path formulation (1-indexed internally, as in the
    // classical presentation) — O(n^3).
    const INF: f64 = f64::INFINITY;
    let mut u = vec![0.0_f64; n + 1];
    let mut v = vec![0.0_f64; n + 1];
    // p[j] = row assigned to column j (0 = none).
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total: f64 = assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i * n + j])
        .sum();
    (assignment, total)
}

/// Solves the **maximum**-profit assignment problem by negating the profit
/// matrix and running [`hungarian`]. Returns the assignment and the total
/// profit.
pub fn hungarian_max(profit: &[f64], n: usize) -> (Vec<usize>, f64) {
    let neg: Vec<f64> = profit.iter().map(|&x| -x).collect();
    let (assignment, neg_total) = hungarian(&neg, n);
    (assignment, -neg_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all permutations; only usable for tiny n.
    fn brute_force_min(cost: &[f64], n: usize) -> f64 {
        fn permute(
            remaining: &mut Vec<usize>,
            chosen: &mut Vec<usize>,
            best: &mut f64,
            cost: &[f64],
            n: usize,
        ) {
            if remaining.is_empty() {
                let total: f64 = chosen
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| cost[i * n + j])
                    .sum();
                if total < *best {
                    *best = total;
                }
                return;
            }
            for idx in 0..remaining.len() {
                let j = remaining.remove(idx);
                chosen.push(j);
                permute(remaining, chosen, best, cost, n);
                chosen.pop();
                remaining.insert(idx, j);
            }
        }
        let mut best = f64::INFINITY;
        let mut remaining: Vec<usize> = (0..n).collect();
        permute(&mut remaining, &mut Vec::new(), &mut best, cost, n);
        best
    }

    #[test]
    fn trivial_cases() {
        let (a, c) = hungarian(&[], 0);
        assert!(a.is_empty());
        assert_eq!(c, 0.0);
        let (a, c) = hungarian(&[5.0], 1);
        assert_eq!(a, vec![0]);
        assert_eq!(c, 5.0);
    }

    #[test]
    fn known_three_by_three() {
        // Classic example: optimal cost is 5 (0->1, 1->0, 2->2 style).
        let cost = vec![
            4.0, 1.0, 3.0, //
            2.0, 0.0, 5.0, //
            3.0, 2.0, 2.0, //
        ];
        let (assignment, total) = hungarian(&cost, 3);
        assert_eq!(total, 5.0);
        // Assignment must be a permutation.
        let mut seen = [false; 3];
        for &j in &assignment {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn identity_cost_prefers_diagonal() {
        // Cost 0 on the diagonal and 1 elsewhere: optimal = diagonal.
        let n = 5;
        let mut cost = vec![1.0; n * n];
        for i in 0..n {
            cost[i * n + i] = 0.0;
        }
        let (assignment, total) = hungarian(&cost, n);
        assert_eq!(total, 0.0);
        for (i, &j) in assignment.iter().enumerate() {
            assert_eq!(i, j);
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state: u64 = 7;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for n in 2..=5 {
            for _ in 0..5 {
                let cost: Vec<f64> = (0..n * n).map(|_| next() * 10.0).collect();
                let (_, total) = hungarian(&cost, n);
                let best = brute_force_min(&cost, n);
                assert!((total - best).abs() < 1e-9, "n={n}: {total} vs {best}");
            }
        }
    }

    #[test]
    fn max_variant_maximises() {
        let profit = vec![
            1.0, 9.0, //
            9.0, 1.0, //
        ];
        let (assignment, total) = hungarian_max(&profit, 2);
        assert_eq!(total, 18.0);
        assert_eq!(assignment, vec![1, 0]);
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![
            -5.0, 2.0, //
            3.0, -4.0, //
        ];
        let (assignment, total) = hungarian(&cost, 2);
        assert_eq!(assignment, vec![0, 1]);
        assert_eq!(total, -9.0);
    }
}
