//! κ-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! The hierarchical prototype construction of the paper (Eq. 13–16) is plain
//! κ-means over vertex representations, applied repeatedly: once over all
//! vertex representations to obtain the 1-level prototypes, then over the
//! `h-1`-level prototypes to obtain the `h`-level ones. The implementation is
//! deterministic given its seed so kernels and experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a κ-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids (the prototype representations).
    pub centroids: Vec<Vec<f64>>,
    /// Index of the centroid assigned to each input point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances (the objective of
    /// Eq. 13).
    pub inertia: f64,
    /// Number of Lloyd iterations that were executed.
    pub iterations: usize,
}

/// Configuration for a κ-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Requested number of clusters (capped at the number of points).
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the centroid movement (squared distance).
    pub tolerance: f64,
    /// RNG seed for the k-means++ initialisation.
    pub seed: u64,
}

impl KMeans {
    /// Creates a κ-means configuration with default iteration budget.
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iterations: 100,
            tolerance: 1e-9,
            seed,
        }
    }

    /// Runs κ-means on the given points. Returns centroids, assignments and
    /// the final inertia. If there are fewer points than clusters, the
    /// points themselves become the centroids.
    pub fn fit(&self, points: &[Vec<f64>]) -> KMeansResult {
        self.lloyd(points, update_centroids)
    }

    /// Lloyd's algorithm from the k-means++ seeding, with `update` as the
    /// update step (it moves the centroids and returns their summed squared
    /// movement).
    fn lloyd(&self, points: &[Vec<f64>], update: UpdateStep) -> KMeansResult {
        let n = points.len();
        if n == 0 {
            return KMeansResult {
                centroids: Vec::new(),
                assignments: Vec::new(),
                inertia: 0.0,
                iterations: 0,
            };
        }
        let dim = points[0].len();
        debug_assert!(points.iter().all(|p| p.len() == dim), "ragged point set");
        let k = self.k.max(1).min(n);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = self.init_plus_plus(points, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            if update(points, &assignments, &mut centroids) <= self.tolerance {
                break;
            }
        }

        // Final assignment and inertia.
        let mut inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (c, d2) = nearest(p, &centroids);
            assignments[i] = c;
            inertia += d2;
        }

        KMeansResult {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// k-means++ initialisation: the first centroid is uniform, every
    /// subsequent one is drawn with probability proportional to the squared
    /// distance to the nearest already-chosen centroid.
    fn init_plus_plus(&self, points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let n = points.len();
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..n)].clone());
        let mut d2 = vec![0.0_f64; n];
        while centroids.len() < k {
            let mut total = 0.0;
            for (i, p) in points.iter().enumerate() {
                d2[i] = haqjsk_linalg::vector::squared_distance(
                    p,
                    centroids.last().expect("non-empty"),
                )
                .min(if centroids.len() == 1 {
                    f64::INFINITY
                } else {
                    d2[i]
                });
                total += d2[i];
            }
            if total <= 0.0 {
                // All remaining points coincide with existing centroids.
                centroids.push(points[rng.gen_range(0..n)].clone());
                continue;
            }
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target <= w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            centroids.push(points[chosen].clone());
        }
        centroids
    }
}

/// A Lloyd update step over `(points, assignments, centroids)`: moves the
/// centroids and returns their summed squared movement.
type UpdateStep = fn(&[Vec<f64>], &[usize], &mut [Vec<f64>]) -> f64;

/// Lloyd's update step. Each cluster, in index order, moves to the mean of
/// its points; an empty cluster re-seeds at the point farthest from its own
/// cluster's centroid, with the clusters before it already moved, to keep
/// `k` clusters alive. The movements are summed in cluster order.
fn update_centroids(points: &[Vec<f64>], assignments: &[usize], centroids: &mut [Vec<f64>]) -> f64 {
    let k = centroids.len();
    let dim = points[0].len();
    let mut sums = vec![vec![0.0_f64; dim]; k];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.iter().zip(assignments) {
        counts[c] += 1;
        for (s, &x) in sums[c].iter_mut().zip(p.iter()) {
            *s += x;
        }
    }
    let means: Vec<Option<Vec<f64>>> = sums
        .iter()
        .zip(&counts)
        .map(|(sum, &count)| (count > 0).then(|| sum.iter().map(|&s| s / count as f64).collect()))
        .collect();
    let reseeds = if counts.contains(&0) {
        reseed_points(points, assignments, centroids, &means)
    } else {
        Vec::new()
    };
    let mut reseeds = reseeds.into_iter();
    let mut movement = 0.0_f64;
    for (centroid, mean) in centroids.iter_mut().zip(means) {
        let next = mean.unwrap_or_else(|| {
            points[reseeds.next().expect("one re-seed per empty cluster")].clone()
        });
        movement += haqjsk_linalg::vector::squared_distance(centroid, &next);
        *centroid = next;
    }
    movement
}

/// A point index with its squared distance to a centroid.
type Far = Option<(f64, usize)>;

/// The farther of two candidates; equal distances go to the larger point
/// index, as `Iterator::max_by` keeps the last maximum of a scan in point
/// order.
fn farther(a: Far, b: Far) -> Far {
    match (a, b) {
        (Some(x), Some(y)) => {
            let order = x.0.partial_cmp(&y.0).expect("finite distances");
            Some(if order.then(x.1.cmp(&y.1)).is_gt() {
                x
            } else {
                y
            })
        }
        (x, None) => x,
        (None, y) => y,
    }
}

/// The re-seed point of every empty cluster, in cluster order, in O(n + k).
/// Re-seeding cluster `c` scans for the point farthest from its own
/// cluster's centroid after clusters `0..c` moved: a point of cluster
/// `j < c` is measured to `j`'s new mean, any other point to its old
/// centroid (no point belongs to an empty cluster). So one pass records each
/// cluster's farthest point under both; a suffix sweep over the old-centroid
/// maxima and a prefix sweep over the new-mean maxima then give each empty
/// cluster the point that scan would pick.
fn reseed_points(
    points: &[Vec<f64>],
    assignments: &[usize],
    centroids: &[Vec<f64>],
    means: &[Option<Vec<f64>>],
) -> Vec<usize> {
    use haqjsk_linalg::vector::squared_distance;
    let k = centroids.len();
    let mut by_old: Vec<Far> = vec![None; k];
    let mut by_new: Vec<Far> = vec![None; k];
    for (i, (p, &c)) in points.iter().zip(assignments).enumerate() {
        let mean = means[c].as_deref().expect("an assigned cluster has a mean");
        by_old[c] = farther(by_old[c], Some((squared_distance(p, &centroids[c]), i)));
        by_new[c] = farther(by_new[c], Some((squared_distance(p, mean), i)));
    }
    // `after[c]`: the farthest point of clusters `c..k` under old centroids.
    let mut after: Vec<Far> = vec![None; k + 1];
    for c in (0..k).rev() {
        after[c] = farther(after[c + 1], by_old[c]);
    }
    let mut before: Far = None;
    let mut reseeds = Vec::new();
    for c in 0..k {
        if means[c].is_none() {
            let (_, far) = farther(before, after[c]).expect("non-empty point set");
            reseeds.push(far);
        }
        before = farther(before, by_new[c]);
    }
    reseeds
}

/// Index and squared distance of the nearest centroid to `point`.
pub fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d2 = haqjsk_linalg::vector::squared_distance(point, centroid);
        if d2 < best_d2 {
            best_d2 = d2;
            best = c;
        }
    }
    (best, best_d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            points.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        points
    }

    #[test]
    fn separates_two_well_separated_blobs() {
        let result = KMeans::new(2, 1).fit(&two_blobs());
        assert_eq!(result.centroids.len(), 2);
        // Points 2i and 2i+1 belong to different blobs, so their assignments
        // must differ and be internally consistent.
        let first = result.assignments[0];
        let second = result.assignments[1];
        assert_ne!(first, second);
        for i in 0..10 {
            assert_eq!(result.assignments[2 * i], first);
            assert_eq!(result.assignments[2 * i + 1], second);
        }
        assert!(result.inertia < 1.0);
        // One centroid near (0,0), one near (10,10).
        let mut xs: Vec<f64> = result.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 1.0 && xs[1] > 9.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let points = two_blobs();
        let a = KMeans::new(3, 7).fit(&points);
        let b = KMeans::new(3, 7).fit(&points);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn more_clusters_than_points_caps_k() {
        let points = vec![vec![1.0], vec![2.0], vec![3.0]];
        let result = KMeans::new(10, 0).fit(&points);
        assert_eq!(result.centroids.len(), 3);
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn empty_input_and_single_cluster() {
        let empty: Vec<Vec<f64>> = Vec::new();
        let r = KMeans::new(4, 0).fit(&empty);
        assert!(r.centroids.is_empty());
        assert!(r.assignments.is_empty());

        let points = vec![vec![1.0, 1.0], vec![3.0, 3.0]];
        let r1 = KMeans::new(1, 0).fit(&points);
        assert_eq!(r1.centroids.len(), 1);
        assert_eq!(r1.centroids[0], vec![2.0, 2.0]);
    }

    #[test]
    fn identical_points_do_not_break_initialisation() {
        let points = vec![vec![5.0, 5.0]; 8];
        let r = KMeans::new(3, 11).fit(&points);
        assert_eq!(r.centroids.len(), 3);
        assert!(r.inertia < 1e-12);
        assert!(r.assignments.iter().all(|&a| a < 3));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let points: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let k2 = KMeans::new(2, 3).fit(&points).inertia;
        let k8 = KMeans::new(8, 3).fit(&points).inertia;
        assert!(k8 < k2);
    }

    /// The update step as a plain serial scan: each empty cluster re-seeds
    /// by scanning every point against its cluster's current centroid.
    /// The reference for `update_centroids`.
    fn update_by_scan(
        points: &[Vec<f64>],
        assignments: &[usize],
        centroids: &mut [Vec<f64>],
    ) -> f64 {
        let (k, dim) = (centroids.len(), points[0].len());
        let mut sums = vec![vec![0.0_f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(p.iter()) {
                *s += x;
            }
        }
        let mut movement = 0.0_f64;
        for c in 0..k {
            if counts[c] == 0 {
                let (far_idx, _) = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        (
                            i,
                            haqjsk_linalg::vector::squared_distance(p, &centroids[assignments[i]]),
                        )
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("non-empty point set");
                movement +=
                    haqjsk_linalg::vector::squared_distance(&centroids[c], &points[far_idx]);
                centroids[c] = points[far_idx].clone();
                continue;
            }
            let new_centroid: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
            movement += haqjsk_linalg::vector::squared_distance(&centroids[c], &new_centroid);
            centroids[c] = new_centroid;
        }
        movement
    }

    fn bits(result: &KMeansResult) -> (Vec<Vec<u64>>, Vec<usize>, usize, u64) {
        let centroids = result
            .centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (
            centroids,
            result.assignments.clone(),
            result.iterations,
            result.inertia.to_bits(),
        )
    }

    /// Point sets with ties and many empty clusters (few distinct values
    /// against many more clusters), plus jittered and random sets that take
    /// several iterations.
    fn tied_point_sets() -> Vec<(Vec<Vec<f64>>, usize)> {
        let on_values = |n: usize, values: usize, dim: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| {
                    (0..dim)
                        .map(|d| ((i * (d + 3) + d) % values) as f64 * 0.5)
                        .collect()
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut random = |n: usize, dim: usize, grid: Option<usize>| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| match grid {
                            Some(values) => {
                                rng.gen_range(0..values) as f64 + 0.05 * rng.gen::<f64>()
                            }
                            None => rng.gen::<f64>(),
                        })
                        .collect()
                })
                .collect()
        };
        vec![
            (random(200, 1, Some(5)), 64),
            (on_values(200, 5, 1), 64),
            (on_values(200, 5, 2), 64),
            (on_values(120, 3, 3), 40),
            (random(150, 2, Some(6)), 48),
            (random(60, 2, None), 40),
            (random(80, 1, None), 60),
            (random(100, 3, Some(3)), 30),
            (two_blobs(), 12),
        ]
    }

    #[test]
    fn empty_cluster_reseed_matches_the_serial_scan_bit_for_bit() {
        for (points, k) in tied_point_sets() {
            for seed in 0..6 {
                let kmeans = KMeans {
                    k,
                    max_iterations: 30,
                    tolerance: 1e-9,
                    seed,
                };
                let fast = kmeans.fit(&points);
                let scan = kmeans.lloyd(&points, update_by_scan);
                assert_eq!(bits(&fast), bits(&scan), "k = {k}, seed = {seed}");
            }
        }
    }

    #[test]
    fn one_update_step_matches_the_serial_scan_with_every_cluster_empty_but_one() {
        // Every point in one cluster, at equal distances: the ties decide
        // each re-seed, and all other clusters are empty.
        let points: Vec<Vec<f64>> = (0..9).map(|i| vec![(i % 3) as f64]).collect();
        let assignments = vec![4usize; 9];
        // Cluster 4's old centroid and new mean disagree on the farthest
        // point, so clusters before it and after it re-seed differently.
        let mut start: Vec<Vec<f64>> = (0..8).map(|c| vec![c as f64 - 3.0]).collect();
        start[4] = vec![1.9];
        let (mut fast, mut scan) = (start.clone(), start);
        let moved = update_centroids(&points, &assignments, &mut fast);
        let moved_scan = update_by_scan(&points, &assignments, &mut scan);
        assert_eq!(moved.to_bits(), moved_scan.to_bits());
        assert_eq!(fast, scan);
        assert_ne!(fast[0], fast[7]);
    }

    #[test]
    fn update_steps_match_the_serial_scan_on_random_states() {
        // Arbitrary centroids (not the means of their points) and
        // assignments confined to a few clusters, on a coarse grid so
        // distances tie.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let (n, k, dim) = (
                rng.gen_range(1..40usize),
                rng.gen_range(2..24usize),
                rng.gen_range(1..3usize),
            );
            let grid = |rng: &mut StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.gen_range(0..4) as f64 * 0.5).collect()
            };
            let points: Vec<Vec<f64>> = (0..n).map(|_| grid(&mut rng)).collect();
            let live: Vec<usize> = (0..rng.gen_range(1..=k.min(4)))
                .map(|_| rng.gen_range(0..k))
                .collect();
            let assignments: Vec<usize> =
                (0..n).map(|_| live[rng.gen_range(0..live.len())]).collect();
            let start: Vec<Vec<f64>> = (0..k).map(|_| grid(&mut rng)).collect();
            let (mut fast, mut scan) = (start.clone(), start);
            let moved = update_centroids(&points, &assignments, &mut fast);
            let moved_scan = update_by_scan(&points, &assignments, &mut scan);
            assert_eq!(moved.to_bits(), moved_scan.to_bits());
            assert_eq!(fast, scan);
        }
    }

    #[test]
    fn nearest_helper() {
        let centroids = vec![vec![0.0, 0.0], vec![10.0, 0.0]];
        let (idx, d2) = nearest(&[9.0, 0.0], &centroids);
        assert_eq!(idx, 1);
        assert!((d2 - 1.0).abs() < 1e-12);
    }
}
