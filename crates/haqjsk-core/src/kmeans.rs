//! κ-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! The hierarchical prototype construction of the paper (Eq. 13–16) is plain
//! κ-means over vertex representations, applied repeatedly: once over all
//! vertex representations to obtain the 1-level prototypes, then over the
//! `h-1`-level prototypes to obtain the `h`-level ones. The implementation is
//! deterministic given its seed so kernels and experiments are reproducible.
//!
//! A point set is one contiguous row-major `n x dim` buffer, and so are the
//! centroids. A point's nearest centroid and its distance to a centroid
//! depend on its coordinates alone, so the seeding and the assignment step
//! measure each distinct point (equal bits) once; the seeding's weight walk
//! and the update's sums still run over every point in point order, so the
//! centroids are bit for bit those of the per-point loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Result of a κ-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids (the prototype representations), as one row-major
    /// `k x dim` buffer.
    pub centroids: Vec<f64>,
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
    /// Runs κ-means on the `points.len() / dim` points of the row-major
    /// buffer `points`. With fewer points than clusters, `k` is capped at
    /// the number of points.
    pub fn fit(&self, points: &[f64], dim: usize) -> KMeansResult {
        assert!(
            dim > 0 && points.len().is_multiple_of(dim),
            "a point buffer holds whole rows of a positive dimension"
        );
        let n = points.len() / dim;
        if n == 0 {
            return KMeansResult {
                centroids: Vec::new(),
                iterations: 0,
            };
        }
        let k = self.k.max(1).min(n);
        let distinct = Distinct::new(points, dim);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = init_plus_plus(points, dim, &distinct, k, &mut rng);
        let mut nearest = Nearest {
            centroid: vec![0; distinct.first.len()],
            d2: vec![f64::INFINITY; distinct.first.len()],
        };
        // Every centroid counts as moved before the first assignment, so
        // it scans them all.
        let mut moved = vec![true; k];
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            nearest.update(points, &distinct, &centroids, dim, &moved);
            for (assignment, &d) in assignments.iter_mut().zip(&distinct.of_point) {
                *assignment = nearest.centroid[d];
            }
            let movement = update_centroids(points, dim, &assignments, &mut centroids, &mut moved);
            if movement <= self.tolerance {
                break;
            }
        }
        KMeansResult {
            centroids,
            iterations,
        }
    }
}

/// Row `i` of a row-major buffer of `dim`-dimensional points.
fn row(points: &[f64], dim: usize, i: usize) -> &[f64] {
    &points[i * dim..(i + 1) * dim]
}

/// The squared Euclidean distance, summed over dimensions in order from 0.
#[inline]
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// The distinct points of a point set (equal bits in every coordinate).
struct Distinct {
    /// One point of each distinct point, by index into the point set.
    first: Vec<usize>,
    /// The distinct point (index into `first`) of every point.
    of_point: Vec<usize>,
}

impl Distinct {
    fn new(points: &[f64], dim: usize) -> Self {
        let n = points.len() / dim;
        // `total_cmp` orders by bits, so equal rows are exactly the
        // bitwise-equal ones, and they sort next to each other.
        let compare = |&a: &usize, &b: &usize| {
            let (a, b) = (row(points, dim, a), row(points, dim, b));
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|order| order.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let mut first: Vec<usize> = (0..n).collect();
        first.sort_unstable_by(compare);
        let mut of_point = vec![0usize; n];
        // Keep the first of each run of equal rows, in place.
        let mut runs = 0;
        for at in 0..n {
            let i = first[at];
            if runs == 0 || compare(&first[runs - 1], &i).is_ne() {
                first[runs] = i;
                runs += 1;
            }
            of_point[i] = runs - 1;
        }
        first.truncate(runs);
        Distinct { first, of_point }
    }

    /// The distinct points, in `first` order.
    fn rows<'a>(&'a self, points: &'a [f64], dim: usize) -> impl Iterator<Item = &'a [f64]> {
        self.first.iter().map(move |&i| row(points, dim, i))
    }
}

/// Each distinct point's nearest centroid, kept across Lloyd iterations.
/// A point whose nearest centroid did not move can only be taken by a
/// centroid that moved, so only the points whose nearest centroid moved
/// scan every centroid; the rest scan the moved ones.
struct Nearest {
    /// The index of each distinct point's nearest centroid.
    centroid: Vec<usize>,
    /// Its squared distance.
    d2: Vec<f64>,
}

impl Nearest {
    /// Re-assigns every distinct point after the centroids flagged in
    /// `moved` changed. The result is the full scan's: the nearest
    /// centroid, the first of equally near ones.
    fn update(
        &mut self,
        points: &[f64],
        distinct: &Distinct,
        centroids: &[f64],
        dim: usize,
        moved: &[bool],
    ) {
        let movers: Vec<usize> = (0..moved.len()).filter(|&c| moved[c]).collect();
        let best = self.centroid.iter_mut().zip(self.d2.iter_mut());
        for (p, (index, best_d2)) in distinct.rows(points, dim).zip(best) {
            if moved[*index] {
                (*index, *best_d2) = nearest(p, centroids.chunks_exact(dim));
                continue;
            }
            for &c in &movers {
                let d2 = squared_distance(p, row(centroids, dim, c));
                if d2 < *best_d2 || (d2 == *best_d2 && c < *index) {
                    (*index, *best_d2) = (c, d2);
                }
            }
        }
    }
}

/// k-means++ initialisation: the first centroid is uniform, every
/// subsequent one is drawn with probability proportional to the squared
/// distance to the nearest already-chosen centroid. The weights are kept
/// per distinct point, and the total and the draw walk every point in
/// point order.
fn init_plus_plus(
    points: &[f64],
    dim: usize,
    distinct: &Distinct,
    k: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let n = distinct.of_point.len();
    let mut centroids = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(row(points, dim, rng.gen_range(0..n)));
    let mut d2 = vec![f64::INFINITY; distinct.first.len()];
    for _ in 1..k {
        let last = &centroids[centroids.len() - dim..];
        for (d, p) in d2.iter_mut().zip(distinct.rows(points, dim)) {
            *d = squared_distance(p, last).min(*d);
        }
        let mut total = 0.0;
        for &d in &distinct.of_point {
            total += d2[d];
        }
        let chosen = if total <= 0.0 {
            // All remaining points coincide with existing centroids.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in distinct.of_point.iter().enumerate() {
                if target <= d2[d] {
                    chosen = i;
                    break;
                }
                target -= d2[d];
            }
            chosen
        };
        centroids.extend_from_slice(row(points, dim, chosen));
    }
    centroids
}

/// Lloyd's update step. Each cluster, in index order, moves to the mean of
/// its points (summed in point order); an empty cluster re-seeds at the
/// point farthest from its own cluster's centroid, with the clusters before
/// it already moved, to keep `k` clusters alive. Returns the movements,
/// summed in cluster order.
fn update_centroids(
    points: &[f64],
    dim: usize,
    assignments: &[usize],
    centroids: &mut [f64],
    moved: &mut [bool],
) -> f64 {
    let k = centroids.len() / dim;
    let mut means = vec![0.0_f64; k * dim];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.chunks_exact(dim).zip(assignments) {
        counts[c] += 1;
        for (s, &x) in means[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
    for (mean, &count) in means.chunks_exact_mut(dim).zip(&counts) {
        if count > 0 {
            for s in mean {
                *s /= count as f64;
            }
        }
    }
    let mut reseeds = if counts.contains(&0) {
        reseed_points(points, dim, assignments, centroids, &means, &counts)
    } else {
        Vec::new()
    }
    .into_iter();
    let mut movement = 0.0_f64;
    let moves = centroids.chunks_exact_mut(dim).zip(means.chunks_exact(dim));
    for (((centroid, mean), &count), moved) in moves.zip(&counts).zip(moved) {
        let next = if count > 0 {
            mean
        } else {
            let far = reseeds.next().expect("one re-seed per empty cluster");
            row(points, dim, far)
        };
        movement += squared_distance(centroid, next);
        *moved = centroid
            .iter()
            .zip(next)
            .any(|(x, y)| x.to_bits() != y.to_bits());
        centroid.copy_from_slice(next);
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
    points: &[f64],
    dim: usize,
    assignments: &[usize],
    centroids: &[f64],
    means: &[f64],
    counts: &[usize],
) -> Vec<usize> {
    let k = counts.len();
    let mut by_old: Vec<Far> = vec![None; k];
    let mut by_new: Vec<Far> = vec![None; k];
    for (i, (p, &c)) in points.chunks_exact(dim).zip(assignments).enumerate() {
        let old = squared_distance(p, row(centroids, dim, c));
        by_old[c] = farther(by_old[c], Some((old, i)));
        by_new[c] = farther(
            by_new[c],
            Some((squared_distance(p, row(means, dim, c)), i)),
        );
    }
    // `after[c]`: the farthest point of clusters `c..k` under old centroids.
    let mut after: Vec<Far> = vec![None; k + 1];
    for c in (0..k).rev() {
        after[c] = farther(after[c + 1], by_old[c]);
    }
    let mut before: Far = None;
    let mut reseeds = Vec::new();
    for c in 0..k {
        if counts[c] == 0 {
            let (_, far) = farther(before, after[c]).expect("non-empty point set");
            reseeds.push(far);
        }
        before = farther(before, by_new[c]);
    }
    reseeds
}

/// Index and squared distance of the nearest of `centroids` to `point`;
/// the first of equally near centroids wins.
pub fn nearest<'a>(point: &[f64], centroids: impl IntoIterator<Item = &'a [f64]>) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (c, centroid) in centroids.into_iter().enumerate() {
        let d2 = squared_distance(point, centroid);
        if d2 < best_d2 {
            best_d2 = d2;
            best = c;
        }
    }
    (best, best_d2)
}

/// The per-point Lloyd loop over one `Vec` per point, with the update step
/// as a plain serial scan: the reference [`KMeans::fit`] must match bit for
/// bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::KMeans;
    use haqjsk_linalg::vector::squared_distance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The centroids and iteration count of `kmeans` on `points`.
    pub(crate) fn fit(kmeans: &KMeans, points: &[Vec<f64>]) -> (Vec<Vec<f64>>, usize) {
        let n = points.len();
        if n == 0 {
            return (Vec::new(), 0);
        }
        let k = kmeans.k.max(1).min(n);
        let mut rng = StdRng::seed_from_u64(kmeans.seed);
        let mut centroids = init_plus_plus(points, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..kmeans.max_iterations {
            iterations = iter + 1;
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids);
            }
            if update_by_scan(points, &assignments, &mut centroids) <= kmeans.tolerance {
                break;
            }
        }
        (centroids, iterations)
    }

    fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> usize {
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d2 = squared_distance(point, centroid);
            if d2 < best_d2 {
                best_d2 = d2;
                best = c;
            }
        }
        best
    }

    fn init_plus_plus(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let n = points.len();
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..n)].clone());
        let mut d2 = vec![0.0_f64; n];
        while centroids.len() < k {
            let mut total = 0.0;
            for (i, p) in points.iter().enumerate() {
                d2[i] = squared_distance(p, centroids.last().expect("non-empty")).min(
                    if centroids.len() == 1 {
                        f64::INFINITY
                    } else {
                        d2[i]
                    },
                );
                total += d2[i];
            }
            if total <= 0.0 {
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

    /// The update step as a plain serial scan: each empty cluster re-seeds
    /// by scanning every point against its cluster's current centroid.
    pub(crate) fn update_by_scan(
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
                    .map(|(i, p)| (i, squared_distance(p, &centroids[assignments[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("non-empty point set");
                movement += squared_distance(&centroids[c], &points[far_idx]);
                centroids[c] = points[far_idx].clone();
                continue;
            }
            let new_centroid: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
            movement += squared_distance(&centroids[c], &new_centroid);
            centroids[c] = new_centroid;
        }
        movement
    }
}

#[cfg(test)]
mod tests {
    use super::reference::update_by_scan;
    use super::*;
    use proptest::prelude::*;

    fn kmeans(k: usize, seed: u64) -> KMeans {
        KMeans {
            k,
            max_iterations: 100,
            tolerance: 1e-9,
            seed,
        }
    }

    fn flat(points: &[Vec<f64>]) -> Vec<f64> {
        points.concat()
    }

    fn rows(buffer: &[f64], dim: usize) -> Vec<Vec<f64>> {
        buffer.chunks_exact(dim).map(<[f64]>::to_vec).collect()
    }

    /// The within-cluster sum of squared distances (the objective of
    /// Eq. 13) of `points` against `centroids`.
    fn inertia(points: &[f64], centroids: &[f64], dim: usize) -> f64 {
        points
            .chunks_exact(dim)
            .map(|p| nearest(p, centroids.chunks_exact(dim)).1)
            .sum()
    }

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
        let points = flat(&two_blobs());
        let result = kmeans(2, 1).fit(&points, 2);
        assert_eq!(result.centroids.len(), 2 * 2);
        assert!(inertia(&points, &result.centroids, 2) < 1.0);
        // One centroid near (0,0), one near (10,10).
        let mut xs: Vec<f64> = result.centroids.chunks_exact(2).map(|c| c[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(xs[0] < 1.0 && xs[1] > 9.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let points = flat(&two_blobs());
        let a = kmeans(3, 7).fit(&points, 2);
        let b = kmeans(3, 7).fit(&points, 2);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn more_clusters_than_points_caps_k() {
        let result = kmeans(10, 0).fit(&[1.0, 2.0, 3.0], 1);
        assert_eq!(result.centroids.len(), 3);
        assert!(inertia(&[1.0, 2.0, 3.0], &result.centroids, 1) < 1e-12);
    }

    #[test]
    fn empty_input_and_single_cluster() {
        let r = kmeans(4, 0).fit(&[], 3);
        assert!(r.centroids.is_empty());
        assert_eq!(r.iterations, 0);

        let r1 = kmeans(1, 0).fit(&[1.0, 1.0, 3.0, 3.0], 2);
        assert_eq!(r1.centroids, vec![2.0, 2.0]);
    }

    #[test]
    fn identical_points_do_not_break_initialisation() {
        let points = vec![5.0; 8 * 2];
        let r = kmeans(3, 11).fit(&points, 2);
        assert_eq!(r.centroids.len(), 3 * 2);
        assert!(inertia(&points, &r.centroids, 2) < 1e-12);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let points: Vec<f64> = (0..30).flat_map(|i| [i as f64, (i % 7) as f64]).collect();
        let k2 = inertia(&points, &kmeans(2, 3).fit(&points, 2).centroids, 2);
        let k8 = inertia(&points, &kmeans(8, 3).fit(&points, 2).centroids, 2);
        assert!(k8 < k2);
    }

    #[test]
    fn distinct_points_group_equal_bits_only() {
        let points = [1.0, 0.0, 2.0, 1.0, 0.0, -0.0, 2.0];
        let distinct = Distinct::new(&points, 1);
        assert_eq!(distinct.first.len(), 4);
        let of = &distinct.of_point;
        assert_eq!((of[0], of[2]), (of[3], of[6]));
        // 0.0 and -0.0 compare equal but differ in bits.
        assert_ne!(of[1], of[5]);
        for (i, &d) in of.iter().enumerate() {
            assert_eq!(points[distinct.first[d]].to_bits(), points[i].to_bits());
        }
    }

    /// Bit-level view of reference centroids and an iteration count.
    fn bits(centroids: &[Vec<f64>], iterations: usize) -> (Vec<Vec<u64>>, usize) {
        let centroids = centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (centroids, iterations)
    }

    /// The flat fit against the per-point reference, bit for bit.
    fn assert_matches_reference(points: &[Vec<f64>], kmeans: &KMeans) {
        let dim = points[0].len();
        let fast = kmeans.fit(&flat(points), dim);
        let (centroids, iterations) = reference::fit(kmeans, points);
        assert_eq!(
            bits(&rows(&fast.centroids, dim), fast.iterations),
            bits(&centroids, iterations),
            "k = {}, seed = {}, n = {}, dim = {dim}",
            kmeans.k,
            kmeans.seed,
            points.len()
        );
    }

    /// An adversarial point set with a κ-means configuration. Coordinates
    /// sit on a grid of at most six levels (many duplicates, exact distance
    /// ties, many empty clusters once `k` reaches the distinct count), shift
    /// off it by dyadic steps (ties stay exact), or are uniform floats;
    /// `n` may be below `k`, and the dimension runs 1–6.
    fn adversarial() -> impl Strategy<Value = (Vec<Vec<f64>>, KMeans)> {
        (1usize..=6, 1usize..=90, 1usize..=6, 0usize..4)
            .prop_flat_map(|(dim, n, levels, mode)| {
                (
                    proptest::strategy::Just((dim, levels, mode)),
                    proptest::collection::vec((0usize..levels, 0usize..4, 0.0f64..1.0), n * dim),
                    1usize..=48,
                    0u64..1_000,
                    1usize..=30,
                )
            })
            .prop_map(|((dim, levels, mode), raw, k, seed, max_iterations)| {
                let coordinate = |(level, step, uniform): (usize, usize, f64)| match mode {
                    0 | 1 => level as f64 * 0.5,
                    2 => level as f64 * 0.5 + step as f64 * 0.125 / levels as f64,
                    _ => uniform,
                };
                let flat: Vec<f64> = raw.into_iter().map(coordinate).collect();
                let kmeans = KMeans {
                    k,
                    max_iterations,
                    tolerance: 1e-9,
                    seed,
                };
                (rows(&flat, dim), kmeans)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Seeding, assignment by distinct point, the flat update and its
        /// re-seeds give the reference loop's centroids and iteration
        /// count, bit for bit.
        #[test]
        fn fit_matches_the_per_point_reference_bit_for_bit(case in adversarial()) {
            let (points, kmeans) = case;
            let dim = points[0].len();
            let fast = kmeans.fit(&flat(&points), dim);
            let (centroids, iterations) = reference::fit(&kmeans, &points);
            prop_assert_eq!(
                bits(&rows(&fast.centroids, dim), fast.iterations),
                bits(&centroids, iterations)
            );
        }
    }

    #[test]
    fn fixed_adversarial_sets_match_the_reference() {
        // Few distinct values against many more clusters: every update
        // re-seeds; k above the distinct count; n below k.
        let on_values = |n: usize, values: usize, dim: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| {
                    (0..dim)
                        .map(|d| ((i * (d + 3) + d) % values) as f64 * 0.5)
                        .collect()
                })
                .collect()
        };
        for (points, k) in [
            (on_values(200, 5, 1), 64),
            (on_values(200, 5, 2), 64),
            (on_values(120, 3, 3), 40),
            (on_values(7, 7, 6), 12),
            (vec![vec![0.0, -0.0]; 30], 5),
            (two_blobs(), 12),
        ] {
            for seed in 0..6 {
                let kmeans = KMeans {
                    k,
                    max_iterations: 30,
                    tolerance: 1e-9,
                    seed,
                };
                assert_matches_reference(&points, &kmeans);
            }
        }
    }

    /// One flat update step against the reference scan.
    fn assert_update_matches_scan(points: &[Vec<f64>], assignments: &[usize], start: &[Vec<f64>]) {
        let dim = points[0].len();
        let mut fast = flat(start);
        let mut scan = start.to_vec();
        let mut flags = vec![false; start.len()];
        let moved = update_centroids(&flat(points), dim, assignments, &mut fast, &mut flags);
        let moved_scan = update_by_scan(points, assignments, &mut scan);
        assert_eq!(moved.to_bits(), moved_scan.to_bits());
        assert_eq!(rows(&fast, dim), scan);
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
        assert_update_matches_scan(&points, &assignments, &start);
        let mut moved = flat(&start);
        update_centroids(&flat(&points), 1, &assignments, &mut moved, &mut [false; 8]);
        assert_ne!(moved[0], moved[7]);
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
            assert_update_matches_scan(&points, &assignments, &start);
        }
    }

    #[test]
    fn nearest_helper() {
        let centroids = [0.0, 0.0, 10.0, 0.0];
        let (idx, d2) = nearest(&[9.0, 0.0], centroids.chunks_exact(2));
        assert_eq!(idx, 1);
        assert!((d2 - 1.0).abs() < 1e-12);
        // The first of two equally near centroids wins.
        assert_eq!(nearest(&[5.0, 0.0], centroids.chunks_exact(2)).0, 0);
    }
}
