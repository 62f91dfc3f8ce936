//! Batched, structure-of-arrays values-only symmetric eigensolver.
//!
//! The quantum-kernel Gram loops reduce every pair to **one** values-only
//! eigenvalue solve of a mixture matrix (see [`crate::eigen`]). Executing
//! those solves one at a time leaves all data-level parallelism on the
//! table: each solve walks its own row-major matrix through `tred2`/`tqli`
//! with strictly sequential dependencies. This module runs **K solves at
//! once** instead:
//!
//! * the K same-dimension matrices are transposed into a
//!   **structure-of-arrays** (SoA) layout — element `(i, j)` of all K
//!   matrices sits contiguously — so every inner loop of the Householder
//!   reduction becomes a loop over lanes that maps directly onto vector
//!   registers. Both phases run in the one set of generic lane kernels of
//!   [`crate::simd`], instantiated per dispatch path (AVX-512F / AVX2 /
//!   NEON vectors, or portable `f64` arrays on the always-compiled scalar
//!   path; picked at runtime and overridable via `HAQJSK_SIMD`); this
//!   module owns the SoA layout, the chunking and the counters,
//! * the Householder reduction and the implicit-QL sweep run
//!   **lane-parallel**: all lanes advance through the same loop structure,
//!   but every data-dependent decision (the zero-scale skip, the QL split
//!   point, the shift sequence, per-eigenvalue iteration counts) is taken
//!   **per lane**, never fused across the batch,
//! * mixed-dimension batches are chunked by dimension class (each chunk
//!   holds up to [`MAX_BATCH_LANES`] matrices of one size), and straggler
//!   chunks of a single matrix fall back to the scalar
//!   [`EigenWorkspace`] path.
//!
//! Because each lane executes exactly the scalar driver's arithmetic — same
//! operations, same order, same `f64` semantics (no fast-math, no fusion) —
//! the per-matrix eigenvalues are **bit-identical** to
//! [`symmetric_eigenvalues`](crate::symmetric_eigenvalues); the property
//! tests assert this across mixed batch shapes. Both phases vectorize
//! across lanes. At the kernel's small dimensions the `O(n²)` QL sweep,
//! not the `O(n³)` Householder phase, is the larger cost: each rotation
//! step is a chain of divides and square roots, and each pass starts with
//! a split search and a shift. So the sweep takes those decisions with
//! lane masks, and a full chunk runs as one block of two vectors per step
//! (see `docs/perf.md`, "SIMD dispatch", for the per-matrix figures).
//!
//! This is the CPU half of the roadmap's batched-eigendecomposition
//! backend: a GPU backend replaces the lane kernels with device kernels
//! behind the same batch entry point.

use crate::eigen::{check_symmetric, sort_ascending, EigenWorkspace, WORKSPACE_DIM_LIMIT};
use crate::matrix::Matrix;
use crate::simd::{self, SimdPath};
use crate::Result;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard cap on matrices solved by one SoA kernel invocation (sizes the
/// per-lane arrays of the [`crate::simd`] kernels). The *effective* chunk width is per dispatch
/// path — [`max_batch_lanes`](crate::simd::max_batch_lanes): 16 under
/// AVX-512F (two ZMM registers per SoA element row), 8 for AVX2 / NEON /
/// scalar (the pre-SIMD width, which keeps the SoA working set of
/// graph-sized matrices inside L2).
pub const MAX_BATCH_LANES: usize = 16;

/// Batched solves are counted process-wide so benchmarks and serving stats
/// can report how much of the eigen work actually runs batched.
static BATCHED_CALLS: AtomicU64 = AtomicU64::new(0);
static BATCHED_MATRICES: AtomicU64 = AtomicU64::new(0);
static SCALAR_FALLBACKS: AtomicU64 = AtomicU64::new(0);
/// SoA kernel invocations by dispatched SIMD path, indexed by
/// [`SimdPath::index`] (scalar, avx2, avx512, neon).
static PATH_CALLS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Cumulative counters of the batched eigensolver (process-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSolveStats {
    /// SoA kernel invocations (one per same-dimension chunk of ≥ 2).
    pub batched_calls: u64,
    /// Matrices solved through the SoA kernel.
    pub batched_matrices: u64,
    /// Matrices solved through the scalar straggler fallback.
    pub scalar_fallbacks: u64,
    /// SoA kernel invocations that executed the Householder/QL phases,
    /// split by the SIMD path they dispatched to. Indexed like
    /// [`SimdPath::ALL`] (scalar, avx2, avx512, neon); pair with
    /// [`SimdPath::label`] for reporting. Dimension-1 chunks return before
    /// either phase runs, so these can undercount `batched_calls`.
    pub simd_path_calls: [u64; 4],
}

/// Snapshot of the process-wide batched-solve counters.
pub fn batch_solve_stats() -> BatchSolveStats {
    let mut simd_path_calls = [0u64; 4];
    for (slot, counter) in simd_path_calls.iter_mut().zip(&PATH_CALLS) {
        *slot = counter.load(Ordering::Relaxed);
    }
    BatchSolveStats {
        batched_calls: BATCHED_CALLS.load(Ordering::Relaxed),
        batched_matrices: BATCHED_MATRICES.load(Ordering::Relaxed),
        scalar_fallbacks: SCALAR_FALLBACKS.load(Ordering::Relaxed),
        simd_path_calls,
    }
}

/// Lane-occupancy histogram of the SoA eigensolver: one observation per
/// solve invocation, value = lanes filled (1 = scalar straggler fallback).
/// No clock involved, so recording costs a few atomic increments.
fn lane_histogram() -> &'static haqjsk_obs::Histogram {
    static HISTOGRAM: std::sync::OnceLock<haqjsk_obs::Histogram> = std::sync::OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        haqjsk_obs::registry().histogram(
            "haqjsk_eigen_batch_lanes",
            "Occupied lanes per batched eigensolve invocation (1 = scalar fallback).",
            &[],
        )
    })
}

/// Registers the batched-eigensolver counters with the process-global
/// metrics registry: a collector re-exports the atomic totals as
/// `haqjsk_eigen_*` counters at every snapshot, the lane-occupancy
/// histogram family is created eagerly so it appears in every scrape, and
/// the SIMD dispatch is reported as an info-style gauge family
/// (`haqjsk_eigen_simd_path{path=...}`: 1 on the active path, 0 on the
/// rest) plus per-path solve counters
/// (`haqjsk_eigen_simd_calls_total{path=...}`). Idempotent.
pub fn register_batch_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let registry = haqjsk_obs::registry();
        lane_histogram();
        let calls = registry.counter(
            "haqjsk_eigen_batched_calls_total",
            "SoA batched eigensolve invocations.",
            &[],
        );
        let matrices = registry.counter(
            "haqjsk_eigen_batched_matrices_total",
            "Matrices solved through the SoA batched eigensolver.",
            &[],
        );
        let fallbacks = registry.counter(
            "haqjsk_eigen_scalar_fallbacks_total",
            "Matrices solved through the scalar straggler fallback.",
            &[],
        );
        let mut path_gauges = Vec::new();
        let mut path_counters = Vec::new();
        for path in SimdPath::ALL {
            path_gauges.push((
                path,
                registry.gauge(
                    "haqjsk_eigen_simd_path",
                    "Active SIMD dispatch path of the batched eigensolver \
                     (info-style: 1 on the active path, 0 elsewhere).",
                    &[("path", path.label())],
                ),
            ));
            path_counters.push(registry.counter(
                "haqjsk_eigen_simd_calls_total",
                "SoA batched eigensolve invocations by dispatched SIMD path.",
                &[("path", path.label())],
            ));
        }
        registry.register_collector(move || {
            let stats = batch_solve_stats();
            calls.store(stats.batched_calls);
            matrices.store(stats.batched_matrices);
            fallbacks.store(stats.scalar_fallbacks);
            let active = simd::active_simd_label();
            for (path, gauge) in &path_gauges {
                gauge.set(if path.label() == active { 1.0 } else { 0.0 });
            }
            for (path, counter) in SimdPath::ALL.iter().zip(&path_counters) {
                counter.store(stats.simd_path_calls[path.index()]);
            }
        });
    });
}

/// Reusable buffers of the batched values-only eigensolver: the SoA matrix
/// block, the SoA tridiagonal pair, and a scalar [`EigenWorkspace`]
/// serving the straggler fallback. Buffers grow to the largest
/// `dimension² × lanes` seen and are reused across calls, so tiled
/// Gram loops stop allocating per tile.
#[derive(Debug, Default)]
pub struct BatchEigenWorkspace {
    soa: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    scalar: EigenWorkspace,
}

impl BatchEigenWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BatchEigenWorkspace::default()
    }

    /// Capacity (in `f64` elements) of the SoA scratch — exposed so tests
    /// can assert that repeated batches reuse the allocation.
    pub fn soa_capacity(&self) -> usize {
        self.soa.capacity()
    }

    /// Eigenvalues of every matrix in `mats`, each in ascending order and
    /// **bit-identical** to `symmetric_eigenvalues(mats[k])`.
    ///
    /// Matrices are grouped by dimension and each group is solved in SoA
    /// chunks of up to [`max_batch_lanes`](crate::simd::max_batch_lanes)
    /// lanes (16 under AVX-512F, 8 otherwise); a chunk of one matrix
    /// (straggler) takes the scalar path. The Householder/QL phases run on
    /// the explicit-SIMD path resolved by
    /// [`active_simd_path`](crate::simd::active_simd_path) — every path
    /// produces the same bits, so the dispatch choice is invisible in the
    /// output. Validation matches the scalar driver (square + symmetric
    /// within tolerance); the first invalid matrix fails the whole call,
    /// as does a (pathological) lane that exceeds the QL iteration cap or
    /// a malformed `HAQJSK_SIMD` override.
    pub fn eigenvalues(&mut self, mats: &[&Matrix]) -> Result<Vec<Vec<f64>>> {
        let path = simd::active_simd_path()?;
        let lane_cap = path.batch_lanes();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); mats.len()];
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, mat) in mats.iter().enumerate() {
            let n = check_symmetric(mat)?;
            if n > 0 {
                groups.entry(n).or_default().push(idx);
            }
        }
        for (&n, idxs) in &groups {
            for chunk in idxs.chunks(lane_cap) {
                if chunk.len() == 1 {
                    // Straggler: the scalar path has less bookkeeping and
                    // produces the same bits.
                    out[chunk[0]] = self.scalar.eigenvalues(mats[chunk[0]])?.to_vec();
                    SCALAR_FALLBACKS.fetch_add(1, Ordering::Relaxed);
                    lane_histogram().observe(1.0);
                } else {
                    self.solve_chunk(mats, chunk, n, path, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    fn solve_chunk(
        &mut self,
        mats: &[&Matrix],
        chunk: &[usize],
        n: usize,
        path: SimdPath,
        out: &mut [Vec<f64>],
    ) -> Result<()> {
        let lanes = chunk.len();
        debug_assert!((2..=MAX_BATCH_LANES).contains(&lanes));
        if self.soa.len() < n * n * lanes {
            self.soa.resize(n * n * lanes, 0.0);
        }
        if self.d.len() < n * lanes {
            self.d.resize(n * lanes, 0.0);
            self.e.resize(n * lanes, 0.0);
        }
        let soa = &mut self.soa[..n * n * lanes];
        let d = &mut self.d[..n * lanes];
        let e = &mut self.e[..n * lanes];

        // Symmetrise each matrix straight into its SoA lane — the same
        // arithmetic as the scalar workspace's in-place symmetrisation.
        for (lane, &idx) in chunk.iter().enumerate() {
            let data = mats[idx].data();
            for i in 0..n {
                for j in 0..n {
                    soa[(i * n + j) * lanes + lane] = 0.5 * (data[i * n + j] + data[j * n + i]);
                }
            }
        }
        BATCHED_CALLS.fetch_add(1, Ordering::Relaxed);
        BATCHED_MATRICES.fetch_add(lanes as u64, Ordering::Relaxed);
        lane_histogram().observe(lanes as f64);
        if n == 1 {
            for (lane, &idx) in chunk.iter().enumerate() {
                out[idx] = vec![soa[lane]];
            }
            return Ok(());
        }

        d.fill(0.0);
        e.fill(0.0);
        PATH_CALLS[path.index()].fetch_add(1, Ordering::Relaxed);
        simd::dispatch_tred2(path, soa, n, lanes, e)?;
        // The scalar driver reads the reduced diagonal into d after the
        // Householder phase; do the same per lane.
        for i in 0..n {
            let zii = (i * n + i) * lanes;
            for lane in 0..lanes {
                d[i * lanes + lane] = soa[zii + lane];
            }
        }
        simd::dispatch_tqli(path, d, e, n, lanes)?;

        for (lane, &idx) in chunk.iter().enumerate() {
            let mut vals: Vec<f64> = (0..n).map(|i| d[i * lanes + lane]).collect();
            sort_ascending(&mut vals, |&x| x)?;
            out[idx] = vals;
        }
        Ok(())
    }
}

thread_local! {
    /// Per-thread workspace backing [`batch_symmetric_eigenvalues`].
    static BATCH_WORKSPACE: RefCell<BatchEigenWorkspace> =
        RefCell::new(BatchEigenWorkspace::new());
}

/// Eigenvalues of a batch of symmetric matrices, each ascending and
/// bit-identical to [`symmetric_eigenvalues`](crate::symmetric_eigenvalues)
/// on that matrix.
///
/// Same-dimension matrices are solved
/// [`max_batch_lanes`](crate::simd::max_batch_lanes) at a time through the
/// lane-parallel SoA kernel (mixed-size batches are chunked by
/// dimension class); stragglers fall back to the scalar path. Graph-sized
/// batches reuse a thread-local [`BatchEigenWorkspace`]; batches containing
/// a matrix above the scalar workspace-dimension limit use a transient one
/// so huge one-off solves cannot pin the thread-local scratch.
pub fn batch_symmetric_eigenvalues(mats: &[&Matrix]) -> Result<Vec<Vec<f64>>> {
    if mats.iter().any(|m| m.rows() > WORKSPACE_DIM_LIMIT) {
        return BatchEigenWorkspace::new().eigenvalues(mats);
    }
    BATCH_WORKSPACE.with(|ws| ws.borrow_mut().eigenvalues(mats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::symmetric_eigenvalues;

    /// Deterministic pseudo-random symmetric matrix (LCG fill).
    fn lcg_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// A rank-deficient, trace-1 PSD matrix shaped like the kernel's
    /// mixtures: `Σ_k w_k v_k v_kᵀ` over `rank` random vectors supported
    /// on every row but those `≡ skip (mod 3)`, which stay exactly zero.
    fn psd_state(n: usize, rank: usize, skip: usize, seed: u64) -> Matrix {
        let v = lcg_symmetric(n.max(rank), seed);
        let mut m = Matrix::zeros(n, n);
        for k in 0..rank {
            let w = 1.0 + k as f64;
            for i in (0..n).filter(|i| i % 3 != skip) {
                for j in (0..n).filter(|j| j % 3 != skip) {
                    m[(i, j)] += w * v[(k, i)] * v[(k, j)];
                }
            }
        }
        m.scale(1.0 / m.trace())
    }

    /// `count` matrices of one dimension, as the kernel solves them: dense
    /// lanes, rank-deficient trace-1 PSD lanes with zero rows, and diagonal
    /// lanes whose QL sweep never rotates.
    fn full_chunk_class(n: usize, count: usize, seed: u64) -> Vec<Matrix> {
        (0..count)
            .map(|k| {
                let seed = seed + k as u64;
                match k % 4 {
                    0 => lcg_symmetric(n, seed),
                    1 | 2 => psd_state(n, 1 + k % (n / 2).max(1), k % 3, seed),
                    _ => Matrix::from_diag(
                        &(0..n)
                            .map(|i| ((i * 7 + k) % 5) as f64 / 8.0)
                            .collect::<Vec<_>>(),
                    ),
                }
            })
            .collect()
    }

    fn assert_bits_equal(batch: &[Vec<f64>], mats: &[&Matrix], label: &str) {
        for (k, mat) in mats.iter().enumerate() {
            let scalar = symmetric_eigenvalues(mat).unwrap();
            assert_eq!(
                batch[k].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{label}: matrix {k} (dim {}) drifted from the scalar driver",
                mat.rows()
            );
        }
    }

    #[test]
    fn uniform_batch_is_bit_identical_to_scalar() {
        for n in [2usize, 3, 5, 8, 13, 24] {
            let mats: Vec<Matrix> = (0..7).map(|s| lcg_symmetric(n, 31 * s + 1)).collect();
            let refs: Vec<&Matrix> = mats.iter().collect();
            let batch = batch_symmetric_eigenvalues(&refs).unwrap();
            assert_bits_equal(&batch, &refs, "uniform");
        }
    }

    #[test]
    fn mixed_dimension_batch_chunks_by_class() {
        // 11 matrices over 3 dimension classes, one class with a straggler.
        let mats: Vec<Matrix> = (0..11)
            .map(|k| lcg_symmetric([4, 7, 12][k % 3] + (k == 10) as usize, k as u64))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let before = batch_solve_stats();
        let batch = batch_symmetric_eigenvalues(&refs).unwrap();
        let after = batch_solve_stats();
        assert_bits_equal(&batch, &refs, "mixed");
        assert!(after.batched_matrices > before.batched_matrices);
        assert!(
            after.scalar_fallbacks > before.scalar_fallbacks,
            "the singleton dimension class must take the scalar fallback"
        );
    }

    #[test]
    fn oversized_batch_splits_into_lane_chunks() {
        let mats: Vec<Matrix> = (0..MAX_BATCH_LANES * 2 + 3)
            .map(|s| lcg_symmetric(6, s as u64 + 5))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let batch = batch_symmetric_eigenvalues(&refs).unwrap();
        assert_bits_equal(&batch, &refs, "oversized");
    }

    #[test]
    fn zero_rows_exercise_the_masked_householder_path() {
        // A matrix with an all-zero row/column hits the per-lane zero-scale
        // skip; mix it with dense lanes so masking is actually exercised.
        let mut sparse = lcg_symmetric(9, 77);
        for k in 0..9 {
            sparse[(4, k)] = 0.0;
            sparse[(k, 4)] = 0.0;
            sparse[(7, k)] = 0.0;
            sparse[(k, 7)] = 0.0;
        }
        let dense = lcg_symmetric(9, 78);
        let diag = Matrix::from_diag(&[3.0, -1.0, 2.0, 0.0, 0.0, 1.0, 4.0, -2.0, 5.0]);
        let refs: Vec<&Matrix> = vec![&sparse, &dense, &diag, &sparse];
        let batch = batch_symmetric_eigenvalues(&refs).unwrap();
        assert_bits_equal(&batch, &refs, "zero-rows");
    }

    /// A 116-dimensional HAQJSK(A) mixture state with 112 all-zero rows:
    /// the 4x4 block left at rows 0, 6, 15 and 91 reduces to a stalled QL
    /// block of subnormal residue, where the relative split test underflows
    /// and never fires. Both solvers must split it and agree bit for bit.
    fn subnormal_residue_state() -> Matrix {
        let (a, b, c) = (
            f64::from_bits(0x3fd1902db281bef5),
            f64::from_bits(0x3fcf4391f222eb33),
            f64::from_bits(0x3fccdfa49afc8214),
        );
        let block = [[a, b, b, a], [b, c, c, b], [b, c, c, b], [a, b, b, a]];
        let rows = [0, 6, 15, 91];
        let mut m = Matrix::zeros(116, 116);
        for (bi, &i) in rows.iter().enumerate() {
            for (bj, &j) in rows.iter().enumerate() {
                m[(i, j)] = block[bi][bj];
            }
        }
        m
    }

    #[test]
    fn subnormal_residue_splits_in_both_solvers() {
        let state = subnormal_residue_state();
        let scalar = symmetric_eigenvalues(&state).expect("the scalar QL sweep converges");
        assert!((scalar.iter().sum::<f64>() - state.trace()).abs() < 1e-12);
        let dense = lcg_symmetric(116, 5);
        let refs: Vec<&Matrix> = vec![&state, &dense, &state];
        let batch = batch_symmetric_eigenvalues(&refs).expect("the batched QL sweep converges");
        assert_bits_equal(&batch, &refs, "subnormal residue");
    }

    #[test]
    fn tiny_dimensions_and_empty_batches() {
        assert!(batch_symmetric_eigenvalues(&[]).unwrap().is_empty());
        let e = Matrix::zeros(0, 0);
        let s1 = Matrix::from_diag(&[7.0]);
        let s2 = Matrix::from_diag(&[-3.0]);
        let p = lcg_symmetric(2, 9);
        let refs: Vec<&Matrix> = vec![&e, &s1, &s2, &p, &p];
        let batch = batch_symmetric_eigenvalues(&refs).unwrap();
        assert!(batch[0].is_empty());
        assert_eq!(batch[1], vec![7.0]);
        assert_eq!(batch[2], vec![-3.0]);
        assert_bits_equal(&batch[3..], &refs[3..], "tiny");
    }

    #[test]
    fn invalid_matrices_fail_the_call() {
        let good = lcg_symmetric(3, 1);
        let rect = Matrix::zeros(2, 3);
        assert!(batch_symmetric_eigenvalues(&[&good, &rect]).is_err());
        let asym = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(batch_symmetric_eigenvalues(&[&asym, &good]).is_err());
    }

    #[test]
    fn every_available_simd_path_is_bit_identical() {
        // Forces each compiled path in turn and re-runs the bit-equality
        // gauntlet: mixed dimensions, zero rows (masked Householder),
        // oversized batches (straggler tails inside the dispatch blocks),
        // and classes that fill whole chunks on every path (paired blocks),
        // one of them with a part chunk left (single block plus tail).
        let _lock = crate::simd::override_test_lock();
        let mut mats: Vec<Matrix> = (0..crate::simd::max_batch_lanes() * 2 + 3)
            .map(|k| lcg_symmetric([3, 6, 9, 17][k % 4], k as u64 + 900))
            .collect();
        let mut sparse = lcg_symmetric(9, 901);
        for k in 0..9 {
            sparse[(4, k)] = 0.0;
            sparse[(k, 4)] = 0.0;
        }
        mats.push(sparse);
        mats.extend(full_chunk_class(12, 2 * MAX_BATCH_LANES + 3, 950));
        mats.extend(full_chunk_class(16, MAX_BATCH_LANES + 13, 990));
        mats.extend(full_chunk_class(4, MAX_BATCH_LANES, 1030));
        let refs: Vec<&Matrix> = mats.iter().collect();
        for path in crate::simd::available_simd_paths() {
            crate::simd::set_simd_path(Some(path)).unwrap();
            let before = batch_solve_stats().simd_path_calls[path.index()];
            let batch = batch_symmetric_eigenvalues(&refs).unwrap();
            assert_bits_equal(&batch, &refs, path.label());
            let after = batch_solve_stats().simd_path_calls[path.index()];
            assert!(
                after > before,
                "{}: per-path counter must record the dispatch",
                path.label()
            );
        }
        crate::simd::set_simd_path(None).unwrap();
    }

    #[test]
    fn a_bad_lane_fails_the_call_on_every_path() {
        // One NaN or infinite entry in one lane of a full-width chunk: that
        // lane's QL sweep never splits, so the call must end in
        // `NoConvergence` on every path (and in both scalar drivers),
        // without a panic or a hang, wherever the lane sits in the chunk.
        // A NaN on the diagonal with zero off the diagonal splits at once
        // instead and hands the NaN back, which the sort refuses alike.
        let _lock = crate::simd::override_test_lock();
        let mut poisoned: Vec<Matrix> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .map(|bad| {
                let mut m = psd_state(6, 3, 1, 77);
                m[(0, 2)] = bad;
                m[(2, 0)] = bad;
                m
            })
            .collect();
        poisoned.push(Matrix::from_diag(&[f64::NAN, 1.0, 2.0]));
        let no_convergence = |e: Option<crate::LinalgError>| {
            matches!(e, Some(crate::LinalgError::NoConvergence { .. }))
        };
        for bad in &poisoned {
            assert!(no_convergence(symmetric_eigenvalues(bad).err()));
            assert!(no_convergence(crate::symmetric_eigen(bad).err()));
            for path in crate::simd::available_simd_paths() {
                crate::simd::set_simd_path(Some(path)).unwrap();
                let lanes = path.batch_lanes();
                for at in [0, lanes / 2 + 1, lanes - 1] {
                    let mut mats = full_chunk_class(bad.rows(), lanes, 60);
                    mats[at] = bad.clone();
                    let refs: Vec<&Matrix> = mats.iter().collect();
                    let result = batch_symmetric_eigenvalues(&refs);
                    assert!(
                        no_convergence(result.clone().err()),
                        "{}: {bad:?} in lane {at} gave {result:?}",
                        path.label()
                    );
                }
            }
        }
        crate::simd::set_simd_path(None).unwrap();
    }

    #[test]
    fn batch_metrics_report_the_simd_path() {
        register_batch_metrics();
        let mats: Vec<Matrix> = (0..5).map(|s| lcg_symmetric(7, s + 300)).collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let _ = batch_symmetric_eigenvalues(&refs).unwrap();
        let snapshot = haqjsk_obs::registry().snapshot();
        let mut active = 0;
        for path in SimdPath::ALL {
            let v = snapshot
                .gauge_value("haqjsk_eigen_simd_path", &[("path", path.label())])
                .expect("info gauge present for every path");
            if v == 1.0 {
                active += 1;
            }
            assert!(snapshot
                .counter_value("haqjsk_eigen_simd_calls_total", &[("path", path.label())])
                .is_some());
        }
        assert_eq!(active, 1, "exactly one path is active");
    }

    #[test]
    fn workspace_buffers_are_reused() {
        let mut ws = BatchEigenWorkspace::new();
        let mats: Vec<Matrix> = (0..6).map(|s| lcg_symmetric(10, s + 40)).collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let _ = ws.eigenvalues(&refs).unwrap();
        let cap = ws.soa_capacity();
        assert!(cap >= 10 * 10 * 6);
        for round in 0..4 {
            let batch = ws.eigenvalues(&refs).unwrap();
            assert_bits_equal(&batch, &refs, "reuse");
            assert_eq!(
                ws.soa_capacity(),
                cap,
                "round {round} must not grow the SoA"
            );
        }
    }
}
