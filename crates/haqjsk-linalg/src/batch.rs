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
//!   reduction becomes a `f64` array loop over lanes that maps directly
//!   onto vector registers: the hot phases dispatch to the explicit-SIMD
//!   kernels of [`crate::simd`] (AVX-512F / AVX2 / NEON, picked at runtime
//!   and overridable via `HAQJSK_SIMD`), with the plain lane loops in this
//!   module as the always-compiled scalar fallback,
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
//! tests assert this across mixed batch shapes. The payoff is in the
//! `O(n³)` Householder phase, whose hot loops vectorize across lanes; the
//! QL sweep is `O(n²)` and dominated by per-lane `hypot` calls, so it
//! mostly benefits from the amortised bookkeeping.
//!
//! This is the CPU half of the roadmap's batched-eigendecomposition
//! backend: a GPU backend replaces the lane loops with device kernels
//! behind the same batch entry point.

use crate::eigen::{
    check_symmetric, pythag, EigenWorkspace, MAX_QL_ITERATIONS, WORKSPACE_DIM_LIMIT,
};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::simd::{self, SimdPath};
use crate::Result;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard cap on matrices solved by one SoA kernel invocation (sizes the
/// per-lane state arrays). The *effective* chunk width is per dispatch
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

impl BatchSolveStats {
    /// Mean number of matrices per SoA kernel invocation.
    pub fn mean_batch(&self) -> f64 {
        if self.batched_calls == 0 {
            0.0
        } else {
            self.batched_matrices as f64 / self.batched_calls as f64
        }
    }
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

/// Per-lane scalar registers of the two batched phases. Fixed-size arrays
/// (indexed `..lanes`) so the compiler keeps them in registers / on one
/// cache line instead of behind a heap indirection.
#[derive(Debug)]
struct LaneState {
    scale: [f64; MAX_BATCH_LANES],
    h: [f64; MAX_BATCH_LANES],
    f: [f64; MAX_BATCH_LANES],
    g: [f64; MAX_BATCH_LANES],
    hh: [f64; MAX_BATCH_LANES],
    fj: [f64; MAX_BATCH_LANES],
    gj: [f64; MAX_BATCH_LANES],
    s: [f64; MAX_BATCH_LANES],
    c: [f64; MAX_BATCH_LANES],
    p: [f64; MAX_BATCH_LANES],
    r: [f64; MAX_BATCH_LANES],
    m: [usize; MAX_BATCH_LANES],
    iter: [usize; MAX_BATCH_LANES],
    skip: [bool; MAX_BATCH_LANES],
    active: [bool; MAX_BATCH_LANES],
    done: [bool; MAX_BATCH_LANES],
}

impl Default for LaneState {
    fn default() -> Self {
        LaneState {
            scale: [0.0; MAX_BATCH_LANES],
            h: [0.0; MAX_BATCH_LANES],
            f: [0.0; MAX_BATCH_LANES],
            g: [0.0; MAX_BATCH_LANES],
            hh: [0.0; MAX_BATCH_LANES],
            fj: [0.0; MAX_BATCH_LANES],
            gj: [0.0; MAX_BATCH_LANES],
            s: [0.0; MAX_BATCH_LANES],
            c: [0.0; MAX_BATCH_LANES],
            p: [0.0; MAX_BATCH_LANES],
            r: [0.0; MAX_BATCH_LANES],
            m: [0; MAX_BATCH_LANES],
            iter: [0; MAX_BATCH_LANES],
            skip: [false; MAX_BATCH_LANES],
            active: [false; MAX_BATCH_LANES],
            done: [false; MAX_BATCH_LANES],
        }
    }
}

/// Lane-parallel Householder tridiagonalisation (values-only `tred2`) of
/// `lanes` matrices stored SoA in `z` (`z[(i*n + j) * lanes + lane]`).
/// `e[i*lanes + lane]` receives the sub-diagonal; the diagonal is read off
/// `z` by the caller, exactly like the scalar driver. Each lane performs
/// the scalar reduction's arithmetic verbatim; the rare all-zero-row skip
/// is decided per lane and masked out of the updates.
fn batch_tred2(z: &mut [f64], n: usize, lanes: usize, e: &mut [f64], ws: &mut LaneState) {
    for i in (1..n).rev() {
        let l = i - 1;
        if l == 0 {
            // i == 1: the reduction is trivial, e[1] = z[1, 0].
            let src = (i * n) * lanes;
            for lane in 0..lanes {
                e[i * lanes + lane] = z[src + lane];
            }
            continue;
        }

        // scale[lane] = Σ_k |z[i, k]| over the active row prefix.
        ws.scale[..lanes].fill(0.0);
        for k in 0..=l {
            let zi = (i * n + k) * lanes;
            for lane in 0..lanes {
                ws.scale[lane] += z[zi + lane].abs();
            }
        }
        let mut any_skip = false;
        let mut any_live = false;
        for lane in 0..lanes {
            let skip = ws.scale[lane] == 0.0;
            ws.skip[lane] = skip;
            any_skip |= skip;
            any_live |= !skip;
            ws.h[lane] = 0.0;
            if skip {
                e[i * lanes + lane] = z[(i * n + l) * lanes + lane];
            }
        }
        if !any_live {
            continue;
        }

        if any_skip {
            householder_step::<true>(z, n, lanes, e, ws, i, l);
        } else {
            householder_step::<false>(z, n, lanes, e, ws, i, l);
        }
    }
    // Final sub-diagonal slot, matching the scalar driver's e[0] = 0.
    e[..lanes].fill(0.0);
}

/// One Householder step for row `i` (active prefix `0..=l`, `l > 0`).
/// `MASKED` statically selects the predicated variant used when some lane
/// has a zero scale; the common all-live case monomorphises to clean,
/// unconditionally vectorizable lane loops.
#[inline(always)]
fn householder_step<const MASKED: bool>(
    z: &mut [f64],
    n: usize,
    lanes: usize,
    e: &mut [f64],
    ws: &mut LaneState,
    i: usize,
    l: usize,
) {
    macro_rules! live {
        ($skip:expr, $lane:expr) => {
            !MASKED || !$skip[$lane]
        };
    }

    // Split off row i: the reduction reads it everywhere but only mutates
    // rows `0..=l` in the rank-2 update, and the split lets the hot loops
    // borrow both halves without bounds checks.
    let row_i_base = (i * n) * lanes;
    let (zl, zi_row) = z.split_at_mut(row_i_base);
    let row_i = &mut zi_row[..(l + 1) * lanes];
    let skip = &ws.skip[..lanes];
    let scale = &ws.scale[..lanes];
    let h = &mut ws.h[..lanes];

    // Normalise the row by its scale and accumulate h = Σ v².
    for k in 0..=l {
        let row_k = &mut row_i[k * lanes..(k + 1) * lanes];
        for lane in 0..lanes {
            if live!(skip, lane) {
                let v = row_k[lane] / scale[lane];
                row_k[lane] = v;
                h[lane] += v * v;
            }
        }
    }
    // Householder head: choose the reflection sign per lane.
    for lane in 0..lanes {
        if live!(skip, lane) {
            let f = row_i[l * lanes + lane];
            let sqrt_h = h[lane].sqrt();
            let g = if f >= 0.0 { -sqrt_h } else { sqrt_h };
            e[i * lanes + lane] = scale[lane] * g;
            h[lane] -= f * g;
            row_i[l * lanes + lane] = f - g;
            ws.f[lane] = 0.0;
        }
    }
    // p = A·v (stored in e[0..=l]) and f = vᵀ·p. The two k-loops read the
    // symmetric half exactly like the scalar reduction; they run
    // unpredicated (skipped lanes compute garbage that is never written).
    for j in 0..=l {
        let g = &mut ws.g[..lanes];
        g.fill(0.0);
        let row_j = &zl[(j * n) * lanes..(j * n + j + 1) * lanes];
        for k in 0..=j {
            let zj = &row_j[k * lanes..(k + 1) * lanes];
            let zi = &row_i[k * lanes..(k + 1) * lanes];
            for ((gl, &a), &b) in g.iter_mut().zip(zj).zip(zi) {
                *gl += a * b;
            }
        }
        for k in (j + 1)..=l {
            let zk = &zl[(k * n + j) * lanes..(k * n + j + 1) * lanes];
            let zi = &row_i[k * lanes..(k + 1) * lanes];
            for ((gl, &a), &b) in g.iter_mut().zip(zk).zip(zi) {
                *gl += a * b;
            }
        }
        let ej = &mut e[j * lanes..(j + 1) * lanes];
        let zij = &row_i[j * lanes..(j + 1) * lanes];
        for lane in 0..lanes {
            if live!(skip, lane) {
                let v = g[lane] / h[lane];
                ej[lane] = v;
                ws.f[lane] += v * zij[lane];
            }
        }
    }
    for lane in 0..lanes {
        if live!(skip, lane) {
            ws.hh[lane] = ws.f[lane] / (h[lane] + h[lane]);
        }
    }
    // Rank-2 update A ← A - v·qᵀ - q·vᵀ on the lower triangle.
    for j in 0..=l {
        let fj = &mut ws.fj[..lanes];
        let gj = &mut ws.gj[..lanes];
        {
            let ej = &mut e[j * lanes..(j + 1) * lanes];
            let zij = &row_i[j * lanes..(j + 1) * lanes];
            for lane in 0..lanes {
                if live!(skip, lane) {
                    let f = zij[lane];
                    let g = ej[lane] - ws.hh[lane] * f;
                    ej[lane] = g;
                    fj[lane] = f;
                    gj[lane] = g;
                }
            }
        }
        let row_j = &mut zl[(j * n) * lanes..(j * n + j + 1) * lanes];
        for k in 0..=j {
            let zjk = &mut row_j[k * lanes..(k + 1) * lanes];
            let zik = &row_i[k * lanes..(k + 1) * lanes];
            let ek = &e[k * lanes..(k + 1) * lanes];
            for lane in 0..lanes {
                if live!(skip, lane) {
                    let delta = fj[lane] * ek[lane] + gj[lane] * zik[lane];
                    zjk[lane] -= delta;
                }
            }
        }
    }
}

/// Lane-parallel values-only implicit-QL sweep (`tqli`) over `lanes`
/// tridiagonal systems stored SoA in `d`/`e` (`d[i*lanes + lane]`).
///
/// The eigenvalue index loop is lane-uniform; inside it every lane runs its
/// **own** shift sequence: its own split point `m`, its own iteration count
/// and its own early termination, decided per lane each pass. Converged
/// lanes idle (masked off) while the rest finish, which reproduces the
/// scalar per-matrix arithmetic exactly.
fn batch_tqli(
    d: &mut [f64],
    e: &mut [f64],
    n: usize,
    lanes: usize,
    ws: &mut LaneState,
) -> Result<()> {
    for i in 1..n {
        for lane in 0..lanes {
            e[(i - 1) * lanes + lane] = e[i * lanes + lane];
        }
    }
    for lane in 0..lanes {
        e[(n - 1) * lanes + lane] = 0.0;
    }

    for l in 0..n {
        ws.iter[..lanes].fill(0);
        loop {
            // Per-lane search for a small off-diagonal split element.
            let mut any_active = false;
            let mut max_m = l;
            for lane in 0..lanes {
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m * lanes + lane].abs() + d[(m + 1) * lanes + lane].abs();
                    if e[m * lanes + lane].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                ws.m[lane] = m;
                let active = m > l;
                ws.active[lane] = active;
                if active {
                    any_active = true;
                    max_m = max_m.max(m);
                }
            }
            if !any_active {
                break;
            }

            // Per-lane shift initialisation.
            for lane in 0..lanes {
                if !ws.active[lane] {
                    continue;
                }
                ws.iter[lane] += 1;
                if ws.iter[lane] > MAX_QL_ITERATIONS {
                    return Err(LinalgError::NoConvergence {
                        algorithm: "batched symmetric QL iteration",
                        iterations: MAX_QL_ITERATIONS,
                    });
                }
                let el = e[l * lanes + lane];
                let mut g = (d[(l + 1) * lanes + lane] - d[l * lanes + lane]) / (2.0 * el);
                let r = pythag(g, 1.0);
                g = d[ws.m[lane] * lanes + lane] - d[l * lanes + lane]
                    + el / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
                ws.g[lane] = g;
                ws.s[lane] = 1.0;
                ws.c[lane] = 1.0;
                ws.p[lane] = 0.0;
                ws.r[lane] = r;
                ws.done[lane] = false;
            }

            // Lockstep plane rotations: lane `k` participates exactly for
            // its own index range `l..m[k]`, in descending order.
            for i in (l..max_m).rev() {
                for lane in 0..lanes {
                    if !ws.active[lane] || ws.done[lane] || i >= ws.m[lane] {
                        continue;
                    }
                    let ei = e[i * lanes + lane];
                    let f = ws.s[lane] * ei;
                    let b = ws.c[lane] * ei;
                    let r = pythag(f, ws.g[lane]);
                    e[(i + 1) * lanes + lane] = r;
                    if r == 0.0 {
                        d[(i + 1) * lanes + lane] -= ws.p[lane];
                        e[ws.m[lane] * lanes + lane] = 0.0;
                        ws.r[lane] = r;
                        ws.done[lane] = true;
                        continue;
                    }
                    let s = f / r;
                    let c = ws.g[lane] / r;
                    let g = d[(i + 1) * lanes + lane] - ws.p[lane];
                    let r2 = (d[i * lanes + lane] - g) * s + 2.0 * c * b;
                    let p = s * r2;
                    d[(i + 1) * lanes + lane] = g + p;
                    ws.g[lane] = c * r2 - b;
                    ws.s[lane] = s;
                    ws.c[lane] = c;
                    ws.p[lane] = p;
                    ws.r[lane] = r2;
                }
            }
            for lane in 0..lanes {
                if !ws.active[lane] {
                    continue;
                }
                // Mirrors the scalar `if r == 0.0 && m > l { continue; }`.
                if ws.r[lane] == 0.0 && ws.m[lane] > l {
                    continue;
                }
                d[l * lanes + lane] -= ws.p[lane];
                e[l * lanes + lane] = ws.g[lane];
                e[ws.m[lane] * lanes + lane] = 0.0;
            }
        }
    }
    Ok(())
}

/// Reusable buffers of the batched values-only eigensolver: the SoA matrix
/// block, the SoA tridiagonal pair, the per-lane registers, and a scalar
/// [`EigenWorkspace`] serving the straggler fallback. Buffers grow to the
/// largest `dimension² × lanes` seen and are reused across calls, so tiled
/// Gram loops stop allocating per tile.
#[derive(Debug, Default)]
pub struct BatchEigenWorkspace {
    soa: Vec<f64>,
    d: Vec<f64>,
    e: Vec<f64>,
    lanes: Box<LaneState>,
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
        match path {
            SimdPath::Scalar => batch_tred2(soa, n, lanes, e, &mut self.lanes),
            _ => simd::dispatch_tred2(path, soa, n, lanes, e),
        }
        // The scalar driver reads the reduced diagonal into d after the
        // Householder phase; do the same per lane.
        for i in 0..n {
            let zii = (i * n + i) * lanes;
            for lane in 0..lanes {
                d[i * lanes + lane] = soa[zii + lane];
            }
        }
        match path {
            SimdPath::Scalar => batch_tqli(d, e, n, lanes, &mut self.lanes)?,
            _ => simd::dispatch_tqli(path, d, e, n, lanes)?,
        }

        for (lane, &idx) in chunk.iter().enumerate() {
            let mut vals: Vec<f64> = (0..n).map(|i| d[i * lanes + lane]).collect();
            // Stable ascending sort, matching the scalar drivers.
            vals.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
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
        // oversized batches (straggler tails inside the dispatch blocks).
        let mut mats: Vec<Matrix> = (0..crate::simd::max_batch_lanes() * 2 + 3)
            .map(|k| lcg_symmetric([3, 6, 9, 17][k % 4], k as u64 + 900))
            .collect();
        let mut sparse = lcg_symmetric(9, 901);
        for k in 0..9 {
            sparse[(4, k)] = 0.0;
            sparse[(k, 4)] = 0.0;
        }
        mats.push(sparse);
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
