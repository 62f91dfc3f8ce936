//! The Gram tile scheduler.
//!
//! A Gram matrix over `n` items has `n(n+1)/2` independent entries. Raw
//! pair lists scatter a worker's attention across the whole index range;
//! tiling the upper triangle into `T x T` blocks instead gives each job a
//! contiguous row/column band, so the per-item features touched by a tile
//! (density matrices, aligned structures) stay hot in cache while the tile
//! is computed. Every entry `(i, j)` with `i <= j` belongs to exactly one
//! tile, and each tile writes that entry and its mirror `(j, i)`, so tiles
//! write disjoint memory and the output buffer can be shared without locks.
//!
//! [`run_tiles`] evaluates the upper-triangle grid of a full Gram through
//! one [`TileEvaluator`], either over the worker pool or inline on the
//! calling thread in row-major tile order. The distributed coordinator
//! ships the same grid ([`tile_grid`], [`tile_pairs`]) to worker
//! processes.

use crate::backend::TileEvaluator;
use crate::pool::WorkerPool;
use haqjsk_linalg::Matrix;

/// Hard floor/ceiling on the load-balancing tile width.
const MIN_TILE: usize = 2;
const MAX_TILE: usize = 64;

/// Floor on the tile width: a `T x T` tile yields at least `T(T+1)/2`
/// pairs, and batched pair kernels want enough pairs per tile to fill
/// their SIMD lanes even after chunking by mixture dimension class. The
/// lane count is a runtime property of the dispatched SIMD path (16 under
/// AVX-512F, 8 otherwise — see `haqjsk_linalg::max_batch_lanes`), so the
/// floor is computed, not a constant: the smallest `T` whose `T(T+1)/2`
/// pairs cover four full lane chunks (8 when lanes = 8; 11 when
/// lanes = 16).
fn min_batch_tile() -> usize {
    let lanes = haqjsk_linalg::max_batch_lanes();
    let mut t = 2;
    while t * (t + 1) / 2 < 4 * lanes {
        t += 1;
    }
    t
}

/// Picks a tile width for an `n x n` Gram computation so that the upper
/// triangle yields roughly four jobs per worker — enough slack for load
/// balancing without shredding cache locality.
fn auto_tile_width(n: usize, workers: usize) -> usize {
    if n == 0 {
        return MIN_TILE;
    }
    let target_jobs = (workers.max(1) * 4) as f64;
    // t tiles per side give t(t+1)/2 jobs; solve for t.
    let tiles_per_side = ((2.0 * target_jobs).sqrt().ceil() as usize).max(1);
    (n.div_ceil(tiles_per_side)).clamp(MIN_TILE, MAX_TILE)
}

/// The tile width rule: the load-balancing choice (about four tiles per
/// worker), floored so every tile carries enough pairs to fill the batched
/// kernels' lanes. Slightly coarser scheduling granularity is the right
/// trade: the per-pair work inside a batched tile is the hot path, and
/// starving its lanes costs more than a worker idling at the tail.
pub fn auto_tile_width_batched(n: usize, workers: usize) -> usize {
    auto_tile_width(n, workers).max(min_batch_tile())
}

/// Shared mutable output buffer; sound because tiles write disjoint entries.
struct TileOutput(*mut f64);

unsafe impl Send for TileOutput {}
unsafe impl Sync for TileOutput {}

impl TileOutput {
    /// # Safety
    /// Callers must write each flat index from at most one concurrent job.
    unsafe fn write(&self, flat: usize, value: f64) {
        *self.0.add(flat) = value;
    }
}

/// Computes the symmetric Gram matrix pair by pair, serially — the
/// reference the scheduler is tested against.
pub fn gram_serial<F>(n: usize, f: F) -> Matrix
where
    F: Fn(usize, usize) -> f64,
{
    let mut values = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = f(i, j);
            values[(i, j)] = v;
            values[(j, i)] = v;
        }
    }
    values
}

/// Enumerates the upper-triangle tiles of an `n x n` Gram matrix: `(bi,
/// bj)` block coordinates with `bi <= bj`, row-major, where block `b`
/// covers indices `b*tile..`. Public so out-of-process schedulers (the
/// distributed backend) reproduce the exact local grid, keeping work
/// units identical across executors. Every listed tile holds at least one
/// pair.
pub fn tile_grid(n: usize, tile: usize) -> Vec<(usize, usize)> {
    let blocks = n.div_ceil(tile);
    (0..blocks)
        .flat_map(|bi| (bi..blocks).map(move |bj| (bi, bj)))
        .collect()
}

/// The index pairs `(i, j)`, `i <= j`, of tile `(bi, bj)` of the
/// [`tile_grid`] of `(n, tile)`, appended into `pairs` (cleared first).
pub fn tile_pairs(
    n: usize,
    tile: usize,
    (bi, bj): (usize, usize),
    pairs: &mut Vec<(usize, usize)>,
) {
    pairs.clear();
    let row_end = ((bi + 1) * tile).min(n);
    let col_end = ((bj + 1) * tile).min(n);
    for i in bi * tile..row_end {
        for j in (bj * tile).max(i)..col_end {
            pairs.push((i, j));
        }
    }
}

/// The Gram tile scheduler: returns the symmetric `n x n` matrix whose
/// upper triangle is evaluated tile by tile through `eval` and mirrored.
/// Tiles run on `pool` when given, otherwise inline on the calling thread
/// in row-major order.
pub fn run_tiles(
    pool: Option<&WorkerPool>,
    n: usize,
    tile: usize,
    eval: &dyn TileEvaluator,
) -> Matrix {
    let mut values = Matrix::zeros(n, n);
    let tile = tile.max(1);
    let tiles = tile_grid(n, tile);
    let out = TileOutput(values.data_mut().as_mut_ptr());
    let tile_hist = crate::obs::tile_eval_histogram();
    let run = |t: usize| {
        let _timer = crate::obs::HistogramTimer::start(tile_hist);
        let mut pairs = Vec::new();
        tile_pairs(n, tile, tiles[t], &mut pairs);
        let mut block = vec![0.0; pairs.len()];
        eval.eval_tile(&pairs, &mut block);
        for (&(i, j), &v) in pairs.iter().zip(&block) {
            // SAFETY: (i, j) with i <= j lies in exactly one tile, and the
            // mirror (j, i) is only written by that same tile.
            unsafe {
                out.write(i * n + j, v);
                out.write(j * n + i, v);
            }
        }
    };
    match pool {
        Some(pool) => pool.scoped_run(tiles.len(), &run),
        None => (0..tiles.len()).for_each(run),
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_tile_floor_tracks_the_simd_lane_width() {
        let t = min_batch_tile();
        let lanes = haqjsk_linalg::max_batch_lanes();
        // Smallest T whose pair count covers four full lane chunks.
        assert!(t * (t + 1) / 2 >= 4 * lanes);
        assert!((t - 1) * t / 2 < 4 * lanes);
        for workers in [1, 4, 16] {
            for n in [0, 5, 100, 1000] {
                assert!(auto_tile_width_batched(n, workers) >= t);
                assert!(auto_tile_width_batched(n, workers) >= auto_tile_width(n, workers));
            }
        }
    }

    #[test]
    fn tiles_cover_the_upper_triangle_once() {
        for (n, tile) in [(0usize, 3usize), (1, 1), (7, 3), (33, 5), (12, 13)] {
            let mut seen = Vec::new();
            let mut pairs = Vec::new();
            for t in tile_grid(n, tile) {
                tile_pairs(n, tile, t, &mut pairs);
                assert!(!pairs.is_empty(), "n={n} tile={tile}: empty tile {t:?}");
                seen.extend_from_slice(&pairs);
            }
            seen.sort_unstable();
            let upper: Vec<(usize, usize)> =
                (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
            assert_eq!(seen, upper, "n={n} tile={tile}");
        }
    }
}
