//! The [`Engine`]: the single execution substrate for kernel computation.
//!
//! An engine owns a [`WorkerPool`], a default [`BackendKind`] and the tile
//! width rule, and exposes the entry points every kernel in the workspace
//! routes through: [`Engine::gram`] for a full Gram matrix over one
//! [`TileEvaluator`], run by the one tile scheduler ([`gram::run_tiles`])
//! inline on the calling thread or on the pool, and [`Engine::map`] /
//! [`Engine::map_chunks`] for per-graph feature extraction and pair
//! batches. A distributed Gram is not the engine's: `haqjsk-dist`'s
//! coordinator ships the same tile grid ([`Engine::tile_width`]) to worker
//! processes.
//!
//! A lazily initialised process-global engine ([`Engine::global`]) lets
//! callers share one pool instead of spawning scoped threads per Gram
//! matrix. Its worker count comes from the `HAQJSK_THREADS` environment
//! variable and its default backend from `HAQJSK_BACKEND` (both read once,
//! at first use).

use crate::backend::{BackendKind, TileEvaluator};
use crate::gram;
use crate::pool::{default_thread_count, WorkerPool};
use haqjsk_linalg::Matrix;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// A worker pool plus the Gram scheduling policy built on it.
pub struct Engine {
    pool: WorkerPool,
    backend: BackendKind,
}

static GLOBAL_ENGINE: OnceLock<Engine> = OnceLock::new();

/// Configures and builds an [`Engine`]; obtained from [`Engine::builder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineBuilder {
    threads: Option<usize>,
    backend: Option<BackendKind>,
}

impl EngineBuilder {
    /// Sets the worker count (default: [`default_thread_count`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the default execution backend (default: the `HAQJSK_BACKEND`
    /// environment override, falling back to [`BackendKind::Local`]).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    /// Panics when no explicit backend was configured and `HAQJSK_BACKEND`
    /// is set to an unrecognised value — a misconfigured backend (say, a
    /// `dist:` typo) must fail loudly at engine build time instead of
    /// silently executing on a local fallback.
    pub fn build(self) -> Engine {
        let backend = self.backend.unwrap_or_else(|| {
            BackendKind::from_env()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or_default()
        });
        Engine {
            pool: WorkerPool::new(self.threads.unwrap_or_else(default_thread_count)),
            backend,
        }
    }
}

impl Engine {
    /// Starts building an engine with explicit configuration.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The process-global engine, created on first use with
    /// [`default_thread_count`] workers (`HAQJSK_THREADS` override applies)
    /// and the environment-selected backend.
    pub fn global() -> &'static Engine {
        GLOBAL_ENGINE.get_or_init(|| Engine::builder().build())
    }

    /// The underlying pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The engine's default execution backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The tile width of an `n x n` Gram on this engine's pool
    /// ([`gram::auto_tile_width_batched`]). The distributed coordinator
    /// builds its grid with it, so its work units are the local ones.
    pub fn tile_width(&self, n: usize) -> usize {
        gram::auto_tile_width_batched(n, self.pool.threads())
    }

    /// Computes the symmetric `n x n` Gram matrix by handing each tile's
    /// index pairs to `eval` (wrap a per-pair entry function in
    /// [`per_pair`](crate::backend::per_pair)), timed into
    /// `haqjsk_gram_build_seconds`. `backend` overrides the engine default
    /// and only decides where the tiles run: inline for
    /// [`BackendKind::Serial`], on the pool for [`BackendKind::Local`].
    /// Both produce the same bytes.
    pub fn gram<T: TileEvaluator>(
        &self,
        backend: Option<BackendKind>,
        n: usize,
        eval: T,
    ) -> Matrix {
        let start = Instant::now();
        let ran = backend.unwrap_or(self.backend);
        let pool = (ran == BackendKind::Local).then_some(&self.pool);
        let values = gram::run_tiles(pool, n, self.tile_width(n), &eval);
        crate::obs::gram_build_histogram(ran).observe_duration(start.elapsed());
        values
    }

    /// Runs `f` over contiguous chunks of `0..count` through
    /// [`Engine::map`] and returns the results in chunk order. Every chunk
    /// but the last is one batched-eigensolver lane width
    /// (`haqjsk_linalg::max_batch_lanes`), so a caller that batch-solves
    /// each chunk fills its lanes, and the pool hands chunks out one at a
    /// time: a thread that is descheduled or slow holds up one lane width
    /// of work, not a fixed share of the range.
    pub fn map_chunks<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let lanes = haqjsk_linalg::max_batch_lanes();
        self.map(count.div_ceil(lanes), |c| {
            f(c * lanes..((c + 1) * lanes).min(count))
        })
    }

    /// Runs `f` over `0..count` and collects results in index order — the
    /// per-graph feature-extraction companion to [`Engine::gram`]. Inline
    /// when the engine's default backend is [`BackendKind::Serial`], on the
    /// pool otherwise.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        crate::pool::collect_indexed(count, f, |fill| {
            if self.backend == BackendKind::Serial {
                (0..count).for_each(fill);
            } else {
                self.pool.scoped_run(count, fill);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::per_pair;

    #[test]
    fn global_engine_is_shared_and_sized() {
        let a = Engine::global();
        let b = Engine::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn builder_configures_backend_and_threads() {
        let engine = Engine::builder()
            .threads(2)
            .backend(BackendKind::Serial)
            .build();
        assert_eq!(engine.threads(), 2);
        assert_eq!(engine.backend(), BackendKind::Serial);
        let f = |i: usize, j: usize| (i * 3 + j) as f64;
        assert_eq!(engine.gram(None, 6, per_pair(f)), gram::gram_serial(6, f));
    }

    /// The one table-driven scheduler test: inline and pooled (1, 2 and 4
    /// threads) tile runs against the pair-by-pair serial reference.
    #[test]
    fn the_tile_scheduler_matches_the_serial_reference_on_every_path() {
        let f = |i: usize, j: usize| ((i * 31 + j * 17) as f64).sin() * 0.5 + (i * j) as f64;
        let pools: Vec<WorkerPool> = [1, 2, 4].into_iter().map(WorkerPool::new).collect();
        let paths: Vec<(String, Option<&WorkerPool>)> = std::iter::once(("inline".into(), None))
            .chain(
                pools
                    .iter()
                    .map(|p| (format!("pool x{}", p.threads()), Some(p))),
            )
            .collect();
        for n in [0usize, 1, 2, 7, 33] {
            let reference = gram::gram_serial(n, f);
            for tile in [1, 3, 5, n + 1] {
                for (name, pool) in &paths {
                    let full = gram::run_tiles(
                        *pool,
                        n,
                        tile,
                        &|pairs: &[(usize, usize)], out: &mut [f64]| {
                            assert!(!pairs.is_empty(), "tiles are never empty");
                            for (o, &(i, j)) in out.iter_mut().zip(pairs) {
                                assert!(i <= j, "tiles cover the upper triangle");
                                *o = f(i, j);
                            }
                        },
                    );
                    assert_eq!(full, reference, "{name} n={n} tile={tile}");
                }
            }
        }
    }

    #[test]
    fn builds_are_labelled_by_the_path_that_ran() {
        let count = |kind: BackendKind| crate::obs::gram_build_histogram(kind).snapshot().count;
        let engine = Engine::builder().threads(2).build();
        let f = |i: usize, j: usize| (i * 7 + j) as f64;

        for kind in BackendKind::ALL {
            let before = count(kind);
            assert_eq!(
                engine.gram(Some(kind), 9, per_pair(f)),
                gram::gram_serial(9, f)
            );
            assert!(count(kind) > before, "{kind}");
        }
    }

    #[test]
    fn map_preserves_order() {
        for backend in BackendKind::ALL {
            let engine = Engine::builder().threads(4).backend(backend).build();
            let squares = engine.map(100, |i| i * i);
            assert_eq!(squares.len(), 100);
            for (i, &v) in squares.iter().enumerate() {
                assert_eq!(v, i * i, "backend={backend}");
            }
        }
    }

    #[test]
    fn map_chunks_tiles_the_range_in_whole_lane_widths() {
        let lanes = haqjsk_linalg::max_batch_lanes();
        for threads in [1, 2, 4] {
            let engine = Engine::builder().threads(threads).build();
            for count in [
                0,
                1,
                lanes,
                2 * lanes - 1,
                2 * lanes,
                5 * lanes + 3,
                64 * lanes,
            ] {
                let chunks = engine.map_chunks(count, |range| range);
                assert_eq!(chunks.len(), count.div_ceil(lanes));
                assert_eq!(
                    chunks.iter().flat_map(Clone::clone).collect::<Vec<_>>(),
                    (0..count).collect::<Vec<_>>(),
                    "threads={threads} count={count}"
                );
                for (c, chunk) in chunks.iter().enumerate() {
                    let last = c + 1 == chunks.len();
                    assert!(chunk.len() == lanes || (last && !chunk.is_empty()));
                }
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        // Tile width 3 keeps both batches on the pool: 12 graphs make 10
        // tiles and 6 graphs make 3, so neither runs inline as one tile.
        let engine = Engine::builder().threads(2).build();
        let panicking = per_pair(|i, j| {
            if i == 5 && j == 7 {
                panic!("injected failure");
            }
            0.0
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gram::run_tiles(Some(engine.pool()), 12, 3, &panicking)
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The pool survives a panicked batch.
        let sum = per_pair(|i, j| (i + j) as f64);
        let ok = gram::run_tiles(Some(engine.pool()), 6, 3, &sum);
        assert_eq!(ok, gram::gram_serial(6, |i, j| (i + j) as f64));
    }
}
