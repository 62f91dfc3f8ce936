//! The [`GraphKernel`] trait and the Gram-matrix builder.
//!
//! Every kernel in the workspace (the baselines in this crate and the HAQJSK
//! kernels in `haqjsk-core`) exposes the same two operations: a pairwise
//! kernel value and a Gram matrix over a dataset. Every in-process Gram is
//! routed through [`gram_from_tiles`] into the shared
//! [`Engine`] — a process-global worker pool with
//! one tile scheduler — because the quantum
//! kernels pay an `O(n³)` eigendecomposition per pair and datasets contain
//! hundreds to thousands of graphs. The worker count is controlled by the
//! `HAQJSK_THREADS` environment variable. A fitted HAQJSK model's Gram over
//! worker processes does not go through [`gram_from_tiles`]: `haqjsk-dist`'s
//! `Coordinator::model_gram` runs the same tile grid itself.

use crate::matrix::KernelMatrix;
use haqjsk_engine::{per_pair, BackendKind, Engine, TileEvaluator};
use haqjsk_graph::Graph;
use haqjsk_linalg::{LinalgError, Matrix};
use std::sync::OnceLock;

/// A positive (or, for some baselines, indefinite) similarity measure between
/// pairs of graphs.
pub trait GraphKernel: Sync {
    /// Human-readable name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Kernel value between two graphs.
    fn compute(&self, a: &Graph, b: &Graph) -> f64;

    /// Gram matrix over a dataset, on the engine's default execution
    /// backend.
    fn gram_matrix(&self, graphs: &[Graph]) -> KernelMatrix {
        self.gram_matrix_on(graphs, None)
    }

    /// Gram matrix over a dataset on an explicit execution backend (`None`
    /// = the engine default, which honours `HAQJSK_BACKEND`). The backend
    /// only decides where the Gram's tiles (and a HAQJSK extension's new
    /// pairs) run: inline for `Serial`, on the pool for `Local`. Per-graph
    /// feature extraction goes through `Engine::map` under the engine's
    /// default backend. The default implementation evaluates every pair through
    /// [`GraphKernel::compute`]; kernels with per-graph features override
    /// this to hoist them, to hand whole tiles to a batched evaluator, or
    /// to factor through explicit feature maps entirely.
    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        let _timer = time_kernel_gram(self.name());
        let pairs = per_pair(|i, j| self.compute(&graphs[i], &graphs[j]));
        gram_from_tiles(graphs.len(), backend, pairs)
    }

    /// [`GraphKernel::gram_matrix_on`] with a failed feature extraction or
    /// solve returned as an error. The default wraps the infallible Gram;
    /// kernels whose Grams can fail override it, and their
    /// `gram_matrix_on` expects its result.
    fn try_gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        Ok(self.gram_matrix_on(graphs, backend))
    }
}

/// RAII guard recording one Gram build into the
/// `haqjsk_kernel_gram_seconds{kernel=...}` histogram on drop. Every
/// `gram_matrix_on` implementation (the trait default and the kernels that
/// override it) opens one at entry, so per-kernel build latency is
/// observable regardless of which scheduling path a kernel takes. One
/// registry lookup and one clock pair per Gram matrix — nothing per pair.
pub struct KernelGramTimer {
    histogram: haqjsk_obs::Histogram,
    start: std::time::Instant,
}

/// Starts timing a Gram build of `kernel` (see [`KernelGramTimer`]).
pub fn time_kernel_gram(kernel: &str) -> KernelGramTimer {
    KernelGramTimer {
        histogram: haqjsk_engine::obs::kernel_gram_histogram(kernel),
        start: std::time::Instant::now(),
    }
}

impl Drop for KernelGramTimer {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.start.elapsed());
    }
}

/// Builds a Gram matrix over `n` items through the engine's tile
/// scheduler: each tile's index pairs go to `tiles` in one call, so kernels
/// that batch per-pair work (the tile-batched mixture eigensolves of
/// QJSK/JTQK) see whole tiles; per-pair kernels wrap their entry function
/// in [`per_pair`].
pub fn gram_from_tiles<T: TileEvaluator>(
    n: usize,
    backend: Option<BackendKind>,
    tiles: T,
) -> KernelMatrix {
    let values = Engine::global().gram(backend, n, tiles);
    KernelMatrix::new(values).expect("tile construction is symmetric")
}

/// Runs one Gram build over fallible tiles. `build` gets an infallible
/// [`TileEvaluator`] view of `tiles`: a tile that fails leaves its
/// remaining entries at 0 and keeps its error rather than panicking on a
/// pool thread. The build's value is returned only when every tile
/// succeeded, and otherwise the first error kept.
pub fn with_fallible_tiles<T, F>(
    tiles: F,
    build: impl FnOnce(&(dyn Fn(&[(usize, usize)], &mut [f64]) + Sync)) -> T,
) -> Result<T, LinalgError>
where
    F: Fn(&[(usize, usize)], &mut [f64]) -> Result<(), LinalgError> + Sync,
{
    let failure = OnceLock::new();
    let value = build(&|pairs: &[(usize, usize)], out: &mut [f64]| {
        if let Err(e) = tiles(pairs, out) {
            let _ = failure.set(e);
        }
    });
    match failure.into_inner() {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

/// A quantum baseline (QJSK-U, QJSK-A, JTQK) with one evaluation path:
/// per-graph inputs are extracted once per graph, and every evaluation —
/// one pair ([`GraphKernel::compute`]) or a Gram tile — is one
/// [`PairBatchKernel::kernel_batch`] call over a slice of input pairs,
/// which makes one batched mixture-entropy solve.
pub(crate) trait PairBatchKernel: GraphKernel {
    /// The per-graph artifacts one pair evaluation reads.
    type Inputs: Send + Sync;

    /// Extracts the inputs of one graph; an empty graph or an unconverged
    /// spectrum is an error.
    fn extract(&self, graph: &Graph) -> Result<Self::Inputs, LinalgError>;

    /// Writes the kernel value of every input pair to `out`.
    fn kernel_batch(
        &self,
        pairs: &[(&Self::Inputs, &Self::Inputs)],
        out: &mut [f64],
    ) -> Result<(), LinalgError>;
}

/// What a baseline's infallible entry points (`compute`, `gram_matrix_on`)
/// expect of their graphs.
pub(crate) const INPUTS: &str = "baseline graphs are non-empty and their spectra converge";

/// The one-pair case of [`PairBatchKernel::kernel_batch`].
/// [`GraphKernel::compute`] has no error channel, so a failed extraction or
/// solve panics here; a Gram returns it instead.
pub(crate) fn compute_pair<K: PairBatchKernel>(kernel: &K, a: &Graph, b: &Graph) -> f64 {
    let pair = || {
        let (a, b) = (kernel.extract(a)?, kernel.extract(b)?);
        let mut out = [0.0];
        kernel.kernel_batch(&[(&a, &b)], &mut out)?;
        Ok::<_, LinalgError>(out[0])
    };
    pair().expect(INPUTS)
}

/// The Gram matrix of a [`PairBatchKernel`]: every graph's inputs are
/// extracted once, up front, on the engine's pool, and every tile is one
/// [`PairBatchKernel::kernel_batch`] call, on the local tile scheduler
/// under any backend. The first failed extraction or tile is the error.
pub(crate) fn pair_batch_gram<K: PairBatchKernel>(
    kernel: &K,
    graphs: &[Graph],
    backend: Option<BackendKind>,
) -> Result<KernelMatrix, LinalgError> {
    let _timer = time_kernel_gram(kernel.name());
    let inputs = Engine::global()
        .map(graphs.len(), |i| kernel.extract(&graphs[i]))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let tiles = |pairs: &[(usize, usize)], out: &mut [f64]| {
        let pairs: Vec<_> = pairs
            .iter()
            .map(|&(i, j)| (&inputs[i], &inputs[j]))
            .collect();
        kernel.kernel_batch(&pairs, out)
    };
    with_fallible_tiles(tiles, |tiles| gram_from_tiles(graphs.len(), backend, tiles))
}

/// Builds a Gram matrix from explicit feature vectors using the linear kernel
/// `K(i, j) = ⟨x_i, x_j⟩` — the shape that the WL, shortest-path and graphlet
/// kernels all reduce to once their feature histograms are extracted.
pub fn gram_from_features(features: &[Vec<f64>]) -> KernelMatrix {
    let n = features.len();
    let mut values = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = dot_sparse(&features[i], &features[j]);
            values[(i, j)] = v;
            values[(j, i)] = v;
        }
    }
    KernelMatrix::new(values).expect("feature construction is symmetric")
}

fn dot_sparse(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len().min(b.len());
    let mut acc = 0.0;
    for k in 0..len {
        acc += a[k] * b[k];
    }
    acc
}

/// Merge-join dot product of two sorted sparse feature vectors — the
/// shared inner product of the CSR-style feature-map kernels (WL,
/// shortest-path, and JTQK's per-graph local factor).
pub fn sparse_dot<K: Ord>(a: &[(K, f64)], b: &[(K, f64)]) -> f64 {
    let mut acc = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Sorted run-length histogram of a key multiset — the construction step
/// of every CSR-style sparse feature vector (sorted unique keys + counts).
pub(crate) fn sorted_histogram<K: Ord>(mut keys: Vec<K>) -> Vec<(K, f64)> {
    keys.sort_unstable();
    let mut out: Vec<(K, f64)> = Vec::new();
    for key in keys {
        match out.last_mut() {
            Some((k, count)) if *k == key => *count += 1.0,
            _ => out.push((key, 1.0)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_engine::gram::gram_serial;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    /// A trivially simple kernel counting shared edge counts, used to test
    /// the default plumbing.
    struct EdgeCountKernel;

    impl GraphKernel for EdgeCountKernel {
        fn name(&self) -> &'static str {
            "edge-count"
        }
        fn compute(&self, a: &Graph, b: &Graph) -> f64 {
            (a.num_edges() * b.num_edges()) as f64
        }
    }

    #[test]
    fn default_gram_matches_pairwise_values() {
        let graphs = vec![path_graph(4), cycle_graph(5), star_graph(6)];
        let kernel = EdgeCountKernel;
        let gram = kernel.gram_matrix(&graphs);
        assert_eq!(gram.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(gram.get(i, j), kernel.compute(&graphs[i], &graphs[j]));
            }
        }
        assert_eq!(kernel.name(), "edge-count");
    }

    #[test]
    fn gram_of_empty_dataset() {
        let gram = EdgeCountKernel.gram_matrix(&[]);
        assert!(gram.is_empty());
    }

    #[test]
    fn gram_handles_large_pair_counts() {
        let graphs: Vec<Graph> = (3..23).map(path_graph).collect();
        let gram = EdgeCountKernel.gram_matrix(&graphs);
        assert_eq!(gram.len(), 20);
        // Spot check symmetry.
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(gram.get(i, j), gram.get(j, i));
            }
        }
    }

    #[test]
    fn tile_gram_matches_engine_serial_path() {
        let f = |i: usize, j: usize| (i * 7 + j * 3) as f64;
        let gram = gram_from_tiles(9, None, per_pair(f));
        let serial = gram_serial(9, f);
        assert_eq!(gram.matrix(), &serial);
    }

    #[test]
    fn a_failing_tile_fails_the_gram_on_every_local_backend() {
        let f = |i: usize, j: usize| (i * 7 + j * 3) as f64;
        let tiles = |bad: usize| {
            move |pairs: &[(usize, usize)], out: &mut [f64]| {
                for (o, &(i, j)) in out.iter_mut().zip(pairs) {
                    if i == bad || j == bad {
                        return Err(LinalgError::InvalidArgument(format!("pair ({i}, {j})")));
                    }
                    *o = f(i, j);
                }
                Ok(())
            }
        };
        for backend in [BackendKind::Serial, BackendKind::Local] {
            let gram = with_fallible_tiles(tiles(usize::MAX), |tiles| {
                gram_from_tiles(9, Some(backend), tiles)
            });
            assert_eq!(gram.unwrap().matrix(), &gram_serial(9, f));
            let gram =
                with_fallible_tiles(tiles(4), |tiles| gram_from_tiles(9, Some(backend), tiles));
            assert!(matches!(gram, Err(LinalgError::InvalidArgument(_))));
        }
    }

    #[test]
    fn feature_gram_is_linear_kernel() {
        let features = vec![vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 1.0], vec![1.0, 1.0]];
        let gram = gram_from_features(&features);
        assert_eq!(gram.get(0, 0), 5.0);
        assert_eq!(gram.get(0, 1), 2.0);
        // Mismatched lengths are handled by truncation to the shared prefix.
        assert_eq!(gram.get(0, 2), 1.0);
        assert!(gram.is_positive_semidefinite(1e-9).unwrap());
    }
}
