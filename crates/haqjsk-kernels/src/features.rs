//! Process-global caching of per-graph quantum features.
//!
//! The quantum baselines (QJSK, JTQK) pay an `O(n³)` eigendecomposition per
//! CTQW density matrix. The density matrix depends only on the graph, so the
//! engine's [`FeatureCache`] memoises it under the structural graph hash:
//! within one Gram computation each graph's density is computed exactly
//! once, and across calls (cross-validation repetitions, serving requests
//! touching the same graphs) previously seen graphs are free.
//!
//! ## Memory policy
//!
//! The cache is sharded by key range and supports an LRU byte budget (see
//! [`CacheConfig`]): long-running processes serving unbounded graph streams
//! should bound residency with a budget — set `HAQJSK_CACHE_BUDGET` (bytes,
//! or `64k`/`256m`/`2g`) before the first use, or call
//! [`set_density_cache_budget`] at runtime — and let LRU eviction keep the
//! hot graphs resident. [`clear_density_cache`] still
//! exists for *hard* boundaries (switching datasets in a benchmark, model
//! replacement) where stale features must not survive at all; it is no
//! longer the memory-pressure answer — it drains every shard through the
//! same eviction path the budget uses and resets the counters.

use crate::kernel::sparse_dot;
use crate::wl::{WeisfeilerLehmanKernel, WlFeatureVec};
use haqjsk_engine::{
    graph_key, CacheConfig, CacheStats, CacheWeight, Engine, FeatureCache, GraphKey, ShardStats,
};
use haqjsk_graph::Graph;
use haqjsk_linalg::{symmetric_eigen, Matrix};
use haqjsk_quantum::{ctqw_density_infinite, entropy_of_spectrum, DensityMatrix};
use std::sync::{Arc, OnceLock};

static DENSITY_CACHE: OnceLock<FeatureCache<DensityMatrix>> = OnceLock::new();
static SPECTRAL_CACHE: OnceLock<FeatureCache<GraphSpectrals>> = OnceLock::new();
static ALIGNMENT_CACHE: OnceLock<FeatureCache<AlignmentBasis>> = OnceLock::new();
static WL_CACHE: OnceLock<FeatureCache<WlHistogram>> = OnceLock::new();

/// Per-graph spectral summary of the CTQW density matrix: the clamped
/// eigenvalue spectrum and its von Neumann entropy.
///
/// Both quantities depend only on the graph, and both are invariant under
/// the zero-padding the pairwise kernels apply (padding adds exact-zero
/// eigenvalues, which contribute nothing to any entropy), so the pair loops
/// can consume these cached values instead of re-decomposing the endpoint
/// states for every pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpectrals {
    /// Eigenvalues of the CTQW density in ascending order, clamped to
    /// `[0, 1]` (exactly [`DensityMatrix::spectrum`]).
    pub spectrum: Vec<f64>,
    /// Von Neumann entropy `H_N(ρ) = -Σ λ ln λ` of that spectrum.
    pub von_neumann_entropy: f64,
}

impl CacheWeight for GraphSpectrals {
    fn weight(&self) -> usize {
        std::mem::size_of::<GraphSpectrals>() + self.spectrum.len() * std::mem::size_of::<f64>()
    }
}

/// Per-graph eigenvector-magnitude basis used by the Umeyama spectral
/// matching of the aligned QJSK kernel.
///
/// Umeyama's profit matrix consumes `|U|` of the *zero-padded* density's
/// eigendecomposition, whose column order depends on the pair's padded
/// dimension. Because the eigen solver treats the zero padding as an exact
/// no-op (the padded rows Householder to nothing and the stable ascending
/// sort slots the padding's unit eigenvectors right after the non-positive
/// eigenvalues), the padded basis is reconstructible from this per-graph
/// artifact for **any** target dimension — see
/// [`AlignmentBasis::padded_abs_eigenvectors`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentBasis {
    /// `|U|` of the sorted eigendecomposition of the (unpadded) density.
    pub abs_eigenvectors: Matrix,
    /// Number of eigenvalues `λ <= 0.0` — the column index where padding's
    /// unit eigenvectors are slotted by the stable ascending sort.
    pub nonpositive_eigenvalues: usize,
}

impl AlignmentBasis {
    /// Builds the basis from a density matrix.
    pub fn from_density(rho: &DensityMatrix) -> AlignmentBasis {
        AlignmentBasis::from_eigen(
            &symmetric_eigen(rho.matrix()).expect("density matrices are symmetric"),
        )
    }

    /// Builds the basis from an already-computed decomposition of the
    /// density.
    pub fn from_eigen(eig: &haqjsk_linalg::SymmetricEigen) -> AlignmentBasis {
        let nonpositive = eig.eigenvalues.iter().filter(|&&l| l <= 0.0).count();
        AlignmentBasis {
            abs_eigenvectors: eig.eigenvectors.map(f64::abs),
            nonpositive_eigenvalues: nonpositive,
        }
    }

    /// The dimension of the underlying state.
    pub fn dim(&self) -> usize {
        self.abs_eigenvectors.rows()
    }

    /// Reconstructs `|U|` of the eigendecomposition of the density
    /// zero-padded to dimension `n`, bit-identical to running
    /// `symmetric_eigen` on the padded matrix: the original columns keep
    /// their stable ascending order, and the padding contributes unit
    /// eigenvectors (eigenvalue exactly `0.0`) slotted after the original
    /// non-positive eigenvalues.
    pub fn padded_abs_eigenvectors(&self, n: usize) -> Matrix {
        let dim = self.dim();
        assert!(n >= dim, "cannot pad a {dim}-state down to {n}");
        let pad = n - dim;
        let split = self.nonpositive_eigenvalues;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            if k < split {
                for i in 0..dim {
                    out[(i, k)] = self.abs_eigenvectors[(i, k)];
                }
            } else if k < split + pad {
                out[(dim + (k - split), k)] = 1.0;
            } else {
                let src = k - pad;
                for i in 0..dim {
                    out[(i, k)] = self.abs_eigenvectors[(i, src)];
                }
            }
        }
        out
    }
}

impl CacheWeight for AlignmentBasis {
    fn weight(&self) -> usize {
        std::mem::size_of::<AlignmentBasis>() + self.dim() * self.dim() * std::mem::size_of::<f64>()
    }
}

/// Per-graph Weisfeiler–Lehman label histogram (sorted sparse vector) plus
/// its self-similarity — the local-factor artifact of the JTQK pair loop.
///
/// WL labels are content-addressed (see [`crate::wl`]), so histograms
/// computed independently per graph are directly comparable: the JTQK
/// cross term reduces to one merge-join sparse dot per pair instead of a
/// full WL refinement of both graphs per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WlHistogram {
    /// Concatenated per-round label histogram, sorted by feature key.
    pub features: WlFeatureVec,
    /// `⟨features, features⟩` — the normalisation term of the cosine WL
    /// similarity, precomputed with the same merge-join dot the cross
    /// terms use.
    pub self_similarity: f64,
}

impl CacheWeight for WlHistogram {
    fn weight(&self) -> usize {
        std::mem::size_of::<WlHistogram>() + self.features.len() * std::mem::size_of::<(u64, f64)>()
    }
}

/// Zero-pads `rho` up to dimension `n`, borrowing it unchanged when it is
/// already that size — the common same-sized-graphs case in the kernel
/// pair loops skips the O(n²) copy.
pub(crate) fn pad_to<'a>(
    rho: &'a DensityMatrix,
    n: usize,
    storage: &'a mut Option<DensityMatrix>,
) -> &'a DensityMatrix {
    if rho.dim() == n {
        rho
    } else {
        storage.insert(rho.zero_pad(n).expect("padding up never fails"))
    }
}

/// Splits a total feature-cache byte budget across the four caches by
/// weight class: densities and alignment bases are both `n²` residents and
/// share the bulk evenly; spectra and WL histograms are `O(n)` and split
/// the small remainder. Keeps `HAQJSK_CACHE_BUDGET` (and
/// [`set_density_cache_budget`]) meaning "total resident feature bytes",
/// as it did when the density cache was the only cache.
/// The caches' budget slices: `(density, alignment, spectral, wl)`.
type BudgetSplit = (Option<usize>, Option<usize>, Option<usize>, Option<usize>);

fn split_budget(total: Option<usize>) -> BudgetSplit {
    match total {
        None => (None, None, None, None),
        Some(total) => {
            let small = total / 8;
            let spectral = small / 2;
            let wl = small - spectral;
            let density = (total - small) / 2;
            let alignment = total - small - density;
            (Some(density), Some(alignment), Some(spectral), Some(wl))
        }
    }
}

/// Environment configuration of one of the four feature caches: this
/// cache's slice of the total budget.
fn cache_from_env<V>(slice: fn(&BudgetSplit) -> Option<usize>) -> FeatureCache<V> {
    let mut config = CacheConfig::from_env();
    config.budget_bytes = slice(&split_budget(config.budget_bytes));
    FeatureCache::with_config(config)
}

/// The process-global CTQW density-matrix cache, configured on first use
/// from the environment (`HAQJSK_CACHE_BUDGET` — a *total* across the
/// density/spectral/alignment/WL caches, split by `split_budget`).
pub fn density_cache() -> &'static FeatureCache<DensityMatrix> {
    DENSITY_CACHE.get_or_init(|| cache_from_env(|b| b.0))
}

/// The cached time-averaged CTQW density matrix of `graph`, computed on
/// first request. Panics on empty graphs (as the uncached path does).
pub fn cached_ctqw_density(graph: &Graph) -> Arc<DensityMatrix> {
    density_cache().get_or_compute(graph_key(graph), || {
        ctqw_density_infinite(graph).expect("non-empty graph")
    })
}

/// Cached density matrices for a whole dataset, computed in parallel on the
/// engine's worker pool (each distinct graph exactly once while resident).
pub fn cached_ctqw_densities(graphs: &[Graph]) -> Vec<Arc<DensityMatrix>> {
    Engine::global().map(graphs.len(), |i| cached_ctqw_density(&graphs[i]))
}

/// The process-global spectral-summary cache (spectrum + von Neumann
/// entropy of each graph's CTQW density), sharing the density cache's
/// environment configuration (and its slice of the total budget).
pub fn spectral_cache() -> &'static FeatureCache<GraphSpectrals> {
    SPECTRAL_CACHE.get_or_init(|| cache_from_env(|b| b.2))
}

/// Builds the spectral summary from an already-computed spectrum.
fn spectrals_from_spectrum(spectrum: Vec<f64>) -> GraphSpectrals {
    let von_neumann_entropy = entropy_of_spectrum(&spectrum);
    GraphSpectrals {
        spectrum,
        von_neumann_entropy,
    }
}

/// The cached spectral summary of `graph`'s CTQW density: eigenvalue
/// spectrum (values-only solve) and von Neumann entropy, computed once per
/// resident graph. This is the per-graph half of the QJSD the pair loops
/// no longer recompute per pair.
pub fn cached_graph_spectrals(graph: &Graph) -> Arc<GraphSpectrals> {
    spectral_cache().get_or_compute(graph_key(graph), || {
        spectrals_from_spectrum(cached_ctqw_density(graph).spectrum())
    })
}

/// The process-global Umeyama alignment-basis cache (eigenvector
/// magnitudes of each graph's CTQW density), with its slice of the total
/// byte budget.
pub fn alignment_cache() -> &'static FeatureCache<AlignmentBasis> {
    ALIGNMENT_CACHE.get_or_init(|| cache_from_env(|b| b.1))
}

/// The cached Umeyama alignment basis of `graph`'s CTQW density — the one
/// place the aligned QJSK kernel still needs eigen*vectors*, hoisted out of
/// the pair loop because `|U|` of any zero-padded version is
/// reconstructible from it ([`AlignmentBasis::padded_abs_eigenvectors`]).
///
/// The full decomposition computed here also yields the eigenvalue
/// spectrum bit-identically to the values-only driver, so the spectral
/// cache is warmed from the same solve — a cold aligned Gram pays one
/// eigensolve per graph for both artifacts, not two.
pub fn cached_alignment_basis(graph: &Graph) -> Arc<AlignmentBasis> {
    let key = graph_key(graph);
    alignment_cache().get_or_compute(key, || {
        let rho = cached_ctqw_density(graph);
        let eig = symmetric_eigen(rho.matrix()).expect("density matrices are symmetric");
        let _ = spectral_cache().get_or_compute(key, || {
            spectrals_from_spectrum(eig.eigenvalues.iter().map(|l| l.clamp(0.0, 1.0)).collect())
        });
        AlignmentBasis::from_eigen(&eig)
    })
}

/// The process-global WL label-histogram cache (the JTQK local-factor
/// artifact), with its slice of the total byte budget.
pub fn wl_cache() -> &'static FeatureCache<WlHistogram> {
    WL_CACHE.get_or_init(|| cache_from_env(|b| b.3))
}

/// The cached WL label histogram of `graph` at `iterations` refinement
/// rounds, computed once per resident `(graph, iterations)` pair. The key
/// mixes the refinement depth into the structural graph hash so kernels
/// with different WL heights coexist in the cache.
pub fn cached_wl_histogram(graph: &Graph, iterations: usize) -> Arc<WlHistogram> {
    let base = graph_key(graph);
    let key = GraphKey(
        base.0 ^ (iterations as u128 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835),
    );
    wl_cache().get_or_compute(key, || {
        let features = WeisfeilerLehmanKernel::new(iterations).feature_map(graph);
        let self_similarity = sparse_dot(&features, &features);
        WlHistogram {
            features,
            self_similarity,
        }
    })
}

/// Registers the feature caches with the process-global metrics registry:
/// a collector re-exports each cache's own atomic counters as
/// `haqjsk_cache_*` metrics labelled by cache name at every snapshot.
/// Idempotent; call before scraping.
pub fn register_cache_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        type StatsFn = fn() -> CacheStats;
        let registry = haqjsk_obs::registry();
        let caches: Vec<(&'static str, StatsFn)> = vec![
            ("density", || density_cache().stats()),
            ("spectral", || spectral_cache().stats()),
            ("alignment", || alignment_cache().stats()),
            ("wl", || wl_cache().stats()),
        ];
        let exports: Vec<_> = caches
            .into_iter()
            .map(|(name, stats)| {
                let labels = [("cache", name)];
                (
                    stats,
                    registry.counter(
                        "haqjsk_cache_hits_total",
                        "Feature-cache hits, by cache.",
                        &labels,
                    ),
                    registry.counter(
                        "haqjsk_cache_misses_total",
                        "Feature-cache misses, by cache.",
                        &labels,
                    ),
                    registry.counter(
                        "haqjsk_cache_evictions_total",
                        "Feature-cache LRU evictions, by cache.",
                        &labels,
                    ),
                    registry.gauge(
                        "haqjsk_cache_entries",
                        "Resident feature-cache entries, by cache.",
                        &labels,
                    ),
                    registry.gauge(
                        "haqjsk_cache_resident_bytes",
                        "Resident feature-cache bytes, by cache.",
                        &labels,
                    ),
                )
            })
            .collect();
        registry.register_collector(move || {
            for (stats, hits, misses, evictions, entries, bytes) in &exports {
                let s = stats();
                hits.store(s.hits as u64);
                misses.store(s.misses as u64);
                evictions.store(s.evictions as u64);
                entries.set(s.entries as f64);
                bytes.set(s.resident_bytes as f64);
            }
        });
    });
}

/// Aggregate hit/miss/entry/eviction counters of the density cache.
pub fn density_cache_stats() -> CacheStats {
    density_cache().stats()
}

/// Per-shard counters of the density cache, in shard order.
pub fn density_cache_shard_stats() -> Vec<ShardStats> {
    density_cache().shard_stats()
}

/// Re-budgets the per-graph feature caches at runtime: `Some(bytes)` bounds
/// the **total** resident feature bytes (evicting LRU entries immediately
/// if needed), `None` lifts the bound. The total is split across the
/// density, spectral and alignment caches by `split_budget` — the
/// alignment bases are the same `n²` weight class as the densities, so
/// bounding only the density cache would leave roughly half the resident
/// footprint uncontrolled. This mirrors `HAQJSK_CACHE_BUDGET` (also a
/// total) and is the recommended memory-pressure control for long-running
/// processes.
pub fn set_density_cache_budget(budget_bytes: Option<usize>) {
    let (density, alignment, spectral, wl) = split_budget(budget_bytes);
    density_cache().set_budget(density);
    alignment_cache().set_budget(alignment);
    spectral_cache().set_budget(spectral);
    wl_cache().set_budget(wl);
}

/// Drops all cached density matrices **and the spectral/alignment
/// artifacts derived from them**, resetting every counter — a hard boundary
/// for benchmarks and tests. For bounded memory in production use
/// [`set_density_cache_budget`] (or the `HAQJSK_CACHE_BUDGET` environment
/// variable) instead: eviction keeps hot graphs resident, a clear forgets
/// everything.
pub fn clear_density_cache() {
    density_cache().clear();
    spectral_cache().clear();
    alignment_cache().clear();
    wl_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph};

    #[test]
    fn cached_density_matches_direct_computation() {
        let g = cycle_graph(7);
        let cached = cached_ctqw_density(&g);
        let direct = ctqw_density_infinite(&g).unwrap();
        assert_eq!(cached.matrix(), direct.matrix());
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        // The second request returns the very allocation the first one
        // cached. Pointer identity, not the process-global hit/miss
        // counters, which other tests in this binary move concurrently;
        // exact counting is pinned on a private cache by the engine's
        // `cache::tests::computes_once_and_counts`.
        let g = path_graph(9);
        let first = cached_ctqw_density(&g);
        let second = cached_ctqw_density(&g);
        assert!(Arc::ptr_eq(&first, &second), "served from the cache");
        assert_eq!(first.matrix(), second.matrix());
    }

    #[test]
    fn batch_extraction_caches_every_graph() {
        let graphs: Vec<Graph> = (4..10).map(cycle_graph).collect();
        let densities = cached_ctqw_densities(&graphs);
        assert_eq!(densities.len(), graphs.len());
        for (g, rho) in graphs.iter().zip(&densities) {
            assert_eq!(rho.dim(), g.num_vertices());
        }
        // A second pass is answered from the cache entirely: every graph
        // gets back the allocation the first pass cached.
        let again = cached_ctqw_densities(&graphs);
        for (a, b) in densities.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "served from the cache");
            assert_eq!(a.matrix(), b.matrix());
        }
    }

    #[test]
    fn spectral_artifacts_match_direct_computation() {
        let g = cycle_graph(6);
        let rho = cached_ctqw_density(&g);
        let spectrals = cached_graph_spectrals(&g);
        assert_eq!(spectrals.spectrum, rho.spectrum());
        assert_eq!(
            spectrals.von_neumann_entropy,
            entropy_of_spectrum(&rho.spectrum())
        );
        // Padding invariance: the entropy of the padded state is the same.
        let padded = rho.zero_pad(9).unwrap();
        assert_eq!(
            spectrals.von_neumann_entropy,
            entropy_of_spectrum(&padded.spectrum()),
            "zero-padding must not change the entropy at all"
        );
    }

    #[test]
    fn padded_alignment_basis_is_bit_identical_to_padded_decomposition() {
        use haqjsk_graph::generators::{erdos_renyi, star_graph};
        // The reconstruction claim behind the aligned fast path: |U| of the
        // zero-padded density's eigendecomposition equals the per-graph
        // basis with padding's unit eigenvectors slotted after the
        // non-positive eigenvalues — bit for bit, so the Umeyama profit
        // matrix (and hence the Hungarian permutation) cannot drift.
        let graphs = vec![
            path_graph(5),
            cycle_graph(6),
            star_graph(7),
            erdos_renyi(9, 0.4, 7),
        ];
        for g in &graphs {
            let rho = cached_ctqw_density(g);
            let basis = AlignmentBasis::from_density(&rho);
            for n in [rho.dim(), rho.dim() + 1, rho.dim() + 4] {
                let padded = rho.zero_pad(n).unwrap();
                let direct = symmetric_eigen(padded.matrix())
                    .unwrap()
                    .eigenvectors
                    .map(f64::abs);
                let reconstructed = basis.padded_abs_eigenvectors(n);
                assert_eq!(
                    direct,
                    reconstructed,
                    "padded |U| reconstruction must be exact (dim {} -> {n})",
                    rho.dim()
                );
            }
        }
    }

    #[test]
    fn shard_stats_cover_the_aggregate() {
        // The sums are checked on a private cache: the process-global one
        // moves between its aggregate and per-shard reads while other
        // tests in this binary insert.
        let cache: FeatureCache<DensityMatrix> =
            FeatureCache::with_config(CacheConfig::with_budget(16 << 10));
        for n in (4..16).chain(4..9) {
            let g = path_graph(n);
            cache.get_or_compute(graph_key(&g), || ctqw_density_infinite(&g).unwrap());
        }
        let total = cache.stats();
        let shards = cache.shard_stats();
        let sum = |field: fn(&ShardStats) -> usize| shards.iter().map(field).sum::<usize>();
        assert_eq!(sum(|s| s.entries), total.entries);
        assert_eq!(sum(|s| s.hits), total.hits);
        assert_eq!(sum(|s| s.misses), total.misses);
        assert_eq!(sum(|s| s.evictions), total.evictions);
        assert_eq!(sum(|s| s.resident_bytes), total.resident_bytes);
        assert_eq!(total.hits + total.misses, 17);
        // The global accessor reports one row per shard.
        assert_eq!(density_cache_shard_stats().len(), shards.len());
    }
}
