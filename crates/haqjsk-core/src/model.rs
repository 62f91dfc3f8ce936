//! The fitted HAQJSK model and the two kernels (Definitions 3.1 and 3.2).
//!
//! [`HaqjskModel::fit`] learns the prototype hierarchy from a dataset;
//! [`HaqjskModel::transform`] maps any graph (from the training set or not)
//! into its hierarchical transitive aligned structures
//! ([`HaqjskModel::fit_transform_cached`] does both for a training set,
//! reusing the fit's DB traces); and
//! [`HaqjskModel::kernel_batch`] / [`HaqjskModel::gram_matrix`] evaluate
//!
//! ```text
//! K^A_HAQJS(G_p, G_q) = Σ_{h=1..H} exp(-μ · D_QJS(δ(Ā^h_p), δ(Ā^h_q)))      (Eq. 26)
//! K^D_HAQJS(G_p, G_q) = Σ_{h=1..H} exp(-μ · D_QJS(ρ̄^h_p, ρ̄^h_q))           (Eq. 29)
//! ```
//!
//! where `δ(·)` is the CTQW density matrix of an (aligned, weighted)
//! adjacency matrix. Because every graph is compared through the *same*
//! fixed-size, transitively aligned structures, the kernels are permutation
//! invariant and positive definite (the paper's Lemma); the property-based
//! tests and the `psd_check` benchmark verify this empirically.
//!
//! Every evaluation — a single pair, a Gram tile, a served kernel row, a
//! dist worker's tile — runs through [`HaqjskModel::kernel_batch`]: the
//! endpoint entropies are memoised in the per-level states, so each pair
//! costs one new eigensolve per level (its mixture's), and each level's
//! mixtures are solved together by the batched eigensolver.

use crate::aligned::{aligned_adjacency_family, aligned_density_family};
use crate::config::{HaqjskConfig, HaqjskVariant};
use crate::correspondence::GraphCorrespondences;
use crate::db_representation::DbRepresentations;
use crate::hierarchy::PrototypeHierarchy;
use haqjsk_engine::obs::HistogramTimer;
use haqjsk_engine::{graph_key, BackendKind, CacheWeight, Engine, FeatureCache};
use haqjsk_graph::Graph;
use haqjsk_kernels::kernel::{gram_from_tiles, time_kernel_gram, with_fallible_tiles};
use haqjsk_kernels::{GraphKernel, KernelMatrix};
use haqjsk_linalg::{max_batch_lanes, LinalgError, Matrix};
use haqjsk_quantum::ctqw::ctqw_density_from_adjacency;
use haqjsk_quantum::{batch_qjsd, DensityMatrix};
use std::borrow::Borrow;
use std::sync::Arc;

/// Histogram of one fit phase's wall time (`haqjsk_fit_phase_seconds`),
/// observed once per fit: `db_traces` (the training graphs' DB traces) or
/// `prototypes` (the κ-means prototype hierarchy).
fn fit_phase_histogram(phase: &'static str) -> haqjsk_obs::Histogram {
    haqjsk_obs::registry().histogram(
        "haqjsk_fit_phase_seconds",
        "Wall-clock time of one phase of a HAQJSK fit, by phase.",
        &[("phase", phase)],
    )
}

/// The hierarchical aligned representation of a single graph, ready for
/// kernel evaluation against any other graph aligned to the same prototypes.
#[derive(Debug, Clone, Default)]
pub struct AlignedGraph {
    /// Per hierarchy level `h`: the CTQW density matrix `δ(Ā^h)` of the
    /// aligned adjacency matrix (HAQJSK(A)); empty from a (D) model.
    pub adjacency_densities: Vec<DensityMatrix>,
    /// Per hierarchy level `h`: the aligned density matrix `ρ̄^h`
    /// (HAQJSK(D)); empty from an (A) model.
    pub aligned_densities: Vec<DensityMatrix>,
}

impl AlignedGraph {
    /// The per-level density matrices used by the requested kernel variant.
    pub fn densities(&self, variant: HaqjskVariant) -> &[DensityMatrix] {
        match variant {
            HaqjskVariant::AlignedAdjacency => &self.adjacency_densities,
            HaqjskVariant::AlignedDensity => &self.aligned_densities,
        }
    }
}

/// Aligned representations live in the serving layer's budgeted feature
/// cache; their weight is the per-level density families they hold (one,
/// for a model's transform).
impl CacheWeight for AlignedGraph {
    fn weight(&self) -> usize {
        let densities = self
            .adjacency_densities
            .iter()
            .chain(self.aligned_densities.iter())
            .map(CacheWeight::weight)
            .sum::<usize>();
        std::mem::size_of::<AlignedGraph>() + densities
    }
}

/// A dataset's transforms through a [`FeatureCache`], or the first failing
/// transform's error.
pub type CachedTransforms = Result<Vec<Arc<AlignedGraph>>, LinalgError>;

/// A HAQJSK model fitted to a dataset: the depth-based representation layer
/// count `K`, the prototype hierarchy, and the configuration.
#[derive(Debug, Clone)]
pub struct HaqjskModel {
    config: HaqjskConfig,
    variant: HaqjskVariant,
    max_layers: usize,
    hierarchy: PrototypeHierarchy,
}

impl HaqjskModel {
    /// Stable remote kernel id for fitted-model Grams: the distributed
    /// backend ships the persisted model (`persistence::model_to_string`)
    /// as a content-addressed artifact under this id, and workers
    /// reconstruct the model with `persistence::model_from_string`.
    pub const REMOTE_KERNEL_ID: &'static str = "haqjsk_model";

    /// Assembles a model from already-learned parts (used when restoring a
    /// persisted model); `fit` is the normal way to obtain one.
    pub fn from_parts(
        config: HaqjskConfig,
        variant: HaqjskVariant,
        max_layers: usize,
        hierarchy: PrototypeHierarchy,
    ) -> Self {
        HaqjskModel {
            config,
            variant,
            max_layers,
            hierarchy,
        }
    }

    /// Fits the model (learns the hierarchical prototypes) on a dataset.
    pub fn fit(
        graphs: &[Graph],
        config: HaqjskConfig,
        variant: HaqjskVariant,
    ) -> Result<Self, LinalgError> {
        Self::fit_traced(graphs, config, variant).map(|(model, _)| model)
    }

    /// [`HaqjskModel::fit`], also returning the training graphs' DB traces
    /// it learned the prototypes from. Emits one `hierarchy.db_repr` and
    /// one `hierarchy.build` span, and observes each phase once in
    /// `haqjsk_fit_phase_seconds` (`db_traces`, `prototypes`).
    fn fit_traced(
        graphs: &[Graph],
        config: HaqjskConfig,
        variant: HaqjskVariant,
    ) -> Result<(Self, DbRepresentations), LinalgError> {
        config.validate().map_err(LinalgError::InvalidArgument)?;
        if graphs.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "cannot fit a HAQJSK model on an empty dataset".to_string(),
            ));
        }
        let representations = {
            let _span = haqjsk_obs::span("hierarchy.db_repr");
            let _timer = HistogramTimer::start(&fit_phase_histogram("db_traces"));
            match config.max_layers {
                Some(k) => DbRepresentations::compute(graphs, k),
                None => DbRepresentations::compute_auto(graphs, config.layer_cap),
            }
        };
        let hierarchy = {
            let _span = haqjsk_obs::span("hierarchy.build");
            let _timer = HistogramTimer::start(&fit_phase_histogram("prototypes"));
            PrototypeHierarchy::build(&representations, &config)
        };
        let model = HaqjskModel {
            max_layers: representations.max_layers(),
            config,
            variant,
            hierarchy,
        };
        Ok((model, representations))
    }

    /// Fits a model on `graphs` and transforms them through `cache`, as
    /// [`HaqjskModel::fit`] then [`HaqjskModel::transform_all_cached`]
    /// would, bit for bit, but each training graph's transform reads the
    /// DB traces the fit already computed. The outer error is the fit's;
    /// the inner one is the first failing transform's.
    pub fn fit_transform_cached(
        graphs: &[Graph],
        config: HaqjskConfig,
        variant: HaqjskVariant,
        cache: &FeatureCache<AlignedGraph>,
    ) -> Result<(Self, CachedTransforms), LinalgError> {
        let (model, representations) = Self::fit_traced(graphs, config, variant)?;
        let transforms = Self::transforms_through_cache(graphs, cache, |g| {
            model.transform_traced(&graphs[g], &representations, g)
        });
        Ok((model, transforms))
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &HaqjskConfig {
        &self.config
    }

    /// The kernel variant this model evaluates.
    pub fn variant(&self) -> HaqjskVariant {
        self.variant
    }

    /// The number of depth-based layers `K` derived at fit time.
    pub fn max_layers(&self) -> usize {
        self.max_layers
    }

    /// The learned prototype hierarchy.
    pub fn hierarchy(&self) -> &PrototypeHierarchy {
        &self.hierarchy
    }

    /// Transforms a single graph into its hierarchical transitive aligned
    /// representation: the `H` per-level states of this model's variant
    /// only. Works for training graphs and unseen graphs alike — the
    /// prototypes are fixed at fit time. A graph with no vertices is an error.
    pub fn transform(&self, graph: &Graph) -> Result<AlignedGraph, LinalgError> {
        // Depth-based representations of this graph alone, truncated to the
        // layer count the prototypes were built with.
        let single = DbRepresentations::compute(std::slice::from_ref(graph), self.max_layers);
        self.transform_traced(graph, &single, 0)
    }

    /// The one transform body: `graph` aligned through its DB traces, graph
    /// `index` of `representations` (computed to this model's layer count).
    fn transform_traced(
        &self,
        graph: &Graph,
        representations: &DbRepresentations,
        index: usize,
    ) -> Result<AlignedGraph, LinalgError> {
        if graph.num_vertices() == 0 {
            return Err(LinalgError::InvalidArgument(
                "cannot evolve a CTQW on an empty graph".to_string(),
            ));
        }
        let correspondences =
            GraphCorrespondences::compute(representations, index, &self.hierarchy);

        let mut aligned = AlignedGraph::default();
        match self.variant {
            HaqjskVariant::AlignedAdjacency => {
                aligned.adjacency_densities = aligned_adjacency_family(graph, &correspondences)
                    .iter()
                    .map(ctqw_density_from_adjacency)
                    .collect::<Result<_, _>>()?;
            }
            HaqjskVariant::AlignedDensity => {
                aligned.aligned_densities = aligned_density_family(graph, &correspondences)?;
            }
        }
        Ok(aligned)
    }

    /// Transforms a whole dataset, in parallel on the engine's worker pool.
    pub fn transform_all(&self, graphs: &[Graph]) -> Result<Vec<AlignedGraph>, LinalgError> {
        Engine::global()
            .map(graphs.len(), |i| self.transform(&graphs[i]))
            .into_iter()
            .collect()
    }

    /// Transforms a dataset through a [`FeatureCache`], computing each
    /// distinct graph's aligned representation exactly once — across this
    /// call *and* any earlier call that used the same cache.
    ///
    /// The cache key is the structural graph hash, which does not include
    /// the model's prototypes: a cache must therefore only ever be used
    /// with the one model it was created for (the serving layer creates a
    /// fresh cache whenever a model is fitted or loaded).
    pub fn transform_all_cached<G: Borrow<Graph> + Sync>(
        &self,
        graphs: &[G],
        cache: &FeatureCache<AlignedGraph>,
    ) -> CachedTransforms {
        Self::transforms_through_cache(graphs, cache, |g| self.transform(graphs[g].borrow()))
    }

    /// The transforms of `graphs` through `cache`, where `transform(g)`
    /// computes graph `g`'s: once per distinct key, inserted once.
    fn transforms_through_cache<G: Borrow<Graph>>(
        graphs: &[G],
        cache: &FeatureCache<AlignedGraph>,
        transform: impl Fn(usize) -> Result<AlignedGraph, LinalgError> + Sync,
    ) -> CachedTransforms {
        use std::collections::HashMap;

        // Deduplicate by structural key first, so a batch containing the
        // same graph several times computes its transform once: only the
        // first occurrence of each key joins the parallel compute phase.
        let keys: Vec<_> = graphs.iter().map(|g| graph_key(g.borrow())).collect();
        let mut first_occurrence: HashMap<_, usize> = HashMap::new();
        let distinct: Vec<usize> = (0..graphs.len())
            .filter(|&i| first_occurrence.insert(keys[i], i).is_none())
            .collect();

        // The engine cache's closure cannot fail, so a transform runs
        // outside it and only a successful one is stored (once per key).
        let attempts = Engine::global().map(distinct.len(), |d| {
            let key = keys[distinct[d]];
            match cache.get(key) {
                Some(hit) => Ok(hit),
                None => transform(distinct[d]).map(|aligned| cache.get_or_compute(key, || aligned)),
            }
        });

        let mut by_key: HashMap<_, Arc<AlignedGraph>> = HashMap::new();
        for (d, attempt) in attempts.into_iter().enumerate() {
            by_key.insert(keys[distinct[d]], attempt?);
        }
        Ok(keys.iter().map(|key| Arc::clone(&by_key[key])).collect())
    }

    /// Kernel value between two already-transformed graphs:
    /// `Σ_h exp(-μ · D_QJS)` over the hierarchy levels (Eq. 26 / Eq. 29) —
    /// the one-pair case of [`HaqjskModel::kernel_batch`].
    ///
    /// # Panics
    /// Panics if an eigensolve fails or the graphs were aligned to
    /// different prototypes; [`HaqjskModel::kernel_batch`] returns those
    /// errors instead.
    pub fn kernel(&self, a: &AlignedGraph, b: &AlignedGraph) -> f64 {
        self.kernel_batch(&[(a, b)])
            .expect("aligned structures of one model evaluate")[0]
    }

    /// Kernel values of many pairs of already-transformed graphs. Pairs go
    /// one solver lane width (`max_batch_lanes`) at a time, and each chunk
    /// one hierarchy level at a time: one batched solve of the level's
    /// mixture entropies, then the QJSD from those and the states'
    /// memoised endpoint entropies, then `exp(-μ · D_QJS)` added into each
    /// pair's total. Totals start at `0.0` and add levels in order
    /// `h = 0..H`, so each value is bit-identical to evaluating its pair
    /// alone; every buffer stays at most one lane-width chunk. A transform
    /// without exactly `H` states of this model's variant (one made by a
    /// model of the other variant, say) is an invalid argument.
    pub fn kernel_batch(
        &self,
        pairs: &[(&AlignedGraph, &AlignedGraph)],
    ) -> Result<Vec<f64>, LinalgError> {
        let levels = self.hierarchy.num_levels();
        let mut sides = pairs.iter().flat_map(|&(a, b)| [a, b]);
        if sides.any(|x| x.densities(self.variant).len() != levels) {
            return Err(LinalgError::InvalidArgument(format!(
                "a {} transform must hold {levels} level states",
                self.name()
            )));
        }
        let lanes = max_batch_lanes();
        let mut totals = vec![0.0; pairs.len()];
        let mut states = Vec::with_capacity(lanes);
        for (chunk, out) in pairs.chunks(lanes).zip(totals.chunks_mut(lanes)) {
            for h in 0..levels {
                states.clear();
                for (a, b) in chunk {
                    let rho = &a.densities(self.variant)[h];
                    let sigma = &b.densities(self.variant)[h];
                    if rho.dim() != sigma.dim() {
                        return Err(LinalgError::ShapeMismatch {
                            op: "HAQJSK level states",
                            left: rho.matrix().shape(),
                            right: sigma.matrix().shape(),
                        });
                    }
                    states.push((rho, sigma));
                }
                let divergences = batch_qjsd(&states, states.iter().copied())?;
                for (total, divergence) in out.iter_mut().zip(divergences) {
                    *total += (-self.config.mu * divergence).exp();
                }
            }
        }
        Ok(totals)
    }

    /// Kernel values of `pairs` (one [`HaqjskModel::kernel_batch`] per
    /// lane-width chunk), bit-identical however they are chunked. On
    /// `Some(BackendKind::Serial)` they run on the calling thread; on any
    /// other backend the chunks go through [`Engine::map_chunks`] of the
    /// global engine (on its pool unless its default backend is `serial`).
    /// Served kernel rows, Gram extensions and dist worker tiles all
    /// evaluate here.
    pub fn evaluate(
        &self,
        pairs: &[(&AlignedGraph, &AlignedGraph)],
        backend: Option<BackendKind>,
    ) -> Result<Vec<f64>, LinalgError> {
        if backend == Some(BackendKind::Serial) {
            return self.kernel_batch(pairs);
        }
        let parts = Engine::global()
            .map_chunks(pairs.len(), |range| self.kernel_batch(&pairs[range]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(parts.concat())
    }

    /// Convenience: transform two graphs and evaluate the kernel.
    pub fn kernel_between(&self, a: &Graph, b: &Graph) -> Result<f64, LinalgError> {
        let (a, b) = (self.transform(a)?, self.transform(b)?);
        Ok(self.kernel_batch(&[(&a, &b)])?[0])
    }

    /// Gram matrix over a dataset: each graph is transformed once (in
    /// parallel), then all pairs are evaluated on the engine's default
    /// execution backend.
    pub fn gram_matrix(&self, graphs: &[Graph]) -> Result<KernelMatrix, LinalgError> {
        self.gram_matrix_on(graphs, None)
    }

    /// [`HaqjskModel::gram_matrix`] on an explicit execution backend
    /// (`None` = the engine default, which honours `HAQJSK_BACKEND`). A
    /// backend only decides where a Gram's tiles (and an extension's new
    /// pairs) run: inline for `Serial`, on the pool for `Local` (a
    /// distributed Gram is `haqjsk-dist`'s `Coordinator::model_gram`). The
    /// transforms go through
    /// [`Engine::map`] under the engine's default backend.
    pub fn gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let aligned = self.transform_all(graphs)?;
        self.gram_over_transforms(graphs, &aligned, backend)
    }

    /// The Gram tile evaluator over already-transformed graphs: each
    /// lane-width chunk of a tile is one [`HaqjskModel::kernel_batch`] over
    /// its pairs of `aligned`, so no buffer grows with the tile width. The
    /// local Gram runs it through `with_fallible_tiles`, and the dist
    /// coordinator evaluates the tiles no worker returned with it.
    pub fn aligned_tiles<'a, A>(
        &'a self,
        aligned: &'a [A],
    ) -> impl Fn(&[(usize, usize)], &mut [f64]) -> Result<(), LinalgError> + Sync + 'a
    where
        A: Borrow<AlignedGraph> + Sync,
    {
        move |pairs: &[(usize, usize)], out: &mut [f64]| {
            let lanes = max_batch_lanes();
            for (chunk, out) in pairs.chunks(lanes).zip(out.chunks_mut(lanes)) {
                let chunk: Vec<_> = chunk
                    .iter()
                    .map(|&(i, j)| (aligned[i].borrow(), aligned[j].borrow()))
                    .collect();
                out.copy_from_slice(&self.kernel_batch(&chunk)?);
            }
            Ok(())
        }
    }

    /// Gram matrix of `graphs` from their transforms `aligned` (one per
    /// graph, in order) on an explicit execution backend (see
    /// [`HaqjskModel::gram_matrix_on`]); every in-process HAQJSK Gram runs
    /// through here, timed into `haqjsk_kernel_gram_seconds`.
    pub fn gram_over_transforms<A: Borrow<AlignedGraph> + Sync>(
        &self,
        graphs: &[Graph],
        aligned: &[A],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        if aligned.len() != graphs.len() {
            return Err(LinalgError::InvalidArgument(format!(
                "{} transforms supplied for {} graphs",
                aligned.len(),
                graphs.len()
            )));
        }
        let _timer = time_kernel_gram(GraphKernel::name(self));
        with_fallible_tiles(self.aligned_tiles(aligned), |tiles| {
            gram_from_tiles(graphs.len(), backend, tiles)
        })
    }

    /// Gram matrix over a dataset with the per-graph aligned features
    /// memoised in `cache` (see [`HaqjskModel::transform_all_cached`] for
    /// the cache-ownership rule).
    pub fn gram_matrix_cached(
        &self,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
    ) -> Result<KernelMatrix, LinalgError> {
        let aligned = self.transform_all_cached(graphs, cache)?;
        self.gram_over_transforms(graphs, &aligned, None)
    }

    /// Incrementally extends a Gram matrix with out-of-sample graphs: given
    /// the Gram matrix of `graphs[..base.len()]`, returns the Gram matrix of
    /// all of `graphs`, transforming them through `cache` and then running
    /// [`HaqjskModel::extend_gram_over_transforms`].
    pub fn gram_matrix_extended_on(
        &self,
        base: &KernelMatrix,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let aligned = self.transform_all_cached(graphs, cache)?;
        self.extend_gram_over_transforms(base, &aligned, backend)
    }

    /// Extends the Gram matrix `base` of the transforms `aligned[..base.len()]`
    /// to the Gram matrix of all of `aligned` (`base.len()` must not exceed
    /// `aligned.len()`): `base` is copied, and only the new pairs `(i, j)`,
    /// `i <= j`, `j >= base.len()`, are evaluated, through
    /// [`HaqjskModel::evaluate`] on `backend`, and mirrored. The values
    /// equal the full Gram's bit for bit, because the kernel is
    /// bit-symmetric and chunking-independent.
    pub fn extend_gram_over_transforms<A: Borrow<AlignedGraph> + Sync>(
        &self,
        base: &KernelMatrix,
        aligned: &[A],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let (m, n) = (base.len(), aligned.len());
        if m > n {
            return Err(LinalgError::InvalidArgument(format!(
                "base Gram matrix covers {m} graphs but only {n} were supplied"
            )));
        }
        let new: Vec<(usize, usize)> = (m..n).flat_map(|j| (0..=j).map(move |i| (i, j))).collect();
        let pairs: Vec<_> = new
            .iter()
            .map(|&(i, j)| (aligned[i].borrow(), aligned[j].borrow()))
            .collect();
        let values = self.evaluate(&pairs, backend)?;
        let mut gram = Matrix::zeros(n, n);
        for i in 0..m {
            gram.data_mut()[i * n..i * n + m].copy_from_slice(base.matrix().row(i));
        }
        for (&(i, j), v) in new.iter().zip(values) {
            gram[(i, j)] = v;
            gram[(j, i)] = v;
        }
        KernelMatrix::new(gram)
    }

    /// Maximum attainable kernel value (`H`, reached when every per-level
    /// divergence is zero, e.g. for a graph against itself).
    pub fn max_kernel_value(&self) -> f64 {
        self.hierarchy.num_levels() as f64
    }
}

impl GraphKernel for HaqjskModel {
    fn name(&self) -> &'static str {
        match self.variant {
            HaqjskVariant::AlignedAdjacency => "HAQJSK(A)",
            HaqjskVariant::AlignedDensity => "HAQJSK(D)",
        }
    }

    fn compute(&self, a: &Graph, b: &Graph) -> f64 {
        self.kernel_between(a, b)
            .expect("graphs must be non-empty and transformable")
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        self.try_gram_matrix_on(graphs, backend)
            .expect("graphs must be non-empty and transformable")
    }

    fn try_gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        HaqjskModel::gram_matrix_on(self, graphs, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};

    fn dataset() -> Vec<Graph> {
        vec![
            path_graph(6),
            cycle_graph(6),
            star_graph(6),
            erdos_renyi(7, 0.4, 1),
            erdos_renyi(8, 0.3, 2),
        ]
    }

    fn small_config() -> HaqjskConfig {
        HaqjskConfig {
            hierarchy_levels: 3,
            num_prototypes: 8,
            layer_cap: 3,
            ..HaqjskConfig::small()
        }
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(HaqjskModel::fit(&[], small_config(), HaqjskVariant::AlignedAdjacency).is_err());
        let bad = HaqjskConfig {
            hierarchy_levels: 0,
            ..small_config()
        };
        assert!(HaqjskModel::fit(&dataset(), bad, HaqjskVariant::AlignedDensity).is_err());
    }

    const VARIANTS: [HaqjskVariant; 2] = [
        HaqjskVariant::AlignedAdjacency,
        HaqjskVariant::AlignedDensity,
    ];

    /// The family a variant's model does not read.
    fn other_family(aligned: &AlignedGraph, variant: HaqjskVariant) -> &[DensityMatrix] {
        match variant {
            HaqjskVariant::AlignedAdjacency => &aligned.aligned_densities,
            HaqjskVariant::AlignedDensity => &aligned.adjacency_densities,
        }
    }

    fn bits(states: &[DensityMatrix]) -> Vec<Vec<u64>> {
        states
            .iter()
            .map(|rho| rho.matrix().data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn transform_builds_only_its_variants_per_level_states() {
        let graphs = dataset();
        for variant in VARIANTS {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            for g in &graphs {
                let aligned = model.transform(g).unwrap();
                let states = aligned.densities(variant);
                assert_eq!(states.len(), model.hierarchy().num_levels());
                for rho in states {
                    assert!((rho.matrix().trace() - 1.0).abs() < 1e-9);
                }
                assert!(other_family(&aligned, variant).is_empty());
            }
        }
    }

    #[test]
    fn transform_states_are_the_aligned_families_bit_for_bit() {
        let graphs = dataset();
        for variant in VARIANTS {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            for g in &graphs {
                let single =
                    DbRepresentations::compute(std::slice::from_ref(g), model.max_layers());
                let correspondences = GraphCorrespondences::compute(&single, 0, model.hierarchy());
                let direct = match variant {
                    HaqjskVariant::AlignedAdjacency => {
                        aligned_adjacency_family(g, &correspondences)
                            .iter()
                            .map(ctqw_density_from_adjacency)
                            .collect::<Result<Vec<_>, _>>()
                            .unwrap()
                    }
                    HaqjskVariant::AlignedDensity => {
                        aligned_density_family(g, &correspondences).unwrap()
                    }
                };
                let aligned = model.transform(g).unwrap();
                assert_eq!(bits(aligned.densities(variant)), bits(&direct));
            }
        }
    }

    #[test]
    fn fit_time_transforms_are_bit_identical_to_transform() {
        // A duplicated training graph shares one cache entry; an explicit
        // layer count takes the fit's other DB-trace path.
        let mut graphs = dataset();
        graphs.insert(3, graphs[1].clone());
        let configs = [
            small_config(),
            HaqjskConfig {
                max_layers: Some(2),
                ..small_config()
            },
        ];
        for variant in VARIANTS {
            for config in configs.clone() {
                let cache = FeatureCache::new();
                let (model, transforms) =
                    HaqjskModel::fit_transform_cached(&graphs, config.clone(), variant, &cache)
                        .unwrap();
                let transforms = transforms.unwrap();
                let fitted = HaqjskModel::fit(&graphs, config, variant).unwrap();
                assert_eq!(
                    crate::persistence::model_to_string(&model),
                    crate::persistence::model_to_string(&fitted)
                );
                assert_eq!(transforms.len(), graphs.len());
                for (g, aligned) in graphs.iter().zip(&transforms) {
                    let direct = model.transform(g).unwrap();
                    assert_eq!(
                        bits(aligned.densities(variant)),
                        bits(direct.densities(variant))
                    );
                    assert!(other_family(aligned, variant).is_empty());
                }
                assert!(Arc::ptr_eq(&transforms[1], &transforms[3]));
                assert_eq!(cache.stats().entries, graphs.len() - 1);
            }
        }
    }

    #[test]
    fn fit_transform_reports_fit_and_transform_errors_apart() {
        let cache = FeatureCache::new();
        let bad = HaqjskConfig {
            hierarchy_levels: 0,
            ..small_config()
        };
        let variant = HaqjskVariant::AlignedDensity;
        assert!(HaqjskModel::fit_transform_cached(&dataset(), bad, variant, &cache).is_err());
        let graphs = vec![path_graph(4), Graph::new(0)];
        let (_, transforms) =
            HaqjskModel::fit_transform_cached(&graphs, small_config(), variant, &cache).unwrap();
        assert_eq!(
            transforms.unwrap_err(),
            LinalgError::InvalidArgument("cannot evolve a CTQW on an empty graph".to_string())
        );
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn transform_rejects_a_graph_without_vertices() {
        let graphs = dataset();
        for variant in VARIANTS {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            assert_eq!(
                model.transform(&Graph::new(0)).unwrap_err(),
                LinalgError::InvalidArgument("cannot evolve a CTQW on an empty graph".to_string()),
                "{}",
                variant.label()
            );
        }
    }

    #[test]
    fn kernel_batch_rejects_transforms_of_the_other_variant() {
        let graphs = dataset();
        let model_a =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let model_d =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedDensity).unwrap();
        let a = model_a.transform(&graphs[0]).unwrap();
        let d = model_d.transform(&graphs[1]).unwrap();
        for (model, own, foreign) in [(&model_d, &d, &a), (&model_a, &a, &d)] {
            assert!(model.kernel_batch(&[(own, own)]).is_ok());
            for pair in [(own, foreign), (foreign, own), (foreign, foreign)] {
                assert!(matches!(
                    model.kernel_batch(&[(own, own), pair]),
                    Err(LinalgError::InvalidArgument(_))
                ));
            }
        }
    }

    #[test]
    fn self_similarity_is_maximal() {
        let graphs = dataset();
        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            let h = model.max_kernel_value();
            for g in &graphs {
                let v = model.kernel_between(g, g).unwrap();
                assert!(
                    (v - h).abs() < 1e-9,
                    "{}: self similarity {v} != {h}",
                    variant.label()
                );
            }
            // Cross similarities never exceed the self similarity.
            let cross = model.kernel_between(&graphs[0], &graphs[2]).unwrap();
            assert!(cross <= h + 1e-9);
            assert!(cross > 0.0);
        }
    }

    #[test]
    fn kernel_is_symmetric() {
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedDensity).unwrap();
        let ab = model.kernel_between(&graphs[1], &graphs[3]).unwrap();
        let ba = model.kernel_between(&graphs[3], &graphs[1]).unwrap();
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_permutation_invariant() {
        // The headline theoretical property: relabelling a graph does not
        // change its HAQJSK kernel values.
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let perm = vec![5, 2, 0, 4, 1, 3];
        let relabelled = graphs[2].permute(&perm).unwrap();
        for other in &graphs {
            let original = model.kernel_between(&graphs[2], other).unwrap();
            let after = model.kernel_between(&relabelled, other).unwrap();
            assert!(
                (original - after).abs() < 1e-9,
                "kernel moved under relabelling: {original} vs {after}"
            );
        }
    }

    #[test]
    fn gram_matrix_is_positive_semidefinite() {
        let graphs = dataset();
        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            let gram = HaqjskModel::gram_matrix(&model, &graphs).unwrap();
            assert_eq!(gram.len(), graphs.len());
            assert!(
                gram.is_positive_semidefinite(1e-7).unwrap(),
                "{} Gram matrix should be PSD (min eigenvalue {})",
                variant.label(),
                gram.min_eigenvalue().unwrap()
            );
        }
    }

    #[test]
    fn graph_kernel_trait_matches_inherent_methods() {
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        assert_eq!(model.name(), "HAQJSK(A)");
        let via_trait = GraphKernel::compute(&model, &graphs[0], &graphs[1]);
        let direct = model.kernel_between(&graphs[0], &graphs[1]).unwrap();
        assert!((via_trait - direct).abs() < 1e-12);
        let gram_trait = GraphKernel::gram_matrix(&model, &graphs[..3]);
        let gram_direct = HaqjskModel::gram_matrix(&model, &graphs[..3]).unwrap();
        assert!((gram_trait.matrix() - gram_direct.matrix()).max_abs() < 1e-12);
    }

    #[test]
    fn extension_is_bitwise_equal_to_the_full_gram() {
        let graphs = dataset();
        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            let cache = FeatureCache::new();
            let full = model.gram_matrix_cached(&graphs, &cache).unwrap();
            for backend in [None, Some(BackendKind::Serial)] {
                for m in [0, graphs.len() / 2, graphs.len()] {
                    let base = model.gram_matrix_cached(&graphs[..m], &cache).unwrap();
                    let extended = model
                        .gram_matrix_extended_on(&base, &graphs, &cache, backend)
                        .unwrap();
                    let aligned = model.transform_all(&graphs).unwrap();
                    let over_transforms = model
                        .extend_gram_over_transforms(&base, &aligned, backend)
                        .unwrap();
                    let bits = |k: &KernelMatrix| -> Vec<u64> {
                        k.matrix().data().iter().map(|v| v.to_bits()).collect()
                    };
                    for (path, gram) in [("cache", &extended), ("transforms", &over_transforms)] {
                        assert_eq!(
                            bits(gram),
                            bits(&full),
                            "{} extended from {m} on {backend:?} through {path}",
                            variant.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn aligned_graph_weight_counts_its_variants_family() {
        let graphs = dataset();
        for variant in VARIANTS {
            let model = HaqjskModel::fit(&graphs, small_config(), variant).unwrap();
            let aligned = model.transform(&graphs[0]).unwrap();
            let family: usize = aligned
                .densities(variant)
                .iter()
                .map(CacheWeight::weight)
                .sum();
            assert!(family > 0);
            assert_eq!(
                CacheWeight::weight(&aligned),
                std::mem::size_of::<AlignedGraph>() + family
            );
        }
    }

    #[test]
    fn out_of_sample_graphs_are_supported() {
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedDensity).unwrap();
        // A graph that was never part of the training set.
        let unseen = erdos_renyi(10, 0.35, 99);
        let v = model.kernel_between(&unseen, &graphs[0]).unwrap();
        assert!(v > 0.0);
        assert!(v <= model.max_kernel_value() + 1e-9);
    }

    #[test]
    fn variants_give_different_but_correlated_kernels() {
        let graphs = dataset();
        let model_a =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let model_d =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedDensity).unwrap();
        let mut differs = false;
        for i in 0..graphs.len() {
            for j in (i + 1)..graphs.len() {
                let a = model_a.kernel_between(&graphs[i], &graphs[j]).unwrap();
                let d = model_d.kernel_between(&graphs[i], &graphs[j]).unwrap();
                if (a - d).abs() > 1e-6 {
                    differs = true;
                }
            }
        }
        assert!(differs, "the two variants should not coincide numerically");
    }
}
