//! The fitted HAQJSK model and the two kernels (Definitions 3.1 and 3.2).
//!
//! [`HaqjskModel::fit`] learns the prototype hierarchy from a dataset;
//! [`HaqjskModel::transform`] maps any graph (from the training set or not)
//! into its hierarchical transitive aligned structures; and
//! [`HaqjskModel::kernel`] / [`HaqjskModel::gram_matrix`] evaluate
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

use crate::aligned::{aligned_adjacency_family, aligned_density_family};
use crate::config::{HaqjskConfig, HaqjskVariant};
use crate::correspondence::GraphCorrespondences;
use crate::db_representation::DbRepresentations;
use crate::hierarchy::PrototypeHierarchy;
use haqjsk_engine::{
    graph_key, per_pair, BackendKind, CacheWeight, Engine, FeatureCache, RemoteArtifact,
    RemoteGram, TileEvaluator,
};
use haqjsk_graph::Graph;
use haqjsk_kernels::kernel::{gram_from_tiles, time_kernel_gram};
use haqjsk_kernels::{GraphKernel, KernelMatrix};
use haqjsk_linalg::LinalgError;
use haqjsk_quantum::ctqw::ctqw_density_from_adjacency;
use haqjsk_quantum::{qjsd, DensityMatrix};
use std::borrow::Borrow;
use std::sync::Arc;

/// The hierarchical aligned representation of a single graph, ready for
/// kernel evaluation against any other graph aligned to the same prototypes.
#[derive(Debug, Clone)]
pub struct AlignedGraph {
    /// Per hierarchy level `h`: the CTQW density matrix `δ(Ā^h)` of the
    /// aligned adjacency matrix (the ingredient of HAQJSK(A)).
    pub adjacency_densities: Vec<DensityMatrix>,
    /// Per hierarchy level `h`: the aligned density matrix `ρ̄^h` (the
    /// ingredient of HAQJSK(D)).
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
/// cache; their weight is the two per-level density families.
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
        config.validate().map_err(LinalgError::InvalidArgument)?;
        if graphs.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "cannot fit a HAQJSK model on an empty dataset".to_string(),
            ));
        }
        let representations = match config.max_layers {
            Some(k) => DbRepresentations::compute(graphs, k),
            None => DbRepresentations::compute_auto(graphs, config.layer_cap),
        };
        let hierarchy = PrototypeHierarchy::build(&representations, &config);
        Ok(HaqjskModel {
            max_layers: representations.max_layers(),
            config,
            variant,
            hierarchy,
        })
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
    /// representation. Works for training graphs and unseen graphs alike —
    /// the prototypes are fixed at fit time.
    pub fn transform(&self, graph: &Graph) -> Result<AlignedGraph, LinalgError> {
        // Depth-based representations of this graph alone, truncated to the
        // layer count the prototypes were built with.
        let single = DbRepresentations::compute(std::slice::from_ref(graph), self.max_layers);
        let correspondences = GraphCorrespondences::compute(&single, 0, &self.hierarchy);

        let adjacency_family = aligned_adjacency_family(graph, &correspondences);
        let adjacency_densities = adjacency_family
            .iter()
            .map(ctqw_density_from_adjacency)
            .collect::<Result<Vec<_>, _>>()?;
        let aligned_densities = aligned_density_family(graph, &correspondences)?;

        Ok(AlignedGraph {
            adjacency_densities,
            aligned_densities,
        })
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
    pub fn transform_all_cached(
        &self,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
    ) -> Result<Vec<Arc<AlignedGraph>>, LinalgError> {
        use std::collections::HashMap;

        // Deduplicate by structural key first, so a batch containing the
        // same graph several times computes its transform once: only the
        // first occurrence of each key joins the parallel compute phase.
        let keys: Vec<_> = graphs.iter().map(graph_key).collect();
        let mut first_occurrence: HashMap<_, usize> = HashMap::new();
        let distinct: Vec<usize> = (0..graphs.len())
            .filter(|&i| first_occurrence.insert(keys[i], i).is_none())
            .collect();

        // The engine cache guarantees a single stored value per key, but
        // its closure cannot return an error; compute failures are
        // reproduced outside the cache on the (cold) failing graph.
        let attempts: Vec<Option<Arc<AlignedGraph>>> = Engine::global().map(distinct.len(), |d| {
            let i = distinct[d];
            if let Some(hit) = cache.get(keys[i]) {
                return Some(hit);
            }
            match self.transform(&graphs[i]) {
                Ok(aligned) => Some(cache.get_or_compute(keys[i], || aligned)),
                Err(_) => None,
            }
        });

        let mut by_key: HashMap<_, Arc<AlignedGraph>> = HashMap::new();
        for (d, slot) in attempts.into_iter().enumerate() {
            let i = distinct[d];
            match slot {
                Some(aligned) => {
                    by_key.insert(keys[i], aligned);
                }
                // Re-run the failing transform to surface its error.
                None => {
                    by_key.insert(keys[i], self.transform(&graphs[i]).map(Arc::new)?);
                }
            }
        }
        Ok(keys.iter().map(|key| Arc::clone(&by_key[key])).collect())
    }

    /// Kernel value between two already-transformed graphs:
    /// `Σ_h exp(-μ · D_QJS)` over the hierarchy levels (Eq. 26 / Eq. 29).
    pub fn kernel(&self, a: &AlignedGraph, b: &AlignedGraph) -> f64 {
        let da = a.densities(self.variant);
        let db = b.densities(self.variant);
        let levels = da.len().min(db.len());
        let mut total = 0.0;
        for h in 0..levels {
            let divergence =
                qjsd(&da[h], &db[h]).expect("aligned structures share the prototype dimension");
            total += (-self.config.mu * divergence).exp();
        }
        total
    }

    /// Convenience: transform two graphs and evaluate the kernel.
    pub fn kernel_between(&self, a: &Graph, b: &Graph) -> Result<f64, LinalgError> {
        Ok(self.kernel(&self.transform(a)?, &self.transform(b)?))
    }

    /// Gram matrix over a dataset: each graph is transformed once (in
    /// parallel), then all pairs are evaluated on the engine's default
    /// execution backend.
    pub fn gram_matrix(&self, graphs: &[Graph]) -> Result<KernelMatrix, LinalgError> {
        self.gram_matrix_on(graphs, None)
    }

    /// [`HaqjskModel::gram_matrix`] on an explicit execution backend
    /// (`None` = the engine default, which honours `HAQJSK_BACKEND`).
    pub fn gram_matrix_on(
        &self,
        graphs: &[Graph],
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let _timer = time_kernel_gram(GraphKernel::name(self));
        let aligned = self.transform_all(graphs)?;
        Ok(self.gram_over_aligned(graphs, &aligned, backend))
    }

    /// The Gram tile evaluator over already-transformed graphs: each pair
    /// `(i, j)` of a tile evaluates [`HaqjskModel::kernel`] of `aligned[i]`
    /// and `aligned[j]`. Full Grams and extensions both run through it.
    fn aligned_tiles<'a, A>(&'a self, aligned: &'a [A]) -> impl TileEvaluator + 'a
    where
        A: Borrow<AlignedGraph> + Sync,
    {
        per_pair(move |i, j| self.kernel(aligned[i].borrow(), aligned[j].borrow()))
    }

    /// Gram assembly over already-transformed features through
    /// [`HaqjskModel::aligned_tiles`], attaching a [`RemoteGram`] spec (kernel id
    /// [`HaqjskModel::REMOTE_KERNEL_ID`] plus the persisted model as a
    /// content-addressed artifact) when the effective backend is
    /// distributed — so fitted-model Grams fan out to workers exactly like
    /// the closed-form kernels instead of falling back to local execution.
    /// The artifact is only serialised on the distributed path; local
    /// backends ignore the spec entirely.
    fn gram_over_aligned<A: Borrow<AlignedGraph> + Sync>(
        &self,
        graphs: &[Graph],
        aligned: &[A],
        backend: Option<BackendKind>,
    ) -> KernelMatrix {
        let effective = backend.unwrap_or_else(|| Engine::global().backend());
        let payload = (effective == BackendKind::Distributed)
            .then(|| crate::persistence::model_to_string(self));
        let spec = payload.as_deref().map(|text| RemoteGram {
            kernel_id: Self::REMOTE_KERNEL_ID,
            params: Vec::new(),
            graphs,
            artifact: Some(RemoteArtifact {
                id: crate::persistence::model_artifact_id(text),
                payload: text,
            }),
        });
        gram_from_tiles(
            graphs.len(),
            backend,
            self.aligned_tiles(aligned),
            spec.as_ref(),
        )
    }

    /// Gram matrix over a dataset with the per-graph aligned features
    /// memoised in `cache` (see [`HaqjskModel::transform_all_cached`] for
    /// the cache-ownership rule).
    pub fn gram_matrix_cached(
        &self,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
    ) -> Result<KernelMatrix, LinalgError> {
        self.gram_matrix_cached_on(graphs, cache, None)
    }

    /// [`HaqjskModel::gram_matrix_cached`] on an explicit execution
    /// backend.
    pub fn gram_matrix_cached_on(
        &self,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let _timer = time_kernel_gram(GraphKernel::name(self));
        let aligned = self.transform_all_cached(graphs, cache)?;
        Ok(self.gram_over_aligned(graphs, &aligned, backend))
    }

    /// Incrementally extends a Gram matrix with out-of-sample graphs: given
    /// the Gram matrix of `graphs[..base.len()]`, returns the Gram matrix of
    /// all of `graphs` while evaluating only the new rows/columns
    /// (`base.len()` must not exceed `graphs.len()`), on an explicit
    /// execution backend. The streaming serving path uses this to append
    /// arrivals without recomputing history. The new rows/columns go
    /// through the same tile evaluator as a full Gram, on the engine's tile
    /// scheduler (extensions always run in this process).
    pub fn gram_matrix_extended_on(
        &self,
        base: &KernelMatrix,
        graphs: &[Graph],
        cache: &FeatureCache<AlignedGraph>,
        backend: Option<BackendKind>,
    ) -> Result<KernelMatrix, LinalgError> {
        let m = base.len();
        if m > graphs.len() {
            return Err(LinalgError::InvalidArgument(format!(
                "base Gram matrix covers {m} graphs but only {} were supplied",
                graphs.len()
            )));
        }
        let aligned = self.transform_all_cached(graphs, cache)?;
        let values = Engine::global().gram_extend(
            backend,
            base.matrix(),
            graphs.len(),
            self.aligned_tiles(&aligned),
        );
        KernelMatrix::new(values)
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

    fn gram_matrix(&self, graphs: &[Graph]) -> KernelMatrix {
        HaqjskModel::gram_matrix(self, graphs).expect("graphs must be non-empty and transformable")
    }

    fn gram_matrix_on(&self, graphs: &[Graph], backend: Option<BackendKind>) -> KernelMatrix {
        HaqjskModel::gram_matrix_on(self, graphs, backend)
            .expect("graphs must be non-empty and transformable")
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

    #[test]
    fn transform_produces_per_level_states() {
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let aligned = model.transform(&graphs[0]).unwrap();
        assert_eq!(
            aligned.adjacency_densities.len(),
            model.hierarchy().num_levels()
        );
        assert_eq!(
            aligned.aligned_densities.len(),
            model.hierarchy().num_levels()
        );
        for rho in aligned
            .adjacency_densities
            .iter()
            .chain(aligned.aligned_densities.iter())
        {
            assert!((rho.matrix().trace() - 1.0).abs() < 1e-9);
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
    fn extension_through_tiles_is_bitwise_equal_to_the_full_gram() {
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
                    let bits = |k: &KernelMatrix| -> Vec<u64> {
                        k.matrix().data().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&extended),
                        bits(&full),
                        "{} extended from {m} on {backend:?}",
                        variant.label()
                    );
                }
            }
        }
    }

    #[test]
    fn aligned_graph_weight_counts_density_payload() {
        let graphs = dataset();
        let model =
            HaqjskModel::fit(&graphs, small_config(), HaqjskVariant::AlignedAdjacency).unwrap();
        let aligned = model.transform(&graphs[0]).unwrap();
        let payload: usize = aligned
            .adjacency_densities
            .iter()
            .chain(aligned.aligned_densities.iter())
            .map(|rho| rho.dim() * rho.dim() * std::mem::size_of::<f64>())
            .sum();
        assert!(CacheWeight::weight(&aligned) >= payload);
        assert!(payload > 0);
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
