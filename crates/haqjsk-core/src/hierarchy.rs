//! Hierarchical prototype representations (Eq. 16 / Fig. 2 of the paper).
//!
//! For every layer parameter `k`, the 0-level prototype set is the pooled set
//! of `k`-dimensional vertex representations of all graphs; the 1-level
//! prototypes are the κ-means centroids of that set; and each further level
//! `h` is obtained by running κ-means again on the `h-1`-level prototypes,
//! yielding a strictly coarser description of the shared representation
//! space. Because every graph is later aligned to the *same* prototype sets,
//! the induced vertex correspondences are transitive across the whole
//! dataset — the property the positive-definiteness proof relies on.

use crate::config::HaqjskConfig;
use crate::db_representation::DbRepresentations;
use crate::kmeans::KMeans;
use haqjsk_engine::Engine;

/// The prototype hierarchy for one layer parameter `k`: `levels[h-1]` holds
/// the `h`-level prototype vectors (each of dimension `k`).
#[derive(Debug, Clone)]
pub struct LayerHierarchy {
    /// The layer parameter `k` this hierarchy describes.
    pub k: usize,
    /// Prototype sets, one per hierarchy level (1-based level `h` is stored
    /// at index `h - 1`).
    pub levels: Vec<Vec<Vec<f64>>>,
}

impl LayerHierarchy {
    /// Prototypes at 1-based level `h`.
    pub fn prototypes(&self, h: usize) -> &[Vec<f64>] {
        &self.levels[h - 1]
    }

    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The κ-means chain of layer `k`: level 1 clusters the pooled
    /// `k`-dimensional representations, each further level the level
    /// before it, all as flat `k`-dimensional point buffers.
    fn build(representations: &DbRepresentations, config: &HaqjskConfig, k: usize) -> Self {
        let mut levels: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut points = representations.pooled_points(k);
        for h in 1..=config.hierarchy_levels {
            points = level_kmeans(config, h, k).fit(&points, k).centroids;
            levels.push(points.chunks_exact(k).map(<[f64]>::to_vec).collect());
            if points.is_empty() {
                break;
            }
        }
        LayerHierarchy { k, levels }
    }
}

/// The κ-means run of level `h` of layer `k`.
fn level_kmeans(config: &HaqjskConfig, h: usize, k: usize) -> KMeans {
    KMeans {
        k: config.prototypes_at_level(h),
        max_iterations: config.kmeans_max_iterations,
        tolerance: 1e-9,
        // Mix level and layer into the seed so each clustering is
        // independent but still deterministic.
        seed: config
            .seed
            .wrapping_add(h as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add(k as u64),
    }
}

/// The full family of prototype hierarchies `HP^{H,k}(G)` for `k = 1..K`.
#[derive(Debug, Clone)]
pub struct PrototypeHierarchy {
    layers: Vec<LayerHierarchy>,
}

impl PrototypeHierarchy {
    /// Assembles a hierarchy from pre-computed layer hierarchies (used when
    /// restoring a persisted model).
    pub fn from_layers(layers: Vec<LayerHierarchy>) -> Self {
        PrototypeHierarchy { layers }
    }

    /// Builds the hierarchy from the pooled depth-based representations of a
    /// dataset, following the configuration's prototype counts per level.
    /// The layers are independent, seeded κ-means chains, so they run on
    /// the engine's worker pool and the result does not depend on the
    /// thread count.
    pub fn build(representations: &DbRepresentations, config: &HaqjskConfig) -> Self {
        let layers = Engine::global().map(representations.max_layers(), |layer| {
            LayerHierarchy::build(representations, config, layer + 1)
        });
        PrototypeHierarchy { layers }
    }

    /// The hierarchy for layer parameter `k` (1-based).
    pub fn layer(&self, k: usize) -> &LayerHierarchy {
        &self.layers[k - 1]
    }

    /// The largest layer parameter `K` covered.
    pub fn max_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of hierarchy levels available (minimum over layers, normally
    /// identical for all of them).
    pub fn num_levels(&self) -> usize {
        self.layers
            .iter()
            .map(LayerHierarchy::num_levels)
            .min()
            .unwrap_or(0)
    }

    /// Number of prototypes at 1-based level `h` for layer `k`.
    pub fn prototypes_at(&self, h: usize, k: usize) -> usize {
        self.layer(k).prototypes(h).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::reference;
    use haqjsk_datasets::generate_by_name;
    use haqjsk_graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};
    use haqjsk_graph::Graph;

    fn dataset() -> Vec<Graph> {
        vec![
            path_graph(6),
            cycle_graph(7),
            star_graph(5),
            erdos_renyi(8, 0.4, 1),
            erdos_renyi(9, 0.3, 2),
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
    fn hierarchy_has_expected_shape() {
        let graphs = dataset();
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = small_config();
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        assert_eq!(hierarchy.max_layers(), reps.max_layers());
        assert_eq!(hierarchy.num_levels(), 3);
        for k in 1..=hierarchy.max_layers() {
            for h in 1..=3 {
                let protos = hierarchy.layer(k).prototypes(h);
                assert!(!protos.is_empty());
                // Each prototype is k-dimensional.
                assert!(protos.iter().all(|p| p.len() == k));
                // Never more prototypes than requested.
                assert!(protos.len() <= config.prototypes_at_level(h));
            }
        }
    }

    #[test]
    fn deeper_levels_have_no_more_prototypes() {
        let graphs = dataset();
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let hierarchy = PrototypeHierarchy::build(&reps, &small_config());
        for k in 1..=hierarchy.max_layers() {
            for h in 2..=hierarchy.num_levels() {
                assert!(
                    hierarchy.prototypes_at(h, k) <= hierarchy.prototypes_at(h - 1, k),
                    "level {h} should be at most as fine as level {}",
                    h - 1
                );
            }
        }
    }

    #[test]
    fn hierarchy_is_deterministic_for_fixed_seed() {
        let graphs = dataset();
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = small_config();
        let a = PrototypeHierarchy::build(&reps, &config);
        let b = PrototypeHierarchy::build(&reps, &config);
        for k in 1..=a.max_layers() {
            for h in 1..=a.num_levels() {
                assert_eq!(a.layer(k).prototypes(h), b.layer(k).prototypes(h));
            }
        }
    }

    fn bits(levels: &[Vec<Vec<f64>>]) -> Vec<Vec<Vec<u64>>> {
        levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|p| p.iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    /// The pool-built hierarchy against per-point reference κ-means
    /// chains run serially, layer by layer.
    fn assert_matches_serial_reference(graphs: &[Graph], config: &HaqjskConfig) {
        let reps = DbRepresentations::compute_auto(graphs, config.layer_cap);
        let built = PrototypeHierarchy::build(&reps, config);
        assert_eq!(built.max_layers(), reps.max_layers());
        for k in 1..=reps.max_layers() {
            let mut levels = Vec::new();
            let mut current: Vec<Vec<f64>> = (0..graphs.len())
                .flat_map(|g| (0..graphs[g].num_vertices()).map(move |v| (g, v)))
                .map(|(g, v)| reps.representation(g, v, k).to_vec())
                .collect();
            for h in 1..=config.hierarchy_levels {
                current = reference::fit(&level_kmeans(config, h, k), &current).0;
                levels.push(current.clone());
            }
            assert_eq!(built.layer(k).k, k);
            assert_eq!(bits(&built.layer(k).levels), bits(&levels), "layer {k}");
        }
    }

    #[test]
    fn pool_built_hierarchy_matches_a_serial_kmeans_loop_bit_for_bit() {
        // Regular graphs share their 1-D traces, so 64 prototypes over a
        // few distinct values leave most level-1 clusters empty.
        let graphs: Vec<Graph> = (4..12)
            .flat_map(|n| [cycle_graph(n), path_graph(n), star_graph(n)])
            .chain([erdos_renyi(12, 0.3, 3)])
            .collect();
        let config = HaqjskConfig {
            hierarchy_levels: 4,
            num_prototypes: 64,
            layer_cap: 4,
            ..HaqjskConfig::small()
        };
        let reps = DbRepresentations::compute_auto(&graphs, config.layer_cap);
        let mut distinct = reps.pooled_points(1);
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(distinct.len() < config.num_prototypes);
        assert!(reps.total_vertices() > config.num_prototypes);
        assert_matches_serial_reference(&graphs, &config);

        // The paper's configuration (M = 256, H = 5, K = 6) on a MUTAG
        // stand-in.
        let mutag = generate_by_name("MUTAG", 1, 1, 7).expect("a registered dataset");
        assert_matches_serial_reference(&mutag.graphs[..24], &HaqjskConfig::default());
    }

    #[test]
    fn prototype_count_is_capped_by_vertex_count() {
        // A tiny dataset cannot support 256 prototypes; the effective count
        // is the number of pooled vertex representations.
        let graphs = vec![path_graph(3), path_graph(4)];
        let reps = DbRepresentations::compute_auto(&graphs, 2);
        let config = HaqjskConfig {
            num_prototypes: 256,
            hierarchy_levels: 2,
            ..HaqjskConfig::small()
        };
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        assert!(hierarchy.prototypes_at(1, 1) <= 7);
    }
}
