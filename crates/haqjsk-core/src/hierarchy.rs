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
    pub fn build(representations: &DbRepresentations, config: &HaqjskConfig) -> Self {
        let mut layers = Vec::with_capacity(representations.max_layers());
        for k in 1..=representations.max_layers() {
            let pooled = representations.pooled_representations(k);
            let mut levels: Vec<Vec<Vec<f64>>> = Vec::new();
            let mut current = pooled;
            for h in 1..=config.hierarchy_levels {
                let requested = config.prototypes_at_level(h);
                let kmeans = KMeans {
                    k: requested,
                    max_iterations: config.kmeans_max_iterations,
                    tolerance: 1e-9,
                    // Mix level and layer into the seed so each clustering is
                    // independent but still deterministic.
                    seed: config
                        .seed
                        .wrapping_add(h as u64)
                        .wrapping_mul(1_000_003)
                        .wrapping_add(k as u64),
                };
                let result = kmeans.fit(&current);
                levels.push(result.centroids.clone());
                current = result.centroids;
                if current.is_empty() {
                    break;
                }
            }
            layers.push(LayerHierarchy { k, levels });
        }
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
