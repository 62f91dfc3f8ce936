//! Configuration of the HAQJSK kernels.

/// Which of the two HAQJSK kernels to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaqjskVariant {
    /// HAQJSK(A): CTQW densities of the hierarchical transitive **aligned
    /// adjacency matrices** (Definition 3.1, Eq. 26–28).
    AlignedAdjacency,
    /// HAQJSK(D): the hierarchical transitive **aligned density matrices** of
    /// the CTQW evolved on the original graphs (Definition 3.2, Eq. 29–31).
    AlignedDensity,
}

impl HaqjskVariant {
    /// Short name used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            HaqjskVariant::AlignedAdjacency => "HAQJSK(A)",
            HaqjskVariant::AlignedDensity => "HAQJSK(D)",
        }
    }
}

/// Largest hierarchy level `H` that [`HaqjskConfig::validate`] accepts. The
/// paper uses 5; the bound only keeps a hostile request or model text from
/// asking for an unbounded amount of work.
pub const MAX_HIERARCHY_LEVELS: usize = 64;

/// Hyper-parameters of the HAQJSK kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct HaqjskConfig {
    /// Greatest hierarchy level `H` (the paper uses 5).
    pub hierarchy_levels: usize,
    /// Number of 1-level prototypes `M = |P^{1,k}|` (the paper uses 256; the
    /// effective number is capped by the number of vertex representations in
    /// the dataset).
    pub num_prototypes: usize,
    /// Factor by which the prototype count shrinks per hierarchy level
    /// (`|P^{h}| = max(round(M · shrink^{h-1}), min_prototypes)`); Fig. 2 of
    /// the paper shows strictly coarser prototype sets at deeper levels.
    pub level_shrink: f64,
    /// Lower bound on the prototype count at any level.
    pub min_prototypes: usize,
    /// Largest expansion-subgraph layer `K`. `None` uses the greatest
    /// shortest-path length over the dataset, capped by `layer_cap`.
    pub max_layers: Option<usize>,
    /// Cap applied to the automatically derived `K`.
    pub layer_cap: usize,
    /// Maximum number of κ-means iterations per level.
    pub kmeans_max_iterations: usize,
    /// Seed driving κ-means initialisation (the whole pipeline is
    /// deterministic given the seed).
    pub seed: u64,
    /// Decay factor applied inside `exp(-μ · D_QJS)`; the paper uses 1.
    pub mu: f64,
}

impl Default for HaqjskConfig {
    fn default() -> Self {
        HaqjskConfig {
            hierarchy_levels: 5,
            num_prototypes: 256,
            level_shrink: 0.5,
            min_prototypes: 2,
            max_layers: None,
            layer_cap: 6,
            kmeans_max_iterations: 50,
            seed: 42,
            mu: 1.0,
        }
    }
}

impl HaqjskConfig {
    /// A small configuration suitable for unit tests and quick examples:
    /// fewer prototypes and hierarchy levels, so kernels stay fast on tiny
    /// datasets.
    pub fn small() -> Self {
        HaqjskConfig {
            hierarchy_levels: 3,
            num_prototypes: 16,
            layer_cap: 4,
            kmeans_max_iterations: 25,
            ..Default::default()
        }
    }

    /// Number of prototypes requested at hierarchy level `h` (1-based).
    pub fn prototypes_at_level(&self, h: usize) -> usize {
        assert!(h >= 1, "hierarchy levels are 1-based");
        let scaled = self.num_prototypes as f64 * self.level_shrink.powi(h as i32 - 1);
        (scaled.round() as usize).max(self.min_prototypes)
    }

    /// Validates the configuration, returning a human-readable error when a
    /// parameter is out of its valid domain.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_HIERARCHY_LEVELS).contains(&self.hierarchy_levels) {
            return Err(format!(
                "hierarchy_levels must lie in 1..={MAX_HIERARCHY_LEVELS}, got {}",
                self.hierarchy_levels
            ));
        }
        if self.num_prototypes < self.min_prototypes {
            return Err(format!(
                "num_prototypes ({}) must be at least min_prototypes ({})",
                self.num_prototypes, self.min_prototypes
            ));
        }
        if self.min_prototypes == 0 {
            return Err("min_prototypes must be at least 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.level_shrink) || self.level_shrink == 0.0 {
            return Err("level_shrink must lie in (0, 1]".to_string());
        }
        if self.layer_cap == 0 && self.max_layers.is_none() {
            return Err("layer_cap must be positive when max_layers is automatic".to_string());
        }
        if let Some(k) = self.max_layers {
            if k == 0 {
                return Err("max_layers must be at least 1 when given".to_string());
            }
        }
        if !(self.mu.is_finite() && self.mu > 0.0) {
            return Err(format!("mu must be finite and positive, got {}", self.mu));
        }
        if self.kmeans_max_iterations == 0 {
            return Err("kmeans_max_iterations must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = HaqjskConfig::default();
        assert_eq!(c.hierarchy_levels, 5);
        assert_eq!(c.num_prototypes, 256);
        assert_eq!(c.mu, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn prototype_counts_shrink_per_level() {
        let c = HaqjskConfig::default();
        assert_eq!(c.prototypes_at_level(1), 256);
        assert_eq!(c.prototypes_at_level(2), 128);
        assert_eq!(c.prototypes_at_level(3), 64);
        // Deep levels saturate at the minimum.
        assert_eq!(c.prototypes_at_level(20), c.min_prototypes);
        let flat = HaqjskConfig {
            level_shrink: 1.0,
            ..Default::default()
        };
        assert_eq!(flat.prototypes_at_level(5), 256);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn level_zero_is_rejected() {
        HaqjskConfig::default().prototypes_at_level(0);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let tweaks: [fn(&mut HaqjskConfig); 11] = [
            |c| c.hierarchy_levels = 0,
            |c| c.hierarchy_levels = MAX_HIERARCHY_LEVELS + 1,
            |c| c.level_shrink = 0.0,
            |c| c.level_shrink = 1.5,
            |c| c.mu = 0.0,
            |c| c.mu = -1.0,
            |c| c.mu = f64::NAN,
            |c| c.mu = f64::INFINITY,
            |c| c.max_layers = Some(0),
            |c| c.num_prototypes = 1,
            |c| c.kmeans_max_iterations = 0,
        ];
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut c = HaqjskConfig::default();
            tweak(&mut c);
            assert!(c.validate().is_err(), "case {i}: {c:?}");
        }
    }

    #[test]
    fn small_config_is_valid_and_smaller() {
        let c = HaqjskConfig::small();
        assert!(c.validate().is_ok());
        assert!(c.num_prototypes < HaqjskConfig::default().num_prototypes);
        assert!(c.hierarchy_levels < HaqjskConfig::default().hierarchy_levels);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(HaqjskVariant::AlignedAdjacency.label(), "HAQJSK(A)");
        assert_eq!(HaqjskVariant::AlignedDensity.label(), "HAQJSK(D)");
    }
}
