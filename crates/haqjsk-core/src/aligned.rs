//! Hierarchical transitive aligned graph structures (Eq. 18–25).
//!
//! Given the correspondence matrices `C^{h,k}_p`, each graph is transformed
//! into two families of fixed-size structures:
//!
//! * the **aligned adjacency matrices** `A^{h,k}_p = C^{h,k}_pᵀ A_p C^{h,k}_p`
//!   averaged over `k` into `Ā^h_p` (Eq. 22–23), and
//! * the **aligned density matrices** `ρ^{h,k}_p = C^{h,k}_pᵀ ρ_p C^{h,k}_p`
//!   averaged over `k` into `ρ̄^h_p` (Eq. 24–25), re-normalised to unit trace
//!   so they remain valid quantum states.
//!
//! HAQJSK(A) reads only the first family (through the CTQW density of each
//! `Ā^h_p`) and HAQJSK(D) only the second, so a fitted model's transform
//! builds the one family its variant reads.
//!
//! The paper's Eq. (19)/(21) literally write `C^{1,k}ᵀ X C^{h,k}`, which is
//! rectangular whenever the level-1 and level-h prototype sets differ in
//! size; the surrounding text, Eq. (28) and the positive-definiteness lemma
//! all require square fixed-size matrices in `R^{|P^{h,k}| × |P^{h,k}|}`, so
//! this implementation uses the square congruence `C^{h,k}ᵀ X C^{h,k}`.

use crate::correspondence::GraphCorrespondences;
use haqjsk_graph::Graph;
use haqjsk_linalg::{LinalgError, Matrix};
use haqjsk_quantum::{ctqw_density_infinite, DensityMatrix};

/// The hierarchical transitive aligned adjacency matrices `Ā^h_p` of one
/// graph: one fixed-size weighted adjacency matrix per hierarchy level.
pub fn aligned_adjacency_family(
    graph: &Graph,
    correspondences: &GraphCorrespondences,
) -> Vec<Matrix> {
    aligned_family(&graph.adjacency_matrix(), correspondences).collect()
}

/// The hierarchical transitive aligned density matrices `ρ̄^h_p` of one
/// graph: the CTQW density matrix of the original graph pushed through the
/// correspondences, averaged over `k`, and re-normalised to a valid state.
pub fn aligned_density_family(
    graph: &Graph,
    correspondences: &GraphCorrespondences,
) -> Result<Vec<DensityMatrix>, LinalgError> {
    let rho = ctqw_density_infinite(graph)?;
    aligned_family(rho.matrix(), correspondences)
        .map(|averaged| DensityMatrix::from_unnormalized(&averaged))
        .collect()
}

/// Per hierarchy level `h`: the congruence `C^{h,k}ᵀ X C^{h,k}` of a
/// vertex-indexed matrix, averaged over `k = 1..K`.
fn aligned_family<'a>(
    vertex_matrix: &'a Matrix,
    correspondences: &'a GraphCorrespondences,
) -> impl Iterator<Item = Matrix> + 'a {
    let max_k = correspondences.max_layers();
    (1..=correspondences.num_levels()).map(move |h| {
        let mut sum = correspondences.at(h, 1).transform(vertex_matrix);
        for k in 2..=max_k {
            sum += &correspondences.at(h, k).transform(vertex_matrix);
        }
        sum.scale(1.0 / max_k as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HaqjskConfig;
    use crate::correspondence::GraphCorrespondences;
    use crate::db_representation::DbRepresentations;
    use crate::hierarchy::PrototypeHierarchy;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    fn setup() -> (Vec<Graph>, DbRepresentations, PrototypeHierarchy) {
        let graphs = vec![path_graph(5), cycle_graph(6), star_graph(7)];
        let reps = DbRepresentations::compute_auto(&graphs, 3);
        let config = HaqjskConfig {
            hierarchy_levels: 3,
            num_prototypes: 6,
            ..HaqjskConfig::small()
        };
        let hierarchy = PrototypeHierarchy::build(&reps, &config);
        (graphs, reps, hierarchy)
    }

    #[test]
    fn aligned_adjacency_is_fixed_size_and_symmetric() {
        let (graphs, reps, hierarchy) = setup();
        for (gi, graph) in graphs.iter().enumerate() {
            let corr = GraphCorrespondences::compute(&reps, gi, &hierarchy);
            let family = aligned_adjacency_family(graph, &corr);
            assert_eq!(family.len(), hierarchy.num_levels());
            for (h, aligned) in family.iter().enumerate() {
                let m = hierarchy.prototypes_at(h + 1, 1);
                assert_eq!(aligned.shape(), (m, m));
                assert!(aligned.is_symmetric(1e-9));
                // The aligned adjacency conserves the total edge mass of the
                // original graph (each of the K transforms conserves it and
                // we average K of them).
                assert!((aligned.sum() - graph.adjacency_matrix().sum()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn aligned_density_is_valid_state_per_level() {
        let (graphs, reps, hierarchy) = setup();
        for (gi, graph) in graphs.iter().enumerate() {
            let corr = GraphCorrespondences::compute(&reps, gi, &hierarchy);
            let family = aligned_density_family(graph, &corr).unwrap();
            assert_eq!(family.len(), hierarchy.num_levels());
            for rho in &family {
                assert!((rho.matrix().trace() - 1.0).abs() < 1e-9);
                assert!(rho.spectrum().unwrap().iter().all(|&l| l >= -1e-8));
            }
        }
    }

    #[test]
    fn graphs_of_different_sizes_map_to_identical_shapes() {
        // The whole point of the construction: arbitrary-sized graphs become
        // fixed-sized structures that can be compared entry-wise.
        let (graphs, reps, hierarchy) = setup();
        let corr0 = GraphCorrespondences::compute(&reps, 0, &hierarchy);
        let corr2 = GraphCorrespondences::compute(&reps, 2, &hierarchy);
        let fam0 = aligned_adjacency_family(&graphs[0], &corr0);
        let fam2 = aligned_adjacency_family(&graphs[2], &corr2);
        assert_ne!(graphs[0].num_vertices(), graphs[2].num_vertices());
        for (a, b) in fam0.iter().zip(fam2.iter()) {
            assert_eq!(a.shape(), b.shape());
        }
        let dens0 = aligned_density_family(&graphs[0], &corr0).unwrap();
        let dens2 = aligned_density_family(&graphs[2], &corr2).unwrap();
        for (a, b) in dens0.iter().zip(dens2.iter()) {
            assert_eq!(a.dim(), b.dim());
        }
    }

    #[test]
    fn aligned_structures_are_permutation_invariant() {
        // Relabelling a graph's vertices must not change its aligned
        // structures, because the vertex representations (and hence the
        // prototype assignments) are label-independent. This is the
        // permutation-invariance property of the Lemma.
        let original = vec![star_graph(6), cycle_graph(5), path_graph(7)];
        let perm = vec![3, 5, 0, 2, 4, 1];
        let mut permuted = original.clone();
        permuted[0] = original[0].permute(&perm).unwrap();

        let config = HaqjskConfig {
            hierarchy_levels: 2,
            num_prototypes: 5,
            ..HaqjskConfig::small()
        };
        // The prototype hierarchy is fixed (built once on the original
        // dataset); both the original and the relabelled copy of graph 0 are
        // aligned against the same prototypes, which is exactly how a fitted
        // model treats incoming graphs.
        let reps_a = DbRepresentations::compute_auto(&original, 3);
        let reps_b = DbRepresentations::compute_auto(&permuted, 3);
        let hier_a = PrototypeHierarchy::build(&reps_a, &config);
        let corr_a = GraphCorrespondences::compute(&reps_a, 0, &hier_a);
        let corr_b = GraphCorrespondences::compute(&reps_b, 0, &hier_a);
        let fam_a = aligned_adjacency_family(&original[0], &corr_a);
        let fam_b = aligned_adjacency_family(&permuted[0], &corr_b);
        for (a, b) in fam_a.iter().zip(fam_b.iter()) {
            assert!(
                (a - b).max_abs() < 1e-9,
                "aligned adjacency changed under relabelling"
            );
        }
    }
}
