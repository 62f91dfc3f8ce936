//! Cross-crate invariance tests: isomorphic graphs must be indistinguishable
//! to every permutation-invariant kernel.

use haqjsk::graph::generators::{barabasi_albert, erdos_renyi, watts_strogatz};
use haqjsk::graph::isomorphism::{are_isomorphic, find_isomorphism, is_valid_isomorphism};
use haqjsk::kernels::{GraphKernel, GraphletKernel, ShortestPathKernel, WeisfeilerLehmanKernel};
use haqjsk::prelude::*;

/// Relabelled copies of a graph are isomorphic, and every permutation-
/// invariant kernel gives them identical similarity to any probe graph.
#[test]
fn isomorphic_graphs_are_kernel_indistinguishable() {
    let base = erdos_renyi(10, 0.35, 5);
    let perm: Vec<usize> = vec![7, 2, 9, 0, 4, 6, 1, 8, 3, 5];
    let relabelled = base.permute(&perm).unwrap();

    // Sanity: the isomorphism checker recognises the pair and returns a
    // valid witness mapping.
    assert!(are_isomorphic(&base, &relabelled));
    let mapping = find_isomorphism(&base, &relabelled).unwrap();
    assert!(is_valid_isomorphism(&base, &relabelled, &mapping));

    let probes = [
        barabasi_albert(10, 2, 1),
        watts_strogatz(12, 4, 0.2, 2),
        erdos_renyi(9, 0.3, 11),
    ];
    let kernels: Vec<Box<dyn GraphKernel>> = vec![
        Box::new(WeisfeilerLehmanKernel::new(3)),
        Box::new(ShortestPathKernel::new()),
        Box::new(GraphletKernel::three_only()),
    ];
    for kernel in &kernels {
        for probe in &probes {
            let a = kernel.compute(&base, probe);
            let b = kernel.compute(&relabelled, probe);
            assert!(
                (a - b).abs() < 1e-8,
                "{} distinguishes isomorphic graphs: {a} vs {b}",
                kernel.name()
            );
        }
    }

    // The HAQJSK kernel (fitted on a dataset containing the base graph) also
    // cannot tell the two apart.
    let mut dataset = vec![base.clone()];
    dataset.extend(probes.iter().cloned());
    let model = HaqjskModel::fit(
        &dataset,
        HaqjskConfig {
            hierarchy_levels: 2,
            num_prototypes: 8,
            layer_cap: 3,
            ..HaqjskConfig::small()
        },
        HaqjskVariant::AlignedAdjacency,
    )
    .unwrap();
    for probe in &probes {
        let a = model.kernel_between(&base, probe).unwrap();
        let b = model.kernel_between(&relabelled, probe).unwrap();
        assert!(
            (a - b).abs() < 1e-8,
            "HAQJSK distinguishes isomorphic graphs"
        );
    }
}

/// Structure-changing perturbations are detected both by the isomorphism test
/// and by a drop in normalised kernel similarity.
#[test]
fn perturbed_graphs_are_detectably_different() {
    let base = watts_strogatz(14, 4, 0.1, 3);
    let perturbed = haqjsk::graph::generators::remove_random_edges(&base, 5, 9);
    assert!(!are_isomorphic(&base, &perturbed));
    let wl = WeisfeilerLehmanKernel::new(3);
    let self_sim = wl.compute(&base, &base);
    let cross = wl.compute(&base, &perturbed);
    assert!(cross < self_sim, "perturbation should lower similarity");
}
