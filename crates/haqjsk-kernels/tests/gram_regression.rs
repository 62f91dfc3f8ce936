//! Acceptance regression for the per-pair fast paths: the Gram matrices of
//! the three quantum kernels (unaligned QJSK, Umeyama-aligned QJSK, JTQK)
//! must match the pre-refactor algorithm — which recomputed every endpoint
//! entropy and alignment eigendecomposition from scratch inside the pair
//! loop — within 1e-9 on the 32-graph acceptance dataset.
//!
//! The legacy reference below replicates that algorithm through public
//! APIs; in particular it guards the entropy hoisting against
//! padded-vs-unpadded spectrum drift and the Umeyama basis reconstruction
//! against permutation flips.

use haqjsk_engine::BackendKind;
use haqjsk_graph::generators::{barabasi_albert, cycle_graph, erdos_renyi, star_graph};
use haqjsk_graph::Graph;
use haqjsk_kernels::jtqk::jensen_tsallis_difference;
use haqjsk_kernels::{GraphKernel, JensenTsallisKernel, QjskAligned, QjskUnaligned};
use haqjsk_quantum::{ctqw_density_infinite, qjsd, DensityMatrix};

/// The 32-graph synthetic acceptance dataset (mixed generator families,
/// mixed sizes so zero-padding paths are exercised).
fn acceptance_dataset() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..8 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(5 + i));
        graphs.push(erdos_renyi(6 + i, 0.35, i as u64));
        graphs.push(barabasi_albert(7 + i, 2, 100 + i as u64));
    }
    assert_eq!(graphs.len(), 32);
    graphs
}

fn densities(graphs: &[Graph]) -> Vec<DensityMatrix> {
    graphs
        .iter()
        .map(|g| ctqw_density_infinite(g).expect("non-empty graph"))
        .collect()
}

/// Pre-refactor unaligned QJSK pair value: zero-pad, then the full QJSD
/// with all three entropies recomputed from scratch.
fn legacy_unaligned(mu: f64, a: &DensityMatrix, b: &DensityMatrix) -> f64 {
    let n = a.dim().max(b.dim());
    let pa = a.zero_pad(n).unwrap();
    let pb = b.zero_pad(n).unwrap();
    (-mu * qjsd(&pa, &pb).unwrap()).exp()
}

/// Pre-refactor aligned QJSK pair value: Umeyama matching with both padded
/// densities eigendecomposed per pair, then the full QJSD.
fn legacy_aligned(mu: f64, a: &DensityMatrix, b: &DensityMatrix) -> f64 {
    let n = a.dim().max(b.dim());
    let pa = a.zero_pad(n).unwrap();
    let pb = b.zero_pad(n).unwrap();
    let perm = QjskAligned::umeyama_match(pa.matrix(), pb.matrix()).unwrap();
    let aligned_b = pb.permute(&perm).unwrap();
    (-mu * qjsd(&pa, &aligned_b).unwrap()).exp()
}

/// Pre-refactor JTQK pair value: Jensen–Tsallis difference of the padded
/// densities with all three Tsallis entropies recomputed, times the
/// per-pair-normalised WL factor.
fn legacy_jtqk(
    kernel: &JensenTsallisKernel,
    ga: &Graph,
    gb: &Graph,
    a: &DensityMatrix,
    b: &DensityMatrix,
) -> f64 {
    let n = a.dim().max(b.dim());
    let pa = a.zero_pad(n).unwrap();
    let pb = b.zero_pad(n).unwrap();
    let quantum = (-jensen_tsallis_difference(&pa, &pb, kernel.q).unwrap()).exp();
    quantum * kernel.local_factor(ga, gb)
}

fn assert_gram_matches(
    name: &str,
    gram: &haqjsk_kernels::KernelMatrix,
    reference: impl Fn(usize, usize) -> f64,
) {
    let n = gram.len();
    let mut worst = 0.0_f64;
    for i in 0..n {
        for j in 0..n {
            let diff = (gram.get(i, j) - reference(i, j)).abs();
            worst = worst.max(diff);
            assert!(
                diff < 1e-9,
                "{name}: pair ({i},{j}) drifted by {diff} from the pre-refactor value"
            );
        }
    }
    println!("{name}: max drift from legacy path {worst:.3e}");
}

#[test]
fn unaligned_qjsk_gram_matches_pre_refactor_values() {
    let graphs = acceptance_dataset();
    let rhos = densities(&graphs);
    let kernel = QjskUnaligned::default();
    let gram = kernel.gram_matrix(&graphs);
    assert_gram_matches("QJSK (unaligned)", &gram, |i, j| {
        legacy_unaligned(kernel.mu, &rhos[i], &rhos[j])
    });
}

#[test]
fn aligned_qjsk_gram_matches_pre_refactor_values() {
    let graphs = acceptance_dataset();
    let rhos = densities(&graphs);
    let kernel = QjskAligned::default();
    let gram = kernel.gram_matrix(&graphs);
    assert_gram_matches("QJSK (aligned)", &gram, |i, j| {
        legacy_aligned(kernel.mu, &rhos[i], &rhos[j])
    });
}

#[test]
fn jtqk_gram_matches_pre_refactor_values() {
    let graphs = acceptance_dataset();
    let rhos = densities(&graphs);
    let kernel = JensenTsallisKernel::default();
    let gram = kernel.gram_matrix(&graphs);
    assert_gram_matches("JTQK", &gram, |i, j| {
        legacy_jtqk(&kernel, &graphs[i], &graphs[j], &rhos[i], &rhos[j])
    });
}

#[test]
fn a_zero_vertex_graph_is_an_error_not_a_panic() {
    let mut graphs = acceptance_dataset();
    graphs.insert(5, Graph::new(0));
    let kernels: [&dyn GraphKernel; 3] = [
        &QjskUnaligned::default(),
        &QjskAligned::default(),
        &JensenTsallisKernel::default(),
    ];
    for kernel in kernels {
        for backend in [BackendKind::Serial, BackendKind::Local] {
            let gram = kernel.try_gram_matrix_on(&graphs, Some(backend));
            assert!(gram.is_err(), "{} on {backend}", kernel.name());
        }
    }
}
