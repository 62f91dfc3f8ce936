//! The batched HAQJSK path against the per-pair formula it replaced.
//!
//! `HaqjskModel::kernel_batch` evaluates many pairs one hierarchy level at
//! a time: one batched solve of the level's mixture entropies, plus the
//! endpoint entropies memoised in each state. Every caller — single pairs,
//! Gram tiles, served kernel rows — must give the same bits as the plain
//! `Σ_h exp(-μ · qjsd(ρ_h, σ_h))` with every entropy solved from scratch.
//! CI runs this file under both `HAQJSK_SIMD=scalar` and `auto`.

use haqjsk::core::{AlignedGraph, HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::engine::{graph_to_json, BackendKind, Json};
use haqjsk::graph::generators::{
    barabasi_albert, complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph,
};
use haqjsk::graph::Graph;
use haqjsk::linalg::max_batch_lanes;
use haqjsk::quantum::{
    entropy_of_spectrum, qjsd_from_entropies, von_neumann_entropy, DensityMatrix,
};
use haqjsk::serving::{Serving, ServingConfig};

const VARIANTS: [HaqjskVariant; 2] = [
    HaqjskVariant::AlignedAdjacency,
    HaqjskVariant::AlignedDensity,
];

/// Von Neumann entropy from a fresh eigensolve, bypassing the state's memo.
fn fresh_entropy(rho: &DensityMatrix) -> f64 {
    entropy_of_spectrum(&rho.spectrum().expect("the eigensolver converges"))
}

/// The per-pair formula: `Σ_h exp(-μ · qjsd(ρ_h, σ_h))`, levels added in
/// order, every entropy (endpoints and mixture) solved from scratch.
fn reference_kernel(model: &HaqjskModel, a: &AlignedGraph, b: &AlignedGraph) -> f64 {
    let variant = model.variant();
    let mut total = 0.0;
    for (rho, sigma) in a.densities(variant).iter().zip(b.densities(variant)) {
        let mixture = rho
            .mix(sigma)
            .expect("levels share the prototype dimension");
        let divergence = qjsd_from_entropies(
            fresh_entropy(&mixture),
            fresh_entropy(rho),
            fresh_entropy(sigma),
        );
        total += (-model.config().mu * divergence).exp();
    }
    total
}

/// The serving protocol's spelling of a variant.
fn wire_variant(variant: HaqjskVariant) -> &'static str {
    match variant {
        HaqjskVariant::AlignedAdjacency => "A",
        HaqjskVariant::AlignedDensity => "D",
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn mixed_dataset() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..6 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(4 + i));
        graphs.push(erdos_renyi(6 + i, 0.4, i as u64));
        graphs.push(barabasi_albert(7 + i, 2, 50 + i as u64));
    }
    graphs
}

/// Star, edgeless, disconnected, complete and one-vertex graphs.
fn degenerate_family() -> Vec<Graph> {
    let disconnected =
        Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]).unwrap();
    vec![
        star_graph(6),
        Graph::new(5),
        disconnected,
        complete_graph(5),
        Graph::new(1),
        path_graph(4),
    ]
}

/// Every pair `(i, j)` with `i <= j`, row-major, as references.
fn upper_pairs(aligned: &[AlignedGraph]) -> Vec<(&AlignedGraph, &AlignedGraph)> {
    let mut pairs = Vec::new();
    for i in 0..aligned.len() {
        for j in i..aligned.len() {
            pairs.push((&aligned[i], &aligned[j]));
        }
    }
    pairs
}

#[test]
fn batches_of_every_size_match_the_per_pair_formula_bit_for_bit() {
    let graphs = mixed_dataset();
    let lanes = max_batch_lanes();
    for variant in VARIANTS {
        let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap();
        let aligned = model.transform_all(&graphs).unwrap();
        let pairs = upper_pairs(&aligned);
        assert!(pairs.len() > 2 * lanes + 3);
        let expected: Vec<f64> = pairs
            .iter()
            .map(|&(a, b)| reference_kernel(&model, a, b))
            .collect();
        // One pair, fewer pairs than the lane width, more than two lane
        // widths, and the whole triangle.
        for len in [1, lanes - 1, 2 * lanes + 3, pairs.len()] {
            let batched = model.kernel_batch(&pairs[..len]).unwrap();
            assert_eq!(
                bits(&batched),
                bits(&expected[..len]),
                "{} batch of {len}",
                variant.label()
            );
        }
        for (k, &(a, b)) in pairs.iter().enumerate().step_by(7) {
            assert_eq!(model.kernel(a, b).to_bits(), expected[k].to_bits());
        }
    }
}

#[test]
fn gram_tiles_match_the_per_pair_formula_bit_for_bit() {
    let graphs = mixed_dataset();
    for variant in VARIANTS {
        let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap();
        let aligned = model.transform_all(&graphs).unwrap();
        let n = graphs.len();
        let mut expected = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = reference_kernel(&model, &aligned[i], &aligned[j]);
                expected[i * n + j] = v;
                expected[j * n + i] = v;
            }
        }
        for backend in [BackendKind::Serial, BackendKind::Local] {
            let gram = model.gram_matrix_on(&graphs, Some(backend)).unwrap();
            assert_eq!(
                bits(gram.matrix().data()),
                bits(&expected),
                "{} Gram on {backend:?}",
                variant.label()
            );
        }
    }
}

#[test]
fn served_kernel_rows_match_the_per_pair_formula_bit_for_bit() {
    let graphs = mixed_dataset();
    let queries = [erdos_renyi(9, 0.3, 77), star_graph(8), cycle_graph(11)];
    for variant in VARIANTS {
        let serving = Serving::new(ServingConfig::default());
        let fit = serving.handle(&Json::obj([
            ("cmd", Json::Str("fit".to_string())),
            (
                "graphs",
                Json::Arr(graphs.iter().map(graph_to_json).collect()),
            ),
            ("variant", Json::Str(wire_variant(variant).to_string())),
        ]));
        assert_eq!(fit.get("ok").and_then(Json::as_bool), Some(true), "{fit:?}");
        let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap();
        let train = model.transform_all(&graphs).unwrap();
        for query in &queries {
            let reply = serving.handle(&Json::obj([
                ("cmd", Json::Str("kernel_row".to_string())),
                ("graph", graph_to_json(query)),
            ]));
            let row: Vec<f64> = match reply.get("values") {
                Some(Json::Arr(values)) => values.iter().map(|v| v.as_f64().unwrap()).collect(),
                _ => panic!("kernel_row failed: {reply:?}"),
            };
            let q = model.transform(query).unwrap();
            let expected: Vec<f64> = train
                .iter()
                .map(|t| reference_kernel(&model, &q, t))
                .collect();
            assert_eq!(bits(&row), bits(&expected), "{} row", variant.label());
        }
    }
}

#[test]
fn the_kernel_is_bit_symmetric_per_pair_and_batched() {
    // The degenerate graphs (edgeless, one-vertex, disconnected) beside
    // ordinary ones, so both orientations of every kind of pair are met.
    let mut graphs = degenerate_family();
    graphs.extend(mixed_dataset().into_iter().take(6));
    for variant in VARIANTS {
        let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap();
        let aligned = model.transform_all(&graphs).unwrap();
        let n = aligned.len();
        let ordered: Vec<_> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        let batched = model
            .kernel_batch(
                &ordered
                    .iter()
                    .map(|&(i, j)| (&aligned[i], &aligned[j]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        for (k, &(i, j)) in ordered.iter().enumerate() {
            let what = format!("{} K({i}, {j})", variant.label());
            assert_eq!(batched[k].to_bits(), batched[j * n + i].to_bits(), "{what}");
            let (ab, ba) = (
                model.kernel(&aligned[i], &aligned[j]),
                model.kernel(&aligned[j], &aligned[i]),
            );
            assert_eq!(ab.to_bits(), ba.to_bits(), "{what} per pair");
            assert_eq!(ab.to_bits(), batched[k].to_bits(), "{what} batched");
            assert_eq!(
                reference_kernel(&model, &aligned[i], &aligned[j]).to_bits(),
                reference_kernel(&model, &aligned[j], &aligned[i]).to_bits(),
                "{what} from scratch"
            );
        }
    }
}

/// Every endpoint and mixture eigensolve of a dataset converges.
fn assert_every_solve_converges(model: &HaqjskModel, aligned: &[AlignedGraph], what: &str) {
    let variant = model.variant();
    for (i, a) in aligned.iter().enumerate() {
        for (h, rho) in a.densities(variant).iter().enumerate() {
            von_neumann_entropy(rho)
                .unwrap_or_else(|e| panic!("{what}: endpoint {i} level {h}: {e}"));
        }
    }
    for (i, a) in aligned.iter().enumerate() {
        for (j, b) in aligned.iter().enumerate().skip(i) {
            for (h, (rho, sigma)) in a
                .densities(variant)
                .iter()
                .zip(b.densities(variant))
                .enumerate()
            {
                let mixture = rho.mix(sigma).unwrap();
                mixture
                    .spectrum()
                    .unwrap_or_else(|e| panic!("{what}: mixture ({i},{j}) level {h}: {e}"));
            }
        }
    }
    model
        .kernel_batch(&upper_pairs(aligned))
        .unwrap_or_else(|e| panic!("{what}: kernel_batch: {e}"));
}

#[test]
fn degenerate_graphs_never_fail_an_eigensolve() {
    let mut graphs = degenerate_family();
    graphs.extend(mixed_dataset().into_iter().take(6));
    for variant in VARIANTS {
        let model = HaqjskModel::fit(&graphs, HaqjskConfig::small(), variant).unwrap();
        let aligned = model.transform_all(&graphs).unwrap();
        assert_every_solve_converges(&model, &aligned, variant.label());
    }
}

#[test]
fn mostly_zero_row_states_never_fail_an_eigensolve() {
    // The paper's default prototype counts over small graphs: the first
    // levels are 116-dimensional, and most of their rows are zero (the
    // states that used to stall the QL sweep on subnormal residue).
    let mut graphs = Vec::new();
    for i in 0..4 {
        graphs.push(cycle_graph(5 + i));
        graphs.push(star_graph(5 + i));
        graphs.push(erdos_renyi(6 + i, 0.35, i as u64));
        graphs.push(barabasi_albert(7 + i, 2, 100 + i as u64));
    }
    let config = HaqjskConfig {
        max_layers: Some(2),
        ..HaqjskConfig::default()
    };
    for variant in VARIANTS {
        let model = HaqjskModel::fit(&graphs, config.clone(), variant).unwrap();
        let aligned = model.transform_all(&graphs).unwrap();
        let first = &aligned[0].densities(variant)[0];
        let zero_rows = (0..first.dim())
            .filter(|&i| first.matrix().row(i).iter().all(|&x| x == 0.0))
            .count();
        assert!(
            zero_rows * 2 > first.dim(),
            "{}: expected a mostly-zero-row state, got {zero_rows} of {}",
            variant.label(),
            first.dim()
        );
        assert_every_solve_converges(&model, &aligned, variant.label());
    }
}
