//! The served row memo, checked by counting work rather than timing it.
//!
//! A served model memoises each query's kernel row against a prefix of
//! the served set: a repeated `kernel_row` or `predict` solves no mixture,
//! an `append` extends a memo row by its one new column (`H` mixtures, one
//! per hierarchy level), and a new `fit` starts from a memo holding only
//! its training graphs' Gram rows. Every
//! row must equal the in-process `kernel_batch` row bit for bit, and the
//! memo must stay within the model's cache budget.
//!
//! The mixture count is the process-wide batched-eigensolver tally, so the
//! tests in this file take one lock: no other eigen work runs while a test
//! counts.

use haqjsk::core::{model_from_string, HaqjskModel};
use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::linalg::batch_solve_stats;
use haqjsk::serving::{Serving, ServingConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mixtures solved so far in this process (batched lanes plus scalar
/// stragglers).
fn mixtures_solved() -> u64 {
    let stats = batch_solve_stats();
    stats.batched_matrices + stats.scalar_fallbacks
}

fn request(serving: &Serving, body: Json) -> Json {
    let response = serving.handle(&body);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {body} failed: {response}"
    );
    response
}

fn fit_request(graphs: &[Graph], budget: Option<usize>) -> Json {
    let mut config = vec![
        ("hierarchy_levels", Json::Num(3.0)),
        ("num_prototypes", Json::Num(6.0)),
        ("layer_cap", Json::Num(2.0)),
        ("kmeans_max_iterations", Json::Num(8.0)),
    ];
    if let Some(budget) = budget {
        config.push(("cache_budget_bytes", Json::Num(budget as f64)));
    }
    Json::obj([
        ("cmd", Json::Str("fit".into())),
        (
            "graphs",
            Json::Arr(graphs.iter().map(graph_to_json).collect()),
        ),
        (
            "labels",
            Json::Arr(
                (0..graphs.len())
                    .map(|i| Json::Num((i % 2) as f64))
                    .collect(),
            ),
        ),
        ("variant", Json::Str("A".into())),
        ("config", Json::obj(config)),
    ])
}

fn graph_request(cmd: &str, graph: &Graph) -> Json {
    Json::obj([
        ("cmd", Json::Str(cmd.into())),
        ("graph", graph_to_json(graph)),
    ])
}

fn append(serving: &Serving, graph: &Graph) {
    let mut body = graph_request("append", graph);
    if let Json::Obj(fields) = &mut body {
        fields.insert("label".into(), Json::Num(1.0));
    }
    request(serving, body);
}

fn stat(serving: &Serving, field: &str) -> usize {
    request(serving, Json::obj([("cmd", Json::Str("stats".into()))]))
        .get(field)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats reports {field}"))
}

fn row_bits(serving: &Serving, query: &Graph) -> Vec<u64> {
    request(serving, graph_request("kernel_row", query))
        .get("values")
        .and_then(Json::as_array)
        .expect("kernel_row answers values")
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

/// The served model rebuilt from its persisted text, and the in-process
/// `kernel_batch` row of `query` against `served`.
fn expected_bits(serving: &Serving, served: &[Graph], query: &Graph) -> Vec<u64> {
    let saved = request(serving, Json::obj([("cmd", Json::Str("save".into()))]));
    let model: HaqjskModel =
        model_from_string(saved.get("model").and_then(Json::as_str).unwrap()).unwrap();
    let q = model.transform(query).unwrap();
    let served = model.transform_all(served).unwrap();
    let pairs: Vec<_> = served.iter().map(|t| (&q, t)).collect();
    let row = model.kernel_batch(&pairs).unwrap();
    row.iter().map(|v| v.to_bits()).collect()
}

fn training_set() -> Vec<Graph> {
    (5..11)
        .flat_map(|n| [cycle_graph(n), star_graph(n)])
        .collect()
}

#[test]
fn repeated_and_extended_rows_count_their_mixture_solves() {
    let _counting = counting();
    let mut served = training_set();
    let query = erdos_renyi(8, 0.4, 17);
    let serving = Serving::new(ServingConfig::default());
    let fitted = request(&serving, fit_request(&served, None));
    let levels = fitted.get("levels").and_then(Json::as_usize).unwrap() as u64;
    assert!(levels > 0);

    let first = row_bits(&serving, &query);
    assert_eq!(first, expected_bits(&serving, &served, &query));
    assert_eq!(
        (
            stat(&serving, "row_cache_hits"),
            stat(&serving, "row_cache_misses")
        ),
        (0, 1)
    );
    let lookups = stat(&serving, "aligned_cache_hits") + stat(&serving, "aligned_cache_misses");

    // A repeated query solves no mixture and looks up no transform.
    let before = mixtures_solved();
    assert_eq!(row_bits(&serving, &query), first);
    request(&serving, graph_request("predict", &query));
    assert_eq!(mixtures_solved() - before, 0);
    assert_eq!(
        (
            stat(&serving, "row_cache_hits"),
            stat(&serving, "row_cache_misses"),
            stat(&serving, "row_cache_entries")
        ),
        (2, 1, 13)
    );
    assert_eq!(
        stat(&serving, "aligned_cache_hits") + stat(&serving, "aligned_cache_misses"),
        lookups
    );

    // An append extends the memo row by one column: H mixtures.
    let arrival = path_graph(7);
    append(&serving, &arrival);
    served.push(arrival);
    let before = mixtures_solved();
    let extended = row_bits(&serving, &query);
    assert_eq!(mixtures_solved() - before, levels);
    assert_eq!(extended.len(), served.len());
    assert_eq!(extended[..first.len()], first[..]);
    assert_eq!(extended, expected_bits(&serving, &served, &query));
    // The extended row replaced the shorter one.
    let before = mixtures_solved();
    assert_eq!(row_bits(&serving, &query), extended);
    assert_eq!(mixtures_solved() - before, 0);
    assert_eq!(
        (
            stat(&serving, "row_cache_hits"),
            stat(&serving, "row_cache_misses")
        ),
        (3, 2)
    );

    // A new fit starts from a memo of its own six Gram rows and serves the
    // new model's row.
    let refit: Vec<Graph> = (4..9).map(path_graph).chain([star_graph(5)]).collect();
    request(&serving, fit_request(&refit, None));
    assert_eq!(stat(&serving, "row_cache_entries"), 6);
    assert_eq!(stat(&serving, "row_cache_hits"), 0);
    assert_eq!(
        row_bits(&serving, &query),
        expected_bits(&serving, &refit, &query)
    );
    assert_eq!(stat(&serving, "row_cache_misses"), 1);
}

#[test]
fn a_small_budget_bounds_the_memo_and_rows_stay_exact() {
    let _counting = counting();
    let mut served = training_set();
    let queries: Vec<Graph> = (0..12)
        .map(|i| erdos_renyi(6 + i % 4, 0.4, 300 + i as u64))
        .collect();
    // Room for four rows of 13 or 14 values: a row weighs its 24-byte
    // header plus 8 bytes for each of its 64 allocated value slots.
    let budget = 4 * (24 + 8 * 64);
    let serving = Serving::new(ServingConfig::default());
    request(&serving, fit_request(&served, Some(budget)));

    for round in 0..3 {
        if round == 1 {
            let arrival = cycle_graph(4);
            append(&serving, &arrival);
            served.push(arrival);
        }
        for query in &queries {
            assert_eq!(
                row_bits(&serving, query),
                expected_bits(&serving, &served, query),
                "round {round}"
            );
            let resident = stat(&serving, "row_cache_resident_bytes");
            assert!(resident <= budget, "{resident} memo bytes over {budget}");
        }
    }
    assert!(stat(&serving, "row_cache_evictions") > 0);
    assert!(stat(&serving, "row_cache_entries") > 0);
}
