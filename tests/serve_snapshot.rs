//! The served snapshot under concurrency: `Serving::handle` driven from
//! several threads at once. Reads must always see one whole published
//! snapshot (a row over exactly the first L served graphs, bit-equal to an
//! in-process evaluation), the served set must only grow while one thread
//! appends, and a `fit` racing an `append` must never bring the replaced
//! model back.

use haqjsk::core::{model_from_string, AlignedGraph, HaqjskModel};
use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::serving::{Serving, ServingConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

fn request(serving: &Serving, body: Json) -> Json {
    let response = serving.handle(&body);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {body} failed: {response}"
    );
    response
}

fn fit_request(graphs: &[Graph]) -> Json {
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
        ("variant", Json::Str("D".into())),
        (
            "config",
            Json::obj([
                ("hierarchy_levels", Json::Num(2.0)),
                ("num_prototypes", Json::Num(6.0)),
                ("layer_cap", Json::Num(2.0)),
                ("kmeans_max_iterations", Json::Num(8.0)),
            ]),
        ),
    ])
}

fn graph_request(cmd: &str, graph: &Graph) -> Json {
    Json::obj([
        ("cmd", Json::Str(cmd.into())),
        ("graph", graph_to_json(graph)),
    ])
}

fn append_request(graph: &Graph, label: usize) -> Json {
    Json::obj([
        ("cmd", Json::Str("append".into())),
        ("graph", graph_to_json(graph)),
        ("label", Json::Num(label as f64)),
    ])
}

fn num_graphs(serving: &Serving) -> usize {
    request(serving, Json::obj([("cmd", Json::Str("stats".into()))]))
        .get("num_graphs")
        .and_then(Json::as_usize)
        .expect("a fitted server reports num_graphs")
}

/// The served model, rebuilt in process from its persisted text.
fn served_model(serving: &Serving) -> HaqjskModel {
    let saved = request(serving, Json::obj([("cmd", Json::Str("save".into()))]));
    model_from_string(saved.get("model").and_then(Json::as_str).unwrap()).unwrap()
}

fn row_bits(response: &Json) -> Vec<u64> {
    response
        .get("values")
        .and_then(Json::as_array)
        .expect("kernel_row answers values")
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

#[test]
fn reads_see_whole_snapshots_while_one_thread_appends() {
    let train: Vec<Graph> = (5..9)
        .flat_map(|n| [cycle_graph(n), star_graph(n)])
        .collect();
    let arrivals: Vec<Graph> = (0..6)
        .map(|i| erdos_renyi(6 + i % 3, 0.4, 40 + i as u64))
        .collect();
    let queries = [path_graph(6), erdos_renyi(7, 0.35, 9), star_graph(4)];
    let (n, k) = (train.len(), arrivals.len());

    let serving = Serving::new(ServingConfig::default());
    request(&serving, fit_request(&train));

    // Every row a reader may legitimately see: query q against the first L
    // served graphs, for each L in N..=N+K, evaluated in process.
    let model = served_model(&serving);
    let served: Vec<AlignedGraph> = train
        .iter()
        .chain(&arrivals)
        .map(|g| model.transform(g).unwrap())
        .collect();
    let expected: Vec<Vec<Vec<u64>>> = queries
        .iter()
        .map(|q| {
            let q = model.transform(q).unwrap();
            (n..=n + k)
                .map(|len| {
                    let pairs: Vec<_> = served[..len].iter().map(|t| (&q, t)).collect();
                    let row = model.kernel_batch(&pairs).unwrap();
                    row.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 2).chain((0..k).map(|i| i % 3)).collect();

    let appending = AtomicBool::new(true);
    thread::scope(|scope| {
        let appender = scope.spawn(|| {
            for (i, graph) in arrivals.iter().enumerate() {
                let response = request(&serving, append_request(graph, labels[n + i]));
                assert_eq!(
                    response.get("num_graphs").and_then(Json::as_usize),
                    Some(n + i + 1)
                );
            }
            appending.store(false, Ordering::Release);
        });
        for reader in 0..2 {
            let (serving, queries, expected, labels, appending) =
                (&serving, &queries, &expected, &labels, &appending);
            scope.spawn(move || {
                let mut round = reader;
                loop {
                    let done = !appending.load(Ordering::Acquire);
                    let q = round % queries.len();
                    let row = row_bits(&request(serving, graph_request("kernel_row", &queries[q])));
                    let len = row.len();
                    assert!((n..=n + k).contains(&len), "row of {len} graphs");
                    assert_eq!(row, expected[q][len - n], "query {q} against {len} graphs");

                    // A prediction is the 1-NN of one whole row.
                    let predicted = request(serving, graph_request("predict", &queries[q]));
                    let nearest = predicted.get("nearest").and_then(Json::as_usize).unwrap();
                    let value = predicted
                        .get("kernel_value")
                        .and_then(Json::as_f64)
                        .unwrap();
                    let label = predicted.get("label").and_then(Json::as_usize).unwrap();
                    let consistent = expected[q].iter().any(|row| {
                        let best = (0..row.len())
                            .max_by(|&a, &b| {
                                f64::from_bits(row[a]).total_cmp(&f64::from_bits(row[b]))
                            })
                            .unwrap();
                        best == nearest && row[best] == value.to_bits() && labels[best] == label
                    });
                    assert!(consistent, "predict {predicted} matches no served prefix");
                    round += 1;
                    if done {
                        break;
                    }
                }
            });
        }
        let (serving, appending) = (&serving, &appending);
        scope.spawn(move || {
            let mut last = n;
            loop {
                let done = !appending.load(Ordering::Acquire);
                let now = num_graphs(serving);
                assert!(now >= last, "num_graphs went back from {last} to {now}");
                assert!(now <= n + k);
                last = now;
                if done {
                    break;
                }
                thread::sleep(Duration::from_micros(200));
            }
        });
        appender.join().unwrap();
    });
    assert_eq!(num_graphs(&serving), n + k);
}

#[test]
fn a_fit_racing_an_append_never_brings_back_the_replaced_model() {
    let old: Vec<Graph> = (5..11)
        .flat_map(|n| [cycle_graph(n), star_graph(n)])
        .collect();
    let new: Vec<Graph> = (4..7).map(path_graph).collect();
    let arrival = erdos_renyi(7, 0.4, 3);
    assert!(![new.len(), new.len() + 1].contains(&(old.len() + 1)));

    let serving = Serving::new(ServingConfig::default());
    let new_model_text = {
        request(&serving, fit_request(&new));
        let saved = request(&serving, Json::obj([("cmd", Json::Str("save".into()))]));
        saved
            .get("model")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    for round in 0..8u64 {
        request(&serving, fit_request(&old));
        let start = Barrier::new(2);
        thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                // Stagger the fit across the append's window.
                thread::sleep(Duration::from_micros(round * 400));
                request(&serving, fit_request(&new));
            });
            scope.spawn(|| {
                start.wait();
                request(&serving, append_request(&arrival, 1));
            });
        });
        let served = num_graphs(&serving);
        assert!(
            served == new.len() || served == new.len() + 1,
            "round {round}: {served} served graphs, the new fit has {}",
            new.len()
        );
        let saved = request(&serving, Json::obj([("cmd", Json::Str("save".into()))]));
        assert_eq!(
            saved.get("model").and_then(Json::as_str),
            Some(new_model_text.as_str())
        );
        let row = row_bits(&request(&serving, graph_request("kernel_row", &arrival)));
        assert_eq!(
            row.len(),
            served,
            "round {round}: the row covers the served set"
        );
    }
}
