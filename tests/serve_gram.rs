//! The served `gram` op: rows of the Gram over the served set, read from
//! the row memo.
//!
//! A `fit` writes each training graph's Gram row into the model's row
//! memo, and an `append` computes nothing. A `gram` read answers the rows
//! the memo holds whole and extends the others by their missing columns
//! only. Every row must equal the in-process `gram_matrix` row and the
//! served `kernel_row` of the same graph bit for bit, whatever the memo
//! evicted. Work is counted, not timed: the mixture count is the
//! process-wide batched-eigensolver tally, so the tests in this file take
//! one lock. The helpers take a request function: the production handler
//! in process or, for the degenerate-graph test, a loopback connection.

use haqjsk::core::{model_from_string, HaqjskModel};
use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::linalg::batch_solve_stats;
use haqjsk::serving::{Serving, ServingConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

/// A budget no test set here comes near, so the `HAQJSK_CACHE_BUDGET`
/// environment default cannot evict a row a count relies on.
const AMPLE: usize = 1 << 30;

/// A JSON-lines connection to the server at `addr`: one reply per request.
fn wire(addr: &str) -> impl FnMut(&Json) -> Json {
    let mut writer = TcpStream::connect(addr).expect("connect to server");
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    move |body| {
        writeln!(writer, "{body}").expect("send request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        Json::parse(line.trim()).expect("reply is JSON")
    }
}

fn request(serving: &mut impl FnMut(&Json) -> Json, body: Json) -> Json {
    let response = serving(&body);
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {body} failed: {response}"
    );
    response
}

fn fit(
    serving: &mut impl FnMut(&Json) -> Json,
    graphs: &[Graph],
    variant: &str,
    budget: usize,
) -> Json {
    request(
        serving,
        Json::obj([
            ("cmd", Json::Str("fit".into())),
            (
                "graphs",
                Json::Arr(graphs.iter().map(graph_to_json).collect()),
            ),
            ("variant", Json::Str(variant.into())),
            (
                "config",
                Json::obj([
                    ("hierarchy_levels", Json::Num(3.0)),
                    ("num_prototypes", Json::Num(6.0)),
                    ("layer_cap", Json::Num(2.0)),
                    ("kmeans_max_iterations", Json::Num(8.0)),
                    ("cache_budget_bytes", Json::Num(budget as f64)),
                ]),
            ),
        ]),
    )
}

fn append(serving: &mut impl FnMut(&Json) -> Json, graph: &Graph) {
    request(
        serving,
        Json::obj([
            ("cmd", Json::Str("append".into())),
            ("graph", graph_to_json(graph)),
        ]),
    );
}

fn bits(values: &[Json]) -> Vec<u64> {
    values
        .iter()
        .map(|v| v.as_f64().expect("numeric kernel value").to_bits())
        .collect()
}

/// The bit patterns of every row of a full `gram` read.
fn gram_bits(serving: &mut impl FnMut(&Json) -> Json) -> Vec<Vec<u64>> {
    let reply = request(serving, Json::obj([("cmd", Json::Str("gram".into()))]));
    let rows = reply
        .get("rows")
        .and_then(Json::as_array)
        .expect("gram answers rows");
    assert_eq!(reply.get("from").and_then(Json::as_usize), Some(0));
    assert_eq!(reply.get("to").and_then(Json::as_usize), Some(rows.len()));
    rows.iter()
        .map(|row| bits(row.as_array().expect("a row is an array")))
        .collect()
}

fn kernel_row_bits(serving: &mut impl FnMut(&Json) -> Json, graph: &Graph) -> Vec<u64> {
    let reply = request(
        serving,
        Json::obj([
            ("cmd", Json::Str("kernel_row".into())),
            ("graph", graph_to_json(graph)),
        ]),
    );
    bits(
        reply
            .get("values")
            .and_then(Json::as_array)
            .expect("kernel_row answers values"),
    )
}

/// The in-process Gram of `graphs` under the served model, rebuilt from
/// its persisted text.
fn expected_gram(serving: &mut impl FnMut(&Json) -> Json, graphs: &[Graph]) -> Vec<Vec<u64>> {
    let saved = request(serving, Json::obj([("cmd", Json::Str("save".into()))]));
    let model: HaqjskModel =
        model_from_string(saved.get("model").and_then(Json::as_str).unwrap()).unwrap();
    let gram = model.gram_matrix(graphs).unwrap();
    (0..graphs.len())
        .map(|i| gram.matrix().row(i).iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn stat(serving: &mut impl FnMut(&Json) -> Json, field: &str) -> usize {
    request(serving, Json::obj([("cmd", Json::Str("stats".into()))]))
        .get(field)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats reports {field}"))
}

fn training_set() -> Vec<Graph> {
    let mut graphs: Vec<Graph> = (5..10)
        .flat_map(|n| {
            [
                cycle_graph(n),
                star_graph(n),
                erdos_renyi(n + 1, 0.4, n as u64),
            ]
        })
        .collect();
    // A duplicate shares its memo row with its twin.
    graphs.push(graphs[1].clone());
    graphs
}

#[test]
fn gram_rows_equal_the_in_process_gram_and_served_kernel_rows() {
    let _counting = counting();
    let graphs = training_set();
    for variant in ["A", "D"] {
        let handler = Serving::new(ServingConfig::default());
        let serving = &mut |body: &Json| handler.handle(body);
        fit(serving, &graphs, variant, AMPLE);
        // The fit's rows are in the memo: the read solves no mixture.
        let before = mixtures_solved();
        let gram = gram_bits(serving);
        assert_eq!(mixtures_solved() - before, 0, "{variant}");
        assert_eq!(gram, expected_gram(serving, &graphs), "{variant}");
        // A memo that holds one row answers every other training graph's
        // `kernel_row` through its transform, paired as a query.
        let narrow_handler = Serving::new(ServingConfig::default());
        let narrow = &mut |body: &Json| narrow_handler.handle(body);
        fit(narrow, &graphs, variant, 24 + 8 * 64);
        for (i, graph) in graphs.iter().enumerate() {
            assert_eq!(kernel_row_bits(narrow, graph), gram[i], "{variant} row {i}");
        }
        assert!(stat(narrow, "row_cache_misses") > 0);
        // A page is the slice of the full read.
        let page = request(
            serving,
            Json::obj([
                ("cmd", Json::Str("gram".into())),
                ("from", Json::Num(3.0)),
                ("to", Json::Num(7.0)),
            ]),
        );
        let rows: Vec<Vec<u64>> = page
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|row| bits(row.as_array().unwrap()))
            .collect();
        assert_eq!(rows, gram[3..7], "{variant} page");
    }
}

#[test]
fn appends_extend_gram_rows_by_their_new_columns_only() {
    let _counting = counting();
    let mut served = training_set();
    let n = served.len() as u64;
    let handler = Serving::new(ServingConfig::default());
    let serving = &mut |body: &Json| handler.handle(body);
    let levels = fit(serving, &served, "A", AMPLE)
        .get("levels")
        .and_then(Json::as_usize)
        .unwrap() as u64;

    // Appends compute no kernel value.
    let before = mixtures_solved();
    for arrival in [path_graph(6), erdos_renyi(8, 0.3, 91)] {
        append(serving, &arrival);
        served.push(arrival);
    }
    assert_eq!(mixtures_solved() - before, 0);

    // The read pays only the missing columns: the two new ones for each
    // old row, and all n + 2 for each of the two new rows.
    let before = mixtures_solved();
    let gram = gram_bits(serving);
    assert_eq!(mixtures_solved() - before, levels * (2 * n + 2 * (n + 2)));
    assert_eq!(gram.len(), served.len());
    assert_eq!(gram, expected_gram(serving, &served));

    // The extended rows replaced the short ones: a second read is free,
    // and so is a training graph's `kernel_row`.
    let before = mixtures_solved();
    assert_eq!(gram_bits(serving), gram);
    assert_eq!(kernel_row_bits(serving, &served[0]), gram[0]);
    assert_eq!(mixtures_solved() - before, 0);
}

#[test]
fn evicted_gram_rows_are_rebuilt_exactly_within_the_budget() {
    let _counting = counting();
    let mut served = training_set();
    // Room for four rows: a row weighs its 24-byte header plus 8 bytes
    // for each of its 64 allocated value slots.
    let budget = 4 * (24 + 8 * 64);
    let handler = Serving::new(ServingConfig::default());
    let serving = &mut |body: &Json| handler.handle(body);
    fit(serving, &served, "D", budget);
    assert!(stat(serving, "row_cache_evictions") > 0);
    for round in 0..3 {
        if round == 1 {
            let arrival = cycle_graph(4);
            append(serving, &arrival);
            served.push(arrival);
        }
        assert_eq!(
            gram_bits(serving),
            expected_gram(serving, &served),
            "round {round}"
        );
        let resident = stat(serving, "row_cache_resident_bytes");
        assert!(resident <= budget, "{resident} memo bytes over {budget}");
    }
}

/// A 1-vertex graph, an edgeless one, two disjoint triangles, K5 and a
/// star, served over a connection: every row, the symmetry and the
/// diagonal hold as for ordinary graphs, and a 0-vertex graph is an error
/// envelope that leaves the connection answering.
#[test]
fn degenerate_graphs_serve_exact_rows_over_the_wire() {
    let _counting = counting();
    let triangles =
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
    let graphs = vec![
        Graph::new(1),
        Graph::new(5),
        triangles,
        complete_graph(5),
        star_graph(6),
    ];
    let empty = Json::parse(r#"{"n":0,"edges":[]}"#).unwrap();
    let mut server = Serving::new(ServingConfig::default())
        .spawn("127.0.0.1:0")
        .expect("bind server");
    let wire = &mut wire(&server.local_addr().to_string());
    for variant in ["A", "D"] {
        let mut served = graphs.clone();
        let levels = request(
            wire,
            Json::obj([
                ("cmd", Json::Str("fit".into())),
                (
                    "graphs",
                    Json::Arr(served.iter().map(graph_to_json).collect()),
                ),
                ("variant", Json::Str(variant.into())),
            ]),
        )
        .get("levels")
        .and_then(Json::as_usize)
        .unwrap();
        let gram = gram_bits(wire);
        assert_eq!(gram, expected_gram(wire, &served), "{variant}");
        for (i, graph) in served.iter().enumerate() {
            assert_eq!(kernel_row_bits(wire, graph), gram[i], "{variant} row {i}");
            assert_eq!(
                f64::from_bits(gram[i][i]),
                levels as f64,
                "{variant} diagonal {i}"
            );
            for (j, row) in gram.iter().enumerate() {
                assert_eq!(row[i], gram[i][j], "{variant} ({i}, {j})");
            }
        }

        append(wire, &graphs[1]);
        served.push(graphs[1].clone());
        let extended = gram_bits(wire);
        assert_eq!(extended.len(), served.len(), "{variant}");
        for (row, old) in extended.iter().zip(&gram) {
            assert_eq!(
                row[..old.len()],
                old[..],
                "{variant}: a prefix keeps its bits"
            );
        }
        assert_eq!(extended, expected_gram(wire, &served), "{variant}");

        let refused = [
            Json::obj([
                ("cmd", Json::Str("fit".into())),
                (
                    "graphs",
                    Json::Arr(vec![graph_to_json(&graphs[3]), empty.clone()]),
                ),
                ("variant", Json::Str(variant.into())),
            ]),
            Json::obj([
                ("cmd", Json::Str("kernel_row".into())),
                ("graph", empty.clone()),
            ]),
            Json::obj([
                ("cmd", Json::Str("append".into())),
                ("graph", empty.clone()),
            ]),
        ];
        for body in refused {
            let reply = wire(&body);
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(false),
                "{body}: {reply}"
            );
            assert!(
                reply.get("error").and_then(Json::as_str).is_some(),
                "{reply}"
            );
        }
        // The refusals changed nothing the connection serves.
        assert_eq!(gram_bits(wire), extended, "{variant}");
    }
    server.shutdown();
}
