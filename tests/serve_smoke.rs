//! Loopback smoke test of the `haqjsk-serve` stack: the production handler
//! (`haqjsk::serving`) behind the engine's JSON-lines TCP server, driven by
//! a real client socket.

use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::serving::spawn_server;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, body: &str) -> Json {
        self.writer.write_all(body.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        Json::parse(line.trim()).expect("response is valid JSON")
    }

    fn expect_ok(&mut self, body: &str) -> Json {
        let response = self.request(body);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {body} failed: {response}"
        );
        response
    }
}

fn training_set() -> (Vec<Graph>, Vec<usize>) {
    // Two visually distinct classes: cycles (label 0) and stars (label 1).
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for n in 5..9 {
        graphs.push(cycle_graph(n));
        labels.push(0);
        graphs.push(star_graph(n));
        labels.push(1);
    }
    (graphs, labels)
}

fn fit_request(graphs: &[Graph], labels: &[usize]) -> String {
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    let labels_json = Json::Arr(labels.iter().map(|&l| Json::Num(l as f64)).collect());
    format!(
        "{{\"cmd\":\"fit\",\"graphs\":{graphs_json},\"labels\":{labels_json},\
         \"variant\":\"A\",\"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":8,\
         \"layer_cap\":3,\"kmeans_max_iterations\":15}}}}"
    )
}

#[test]
fn full_protocol_over_loopback() {
    let server = spawn_server("127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    // Liveness, and a clean error before any model exists.
    let pong = client.expect_ok("{\"cmd\":\"ping\"}");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    let early = client.request("{\"cmd\":\"predict\",\"graph\":{\"n\":2,\"edges\":[[0,1]]}}");
    assert_eq!(early.get("ok").and_then(Json::as_bool), Some(false));

    // Fit on the cycle/star training set.
    let (graphs, labels) = training_set();
    let fitted = client.expect_ok(&fit_request(&graphs, &labels));
    assert_eq!(
        fitted.get("num_graphs").and_then(Json::as_usize),
        Some(graphs.len())
    );
    let levels = fitted.get("levels").and_then(Json::as_usize).unwrap();
    assert!(levels >= 1);

    // Transform an unseen graph: one entropy per hierarchy level.
    let unseen_cycle = graph_to_json(&cycle_graph(9));
    let transformed = client.expect_ok(&format!(
        "{{\"cmd\":\"transform\",\"graph\":{unseen_cycle}}}"
    ));
    let entropies = transformed
        .get("entropies")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(entropies.len(), levels);
    assert!(entropies.iter().all(|e| e.as_f64().unwrap().is_finite()));

    // Kernel row against the training set, served via incremental extension.
    let row = client.expect_ok(&format!(
        "{{\"cmd\":\"kernel_row\",\"graph\":{unseen_cycle}}}"
    ));
    let values = row.get("values").and_then(Json::as_array).unwrap();
    assert_eq!(values.len(), graphs.len());
    let numeric: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap()).collect();
    assert!(numeric.iter().all(|v| v.is_finite() && *v > 0.0));

    // An unseen cycle should be classified as a cycle, an unseen star as a
    // star (1-NN over the kernel row).
    let predicted = client.expect_ok(&format!("{{\"cmd\":\"predict\",\"graph\":{unseen_cycle}}}"));
    assert_eq!(predicted.get("label").and_then(Json::as_usize), Some(0));
    let unseen_star = graph_to_json(&star_graph(9));
    let predicted = client.expect_ok(&format!("{{\"cmd\":\"predict\",\"graph\":{unseen_star}}}"));
    assert_eq!(predicted.get("label").and_then(Json::as_usize), Some(1));

    // Append a labelled graph, growing the served set.
    let appended = client.expect_ok(&format!(
        "{{\"cmd\":\"append\",\"graph\":{unseen_star},\"label\":1}}"
    ));
    assert_eq!(
        appended.get("num_graphs").and_then(Json::as_usize),
        Some(graphs.len() + 1)
    );
    let row = client.expect_ok(&format!(
        "{{\"cmd\":\"kernel_row\",\"graph\":{unseen_cycle}}}"
    ));
    assert_eq!(
        row.get("values").and_then(Json::as_array).unwrap().len(),
        graphs.len() + 1
    );

    // Persistence round-trip: save, load into a fresh state, predict again.
    let saved = client.expect_ok("{\"cmd\":\"save\"}");
    let model_text = saved
        .get("model")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(model_text.starts_with("haqjsk-model v1"));
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    let labels_json = Json::Arr(labels.iter().map(|&l| Json::Num(l as f64)).collect());
    let model_json = Json::Str(model_text);
    client.expect_ok(&format!(
        "{{\"cmd\":\"load\",\"model\":{model_json},\"graphs\":{graphs_json},\"labels\":{labels_json}}}"
    ));
    let predicted = client.expect_ok(&format!("{{\"cmd\":\"predict\",\"graph\":{unseen_cycle}}}"));
    assert_eq!(predicted.get("label").and_then(Json::as_usize), Some(0));

    // Stats report the engine and the per-model feature cache.
    let stats = client.expect_ok("{\"cmd\":\"stats\"}");
    assert_eq!(stats.get("fitted").and_then(Json::as_bool), Some(true));
    assert!(
        stats
            .get("engine_threads")
            .and_then(Json::as_usize)
            .unwrap()
            >= 1
    );
    assert!(
        stats
            .get("aligned_cache_entries")
            .and_then(Json::as_usize)
            .unwrap()
            >= graphs.len()
    );

    // Unknown commands and malformed JSON produce error responses, not
    // dropped connections.
    let bad = client.request("{\"cmd\":\"frobnicate\"}");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let worse = client.request("not json at all");
    assert_eq!(worse.get("ok").and_then(Json::as_bool), Some(false));

    // A second concurrent client sees the same model.
    let mut second = Client::connect(server.local_addr());
    let stats = second.expect_ok("{\"cmd\":\"stats\"}");
    assert_eq!(stats.get("fitted").and_then(Json::as_bool), Some(true));
}

/// Acceptance: a serving process with a finite aligned-cache budget
/// completes a stream of more distinct graphs than the budget can hold,
/// with residency bounded and the overflow observable through the
/// eviction counter in `stats`.
#[test]
fn budgeted_cache_bounds_residency_over_a_distinct_graph_stream() {
    use haqjsk::graph::generators::erdos_renyi;

    let server = spawn_server("127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    let (graphs, labels) = training_set();
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    let labels_json = Json::Arr(labels.iter().map(|&l| Json::Num(l as f64)).collect());
    // 24000 bytes keeps some of the streamed graphs resident and evicts
    // the rest.
    let budget = 24_000;
    client.expect_ok(&format!(
        "{{\"cmd\":\"fit\",\"graphs\":{graphs_json},\"labels\":{labels_json},\
         \"variant\":\"A\",\"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":8,\
         \"layer_cap\":3,\"kmeans_max_iterations\":15,\
         \"cache_budget_bytes\":{budget}}}}}"
    ));

    // Stream distinct never-repeating graphs — far more than the budget
    // can keep resident.
    let streamed = 24;
    for i in 0..streamed {
        let g = erdos_renyi(6 + i % 6, 0.35, 7000 + i as u64);
        let wire = graph_to_json(&g);
        let response = client.expect_ok(&format!("{{\"cmd\":\"transform\",\"graph\":{wire}}}"));
        assert!(response.get("levels").and_then(Json::as_usize).unwrap() >= 1);
    }

    let stats = client.expect_ok("{\"cmd\":\"stats\"}");
    assert_eq!(stats.get("fitted").and_then(Json::as_bool), Some(true));
    let backend = stats.get("engine_backend").and_then(Json::as_str).unwrap();
    assert!(["serial", "local"].contains(&backend));

    let entries = stats
        .get("aligned_cache_entries")
        .and_then(Json::as_usize)
        .unwrap();
    let evictions = stats
        .get("aligned_cache_evictions")
        .and_then(Json::as_usize)
        .unwrap();
    let resident = stats
        .get("aligned_cache_resident_bytes")
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(
        stats
            .get("aligned_cache_budget_bytes")
            .and_then(Json::as_usize),
        Some(budget)
    );
    assert!(
        evictions > 0,
        "streaming {streamed} distinct graphs through a {budget}-byte budget must evict"
    );
    assert!(
        resident <= budget,
        "residency {resident} exceeds the budget"
    );
    assert!(
        entries < graphs.len() + streamed,
        "every distinct graph resident: the budget did nothing"
    );
    assert!(entries > 0, "the budget evicted every graph");

    // The stream left the server fully operational.
    let unseen = graph_to_json(&cycle_graph(10));
    let predicted = client.expect_ok(&format!("{{\"cmd\":\"predict\",\"graph\":{unseen}}}"));
    assert_eq!(predicted.get("label").and_then(Json::as_usize), Some(0));
}

/// A `cache_budget_bytes` bound is exact: a budget equal to an unbudgeted
/// fit's resident bytes evicts nothing, and half of it keeps resident all
/// but less than one transform's weight of it.
#[test]
fn an_aligned_cache_budget_is_the_exact_byte_bound() {
    use haqjsk::core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
    use haqjsk::engine::CacheWeight;
    use haqjsk::graph::generators::erdos_renyi;

    let graphs: Vec<Graph> = (0..24)
        .map(|i| erdos_renyi(6 + i % 7, 0.35, 9100 + i as u64))
        .collect();
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    let server = spawn_server("127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());
    let mut fit = |budget: Option<usize>| -> (usize, usize, usize) {
        let budget = budget.map_or(String::new(), |b| format!(",\"cache_budget_bytes\":{b}"));
        client.expect_ok(&format!(
            "{{\"cmd\":\"fit\",\"graphs\":{graphs_json},\"variant\":\"A\",\
             \"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":8,\"layer_cap\":3,\
             \"kmeans_max_iterations\":15{budget}}}}}"
        ));
        let stats = client.expect_ok("{\"cmd\":\"stats\"}");
        let field = |name: &str| stats.get(name).and_then(Json::as_usize).unwrap();
        (
            field("aligned_cache_resident_bytes"),
            field("aligned_cache_entries"),
            field("aligned_cache_evictions"),
        )
    };

    let (resident, entries, evictions) = fit(None);
    assert_eq!((entries, evictions), (graphs.len(), 0));

    // The served fit is deterministic, so an in-process fit yields the
    // same transforms and hence each entry's weight.
    let config = HaqjskConfig {
        hierarchy_levels: 2,
        num_prototypes: 8,
        layer_cap: 3,
        kmeans_max_iterations: 15,
        ..HaqjskConfig::small()
    };
    let model = HaqjskModel::fit(&graphs, config, HaqjskVariant::AlignedAdjacency).unwrap();
    let weights: Vec<usize> = model
        .transform_all(&graphs)
        .unwrap()
        .iter()
        .map(|aligned| aligned.weight())
        .collect();
    assert_eq!(weights.iter().sum::<usize>(), resident);
    let largest = *weights.iter().max().unwrap();

    let (at_budget, entries, evictions) = fit(Some(resident));
    assert_eq!(
        (at_budget, entries, evictions),
        (resident, graphs.len(), 0),
        "a budget of exactly the resident bytes must evict nothing"
    );

    let half = resident / 2;
    let (under_half, entries, evictions) = fit(Some(half));
    assert!(
        under_half <= half,
        "{under_half} bytes resident over {half}"
    );
    assert!(
        under_half > half - largest,
        "{under_half} bytes resident: a {half}-byte budget evicted more than one \
         {largest}-byte entry past its bound"
    );
    assert!(evictions > 0 && entries < graphs.len());
}

/// Every top-level field a fitted single-process server's `stats` returns,
/// pinned so that no field silently appears or disappears. `distributed`
/// joins only when a worker pool is installed.
const STATS_FIELDS: &[&str] = &[
    "active_connections",
    "aligned_cache_budget_bytes",
    "aligned_cache_entries",
    "aligned_cache_evictions",
    "aligned_cache_hits",
    "aligned_cache_misses",
    "aligned_cache_resident_bytes",
    "alignment_cache_entries",
    "alignment_cache_hits",
    "alignment_cache_misses",
    "build",
    "conns_rejected",
    "deadline_exceeded",
    "density_cache_entries",
    "density_cache_evictions",
    "density_cache_hits",
    "density_cache_misses",
    "density_cache_resident_bytes",
    "eigen_batched_calls",
    "eigen_batched_matrices",
    "eigen_mean_batch",
    "eigen_scalar_fallbacks",
    "eigen_simd_calls",
    "eigen_simd_path",
    "engine_backend",
    "engine_threads",
    "fitted",
    "frames_oversized",
    "handler_panics",
    "heavy_inflight",
    "io_timeouts",
    "max_inflight_heavy",
    "num_graphs",
    "ok",
    "requests_rejected",
    "row_cache_entries",
    "row_cache_evictions",
    "row_cache_hits",
    "row_cache_misses",
    "row_cache_resident_bytes",
    "serve_state",
    "wl_cache_entries",
    "wl_cache_hits",
    "wl_cache_misses",
];

#[test]
fn stats_returns_exactly_the_pinned_field_set() {
    let server = spawn_server("127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());
    let (graphs, labels) = training_set();
    let graphs_json = Json::Arr(graphs.iter().map(graph_to_json).collect());
    let labels_json = Json::Arr(labels.iter().map(|&l| Json::Num(l as f64)).collect());
    // An explicit budget makes `aligned_cache_budget_bytes` present
    // whatever `HAQJSK_CACHE_BUDGET` says.
    client.expect_ok(&format!(
        "{{\"cmd\":\"fit\",\"graphs\":{graphs_json},\"labels\":{labels_json},\
         \"variant\":\"A\",\"config\":{{\"hierarchy_levels\":2,\"num_prototypes\":8,\
         \"layer_cap\":3,\"kmeans_max_iterations\":15,\"cache_budget_bytes\":1048576}}}}"
    ));
    let stats = client.expect_ok("{\"cmd\":\"stats\"}");
    let Json::Obj(fields) = &stats else {
        panic!("stats is not an object: {stats}");
    };
    let returned: Vec<&str> = fields
        .keys()
        .map(String::as_str)
        .filter(|&field| field != "distributed")
        .collect();
    assert_eq!(returned, STATS_FIELDS, "stats field set changed");
}
