//! Loopback test of the observability surface: the `metrics` op scrapes a
//! valid Prometheus exposition whose serve counters move in lockstep with
//! the requests actually sent, one scrape covers every layer's metric
//! families, handler errors use the uniform `{"ok":false,"error":...}`
//! envelope (and are counted), and `trace_dump` drains well-formed span
//! records.
//!
//! Everything lives in one test function: the metrics registry is
//! process-wide, so concurrent tests in this binary would race the
//! before/after counter deltas.

use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, star_graph};
use haqjsk::obs::{parse_exposition, Exposition};
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

/// One `metrics` scrape, validated end to end: the response carries both
/// renderings and the Prometheus text passes the strict parser (TYPE
/// declarations, cumulative histogram buckets, `+Inf` == `_count`).
fn scrape(client: &mut Client) -> Exposition {
    let response = client.expect_ok("{\"cmd\":\"metrics\"}");
    assert!(
        response.get("metrics").is_some(),
        "metrics response missing the structured JSON snapshot"
    );
    let text = response
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("metrics response carries Prometheus text");
    parse_exposition(text).unwrap_or_else(|e| panic!("unparseable exposition: {e}\n{text}"))
}

#[test]
fn metrics_scrape_matches_requests_sent() {
    let server = spawn_server("127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    // A small fit so the engine and kernel Gram histograms have samples.
    let graphs: Vec<Json> = (5..9)
        .flat_map(|n| {
            [
                graph_to_json(&cycle_graph(n)),
                graph_to_json(&star_graph(n)),
            ]
        })
        .collect();
    client.expect_ok(&format!(
        "{{\"cmd\":\"fit\",\"graphs\":{},\"variant\":\"A\",\"config\":{{\"hierarchy_levels\":2,\
         \"num_prototypes\":8,\"layer_cap\":3,\"kmeans_max_iterations\":15}}}}",
        Json::Arr(graphs)
    ));

    let before = scrape(&mut client);
    let ping_before = before
        .value("haqjsk_serve_requests_total", &[("op", "ping")])
        .unwrap_or(0.0);
    let error_before = before
        .value("haqjsk_serve_errors_total", &[("op", "frobnicate")])
        .unwrap_or(0.0);

    let pings = 5;
    for _ in 0..pings {
        client.expect_ok("{\"cmd\":\"ping\"}");
    }

    // Unknown ops produce the uniform error envelope and count as errors.
    let bad = client.request("{\"cmd\":\"frobnicate\"}");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let message = bad
        .get("error")
        .and_then(Json::as_str)
        .expect("error responses carry a string 'error' field");
    assert!(
        message.contains("unknown command"),
        "unexpected error message: {message}"
    );

    // Malformed JSON gets the same envelope (and its own op label).
    let worse = client.request("not json at all");
    assert_eq!(worse.get("ok").and_then(Json::as_bool), Some(false));
    assert!(worse.get("error").and_then(Json::as_str).is_some());

    let after = scrape(&mut client);
    let ping_after = after
        .value("haqjsk_serve_requests_total", &[("op", "ping")])
        .expect("ping requests counted");
    assert_eq!(
        (ping_after - ping_before) as u64,
        pings,
        "request counter delta must match the pings sent"
    );
    let error_after = after
        .value("haqjsk_serve_errors_total", &[("op", "frobnicate")])
        .expect("unknown op counted as error");
    assert!(error_after >= error_before + 1.0);
    assert!(
        after
            .value("haqjsk_serve_requests_total", &[("op", "frobnicate")])
            .unwrap_or(0.0)
            >= 1.0
    );
    assert!(
        after
            .value("haqjsk_serve_errors_total", &[("op", "malformed")])
            .unwrap_or(0.0)
            >= 1.0
    );

    // One scrape covers every layer: engine, kernels, eigen-batch,
    // distributed (zeros without a coordinator, but present) and serve.
    for family in [
        "haqjsk_gram_build_seconds",
        "haqjsk_kernel_gram_seconds",
        "haqjsk_eigen_batched_calls_total",
        "haqjsk_eigen_simd_path",
        "haqjsk_eigen_simd_calls_total",
        "haqjsk_dist_grams_total",
        "haqjsk_dist_workers",
        "haqjsk_serve_requests_total",
        "haqjsk_serve_request_seconds",
        "haqjsk_serve_errors_total",
        "haqjsk_serve_inflight",
        "haqjsk_pool_jobs_total",
        "haqjsk_fit_phase_seconds",
    ] {
        assert!(after.has_family(family), "scrape missing family {family}");
    }
    // The fit observed each of its two phases.
    for phase in ["db_traces", "prototypes"] {
        let fits = after.value("haqjsk_fit_phase_seconds_count", &[("phase", phase)]);
        assert!(fits.unwrap_or(0.0) >= 1.0, "no {phase} observation");
    }
    // The baselines keep no process-global cache, so none is exported.
    let cache_families: Vec<_> = after
        .types
        .keys()
        .filter(|f| f.starts_with("haqjsk_cache_"))
        .collect();
    assert!(
        cache_families.is_empty(),
        "scrape exports {cache_families:?}"
    );

    // `stats` keeps its historical shape while reading the same registry.
    let stats = client.expect_ok("{\"cmd\":\"stats\"}");
    for field in ["eigen_batched_calls", "eigen_mean_batch"] {
        assert!(
            stats.get(field).and_then(Json::as_f64).is_some(),
            "stats missing field {field}"
        );
    }
    // The SIMD dispatch is reported as a path label plus per-path solve
    // counters, matching the registry's info gauge / counter families.
    let simd_path = stats
        .get("eigen_simd_path")
        .and_then(Json::as_str)
        .expect("stats missing eigen_simd_path");
    assert!(
        ["scalar", "avx2", "avx512", "neon"].contains(&simd_path),
        "unexpected eigen_simd_path {simd_path:?}"
    );
    for path in ["scalar", "avx2", "avx512", "neon"] {
        assert!(
            stats
                .get("eigen_simd_calls")
                .and_then(|calls| calls.get(path))
                .and_then(Json::as_f64)
                .is_some(),
            "stats missing eigen_simd_calls.{path}"
        );
    }

    // The span tracer drains as JSON lines (on by default; each served
    // request opened a span).
    let dump = client.expect_ok("{\"cmd\":\"trace_dump\"}");
    assert_eq!(dump.get("enabled").and_then(Json::as_bool), Some(true));
    let spans = dump.get("spans").and_then(Json::as_usize).unwrap();
    assert!(spans > 0, "served requests must have recorded spans");
    let jsonl = dump.get("jsonl").and_then(Json::as_str).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), spans);
    let mut records = Vec::new();
    for line in lines {
        let record = Json::parse(line).expect("span record is valid JSON");
        assert!(record.get("name").and_then(Json::as_str).is_some());
        assert!(record.get("start_us").and_then(Json::as_f64).is_some());
        assert!(record.get("dur_us").and_then(Json::as_f64).is_some());
        assert!(record.get("thread").and_then(Json::as_f64).is_some());
        records.push(record);
    }

    // The one fit emitted one span per hierarchy stage, each a child of
    // the fit's `serve_request` span.
    let field = |record: &Json, key: &str| record.get(key).and_then(Json::as_str).map(String::from);
    for stage in ["hierarchy.db_repr", "hierarchy.build"] {
        let stage_spans: Vec<&Json> = records
            .iter()
            .filter(|r| field(r, "name").as_deref() == Some(stage))
            .collect();
        assert_eq!(stage_spans.len(), 1, "one {stage} span per fit");
        let parent =
            field(stage_spans[0], "parent").unwrap_or_else(|| panic!("{stage} has no parent span"));
        let request = records
            .iter()
            .find(|r| field(r, "span").as_deref() == Some(parent.as_str()))
            .unwrap_or_else(|| panic!("{stage}'s parent span was drained too"));
        assert_eq!(field(request, "name").as_deref(), Some("serve_request"));
        assert_eq!(field(request, "trace"), field(stage_spans[0], "trace"));
    }
}
