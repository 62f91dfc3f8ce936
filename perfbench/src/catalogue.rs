//! The metrics this benchmark reports, and the result line that carries
//! them. `BENCHMARK.json` at the repository root lists the same names,
//! units and directions; a test keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by untraced runs (`--trace 0`). The latency pair and the rate
/// follow each workload's headline operation (see `perfbench/README.md`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("p50_ms", "ms", "lower"),
    m("p90_ms", "ms", "lower"),
    m("requests_per_s", "1/s", "higher"),
    m("cpu_ms_per_request", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Reported by traced runs (`--trace 1`); a layer a workload leaves idle
/// reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("serving.fit_ms", "ms", "lower"),
    m("serving.kernel_row_ms", "ms", "lower"),
    m("serving.predict_ms", "ms", "lower"),
    m("serving.append_ms", "ms", "lower"),
    m("serving.stats_p90_ms", "ms", "lower"),
    m("serving.rejected", "count", "lower"),
    m("wire.fit_overhead_ms", "ms", "lower"),
    m("wire.query_overhead_ms", "ms", "lower"),
    m("wire.append_overhead_ms", "ms", "lower"),
    m("wire.fit_request_bytes", "bytes", "lower"),
    m("wire.decode_ms", "ms", "lower"),
    m("wire.encode_ms", "ms", "lower"),
    m("hierarchy.db_repr_ms", "ms", "lower"),
    m("hierarchy.build_ms", "ms", "lower"),
    m("transform.calls", "count", "lower"),
    m("transform.db_repr_ms", "ms", "lower"),
    m("transform.correspondence_ms", "ms", "lower"),
    m("transform.adjacency_density_ms", "ms", "lower"),
    m("transform.aligned_density_ms", "ms", "lower"),
    m("cache.aligned_hits", "count", "higher"),
    m("cache.aligned_misses", "count", "lower"),
    m("cache.aligned_hit_ratio", "ratio", "higher"),
    m("cache.lookups_per_query", "count", "lower"),
    m("gram.build_ms", "ms", "lower"),
    m("gram.tiles", "count", "lower"),
    m("gram.tile_eval_ms", "ms", "lower"),
    m("gram.extend_ms", "ms", "lower"),
    m("kernel.pairs", "count", "lower"),
    m("kernel.pair_us", "us", "lower"),
    m("qjsd.call_us", "us", "lower"),
    m("eigen.batched_matrices", "count", "higher"),
    m("eigen.batch_lanes_mean", "count", "higher"),
    m("dist.tiles_dispatched", "count", "lower"),
    m("dist.tiles_redispatched", "count", "lower"),
    m("dist.local_fallback_tiles", "count", "lower"),
    m("dist.bytes_shipped", "bytes", "lower"),
    m("dist.artifacts_shipped", "count", "lower"),
    m("dist.dedup_hit_ratio", "ratio", "higher"),
    m("dist.rpc_ms", "ms", "lower"),
    m("loadgen.append_lateness_ms", "ms", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// Renders the result line: `{"correct","attempted","failed","metrics"}`
/// with every metric of `catalogue`, each value printed with all its
/// digits. A metric without a finite value is an error, never a guess.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = values
            .get(metric.name)
            .copied()
            .ok_or_else(|| format!("metric '{}' was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric '{}' is not finite: {value}", metric.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk::engine::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has an array '{key}'"))
            .iter()
            .map(|entry| {
                let field = |name: &str| {
                    entry
                        .get(name)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry lacks '{name}'"))
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogued(catalogue: &[Metric]) -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), catalogued(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), catalogued(PER_LAYER));
    }

    #[test]
    fn result_line_carries_exactly_the_catalogue() {
        let values: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let line = result_line(true, 10, 0, END_TO_END, &values).expect("every metric present");
        let parsed = Json::parse(&line).expect("the result line is JSON");
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics object missing: {line}");
        };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert_eq!(parsed.get("attempted").and_then(Json::as_usize), Some(10));

        let mut missing = values.clone();
        missing.remove("p90_ms");
        assert!(result_line(true, 10, 0, END_TO_END, &missing).is_err());
    }
}
