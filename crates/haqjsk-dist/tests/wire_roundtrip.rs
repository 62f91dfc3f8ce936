//! Property tests of the wire protocol: every message that crosses the
//! coordinator/worker boundary must survive a serialise → print → parse →
//! deserialise round trip exactly — tile requests, tile results
//! (bit-exact `f64`s), dataset chunks and kernel specs. Anything less
//! would silently break the byte-identity guarantee of the distributed
//! backend.

use haqjsk_dist::dataset::{dataset_id, dataset_keys};
use haqjsk_dist::wire::{self, KernelSpec};
use haqjsk_engine::{graph_from_json, graph_key, GraphKey, Json};
use haqjsk_graph::Graph;
use proptest::prelude::*;

/// Re-parse a value through its textual wire form.
fn reparse(value: &Json) -> Json {
    Json::parse(&value.to_string()).expect("wire text parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Index-pair tiles round-trip exactly through the wire.
    #[test]
    fn tile_pairs_roundtrip(
        raw in proptest::collection::vec((0usize..512, 0usize..512), 0..200),
    ) {
        let pairs: Vec<(usize, usize)> = raw
            .into_iter()
            .map(|(i, j)| (i.min(j), i.max(j)))
            .collect();
        let wire_form = reparse(&wire::pairs_to_json(&pairs));
        prop_assert_eq!(wire::pairs_from_json(&wire_form).unwrap(), pairs);
    }

    /// Kernel values — arbitrary finite doubles, not just [0, 1] kernel
    /// outputs — round-trip bit-exactly through the JSON text.
    #[test]
    fn tile_values_roundtrip_bit_exactly(
        raw in proptest::collection::vec((0.0f64..1.0, -300i32..300), 0..100),
    ) {
        let values: Vec<f64> = raw
            .into_iter()
            .map(|(mantissa, exp)| mantissa * (exp as f64 / 10.0).exp())
            .collect();
        let wire_form = reparse(&wire::values_to_json(&values));
        let back = wire::values_from_json(&wire_form).unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Whole tile request/response exchanges round-trip: job ids, kernel
    /// specs, pair lists and value vectors.
    #[test]
    fn tile_exchange_roundtrips(
        job in 0usize..10_000,
        hi in 0u64..=u64::MAX,
        lo in 0u64..=u64::MAX,
        raw_pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..80),
    ) {
        let kernel = KernelSpec { artifact: format!("{hi:016x}{lo:016x}") };
        let pairs: Vec<(usize, usize)> = raw_pairs
            .into_iter()
            .map(|(i, j)| (i.min(j), i.max(j)))
            .collect();
        let request = reparse(&wire::tile_request("d00d", job, &kernel.to_json(), &pairs, 1, None));
        prop_assert_eq!(request.get("cmd").and_then(Json::as_str), Some("tile"));
        prop_assert_eq!(request.get("job").and_then(Json::as_usize), Some(job));
        prop_assert_eq!(
            KernelSpec::from_json(request.get("kernel").unwrap()).unwrap(),
            kernel
        );
        prop_assert_eq!(
            wire::pairs_from_json(request.get("pairs").unwrap()).unwrap(),
            pairs.clone()
        );

        let values: Vec<f64> = pairs.iter().map(|&(i, j)| ((i * 31 + j) as f64).cos()).collect();
        let response = reparse(&Json::obj([
            ("ok", Json::Bool(true)),
            ("job", Json::Num(job as f64)),
            ("values", wire::values_to_json(&values)),
        ]));
        let tile = wire::parse_tile_response(&response).unwrap();
        prop_assert_eq!(tile.job, job);
        for (a, b) in values.iter().zip(&tile.values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Graph keys round-trip through their hex digests.
    #[test]
    fn graph_keys_roundtrip_hex(hi in 0u64..=u64::MAX, lo in 0u64..=u64::MAX) {
        let key = GraphKey(((hi as u128) << 64) | lo as u128);
        prop_assert_eq!(wire::key_from_hex(&wire::key_hex(key)), Some(key));
    }

    /// Dataset chunk messages carry graphs exactly: structure, labels, and
    /// hence the structural key the worker re-derives for verification.
    #[test]
    fn dataset_chunks_roundtrip(
        sizes in proptest::collection::vec(2usize..12, 1..8),
        labelled in proptest::collection::vec(0usize..2, 1..8),
        seed in 0u64..1000,
    ) {
        let graphs: Vec<Graph> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut g = haqjsk_graph::generators::erdos_renyi(n, 0.4, seed + i as u64);
                if labelled.get(i).copied().unwrap_or(0) == 1 {
                    let labels = (0..n).map(|v| v % 3).collect();
                    g.set_labels(labels).unwrap();
                }
                g
            })
            .collect();
        let keys = dataset_keys(&graphs);
        let id = dataset_id(&keys);

        let begin = reparse(&wire::dataset_begin_request(&id, &keys));
        let wire_keys: Vec<GraphKey> = begin
            .get("keys").and_then(Json::as_array).unwrap()
            .iter()
            .map(|k| wire::key_from_hex(k.as_str().unwrap()).unwrap())
            .collect();
        prop_assert_eq!(&wire_keys, &keys);
        prop_assert_eq!(
            begin.get("dataset").and_then(Json::as_str),
            Some(id.as_str())
        );

        let indices: Vec<usize> = (0..graphs.len()).collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let chunk = reparse(&wire::dataset_graphs_request(&id, &indices, &refs));
        let shipped: Vec<Graph> = chunk
            .get("graphs").and_then(Json::as_array).unwrap()
            .iter()
            .map(|g| graph_from_json(g).unwrap())
            .collect();
        prop_assert_eq!(&shipped, &graphs);
        for (g, &k) in shipped.iter().zip(&keys) {
            prop_assert_eq!(graph_key(g), k, "wire transport must preserve the structural key");
        }
    }
}
