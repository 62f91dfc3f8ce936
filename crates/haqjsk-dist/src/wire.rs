//! The coordinator ↔ worker wire protocol.
//!
//! One JSON object per line over a plain `TcpStream` — exactly the framing
//! of the engine's serving substrate ([`haqjsk_engine::serve`]), reusing
//! its dependency-free [`Json`] value type and graph wire format. Every
//! request receives exactly one response line; `{"ok":false,"error":...}`
//! reports failures without killing the connection (except where a fault
//! hook deliberately hangs up).
//!
//! Command table (coordinator → worker):
//!
//! | command           | fields                                          | response |
//! |-------------------|-------------------------------------------------|----------|
//! | `ping`            | —                                               | `{"ok":true,"pong":true,"role":"worker","protocol":2}` |
//! | `dataset_begin`   | `dataset` (hex id), `keys` (hex graph keys)     | `missing`: indices of keys the worker does not hold |
//! | `dataset_graphs`  | `dataset`, `indices`, `graphs` (wire graphs)    | `stored` count |
//! | `dataset_commit`  | `dataset`                                       | `num_graphs` |
//! | `artifact_begin`  | `artifact` (hex id)                             | `have`: whether the artifact is already loaded |
//! | `artifact_chunk`  | `artifact`, `text`                              | ack (chunks accumulate in order) |
//! | `artifact_commit` | `artifact`                                      | ack after digest verification + model parse |
//! | `tile`            | `dataset`, `job`, `kernel`, `pairs`, `epoch`, optional `trace`/`parent` (hex trace stamp) | `job`, `values` (+ optional `spans`: worker span records for the stamped trace) — or `store_miss` + `missing` when the bounded store evicted dataset graphs (coordinator re-ships and retries) |
//! | `stats`           | —                                               | worker-side counters (store, chaos, epoch) |
//! | `fail_after`      | `tiles`                                         | chaos knob: serve N more tiles, then fail + hang up |
//! | `chaos`           | `seed`, `kill`, `hangup`, `delay`, `delay_ms`, `miss` (permille rates) or `off` | arms/disarms the seeded chaos plan |
//! | `shutdown`        | —                                               | ack, then hang up (process workers drain and exit) |
//!
//! `epoch` is the coordinator's membership epoch at dispatch time; workers
//! echo it and report the last value seen, making split-horizon membership
//! observable from either end.
//!
//! ## Byte identity across the wire
//!
//! Kernel values are `f64`s serialised through the [`Json`] writer, which
//! prints floats with Rust's shortest-round-trip formatting — parsing the
//! printed text recovers the exact bits. Graphs ship as exact integers.
//! Together with the per-matrix bit-identity of the batched eigensolver,
//! this is what makes a distributed Gram byte-identical to the serial one
//! regardless of which worker computed which tile.

use haqjsk_core::HaqjskModel;
use haqjsk_engine::{GraphKey, Json, RemoteGram};
use haqjsk_graph::Graph;
use haqjsk_kernels::{JensenTsallisKernel, QjskAligned, QjskUnaligned};
use haqjsk_obs::{SpanRecord, TraceContext};
use std::borrow::Cow;

/// Version tag answered by `ping`; bumped on incompatible protocol changes.
/// Version 2 added membership epochs, model artifacts, `store_miss` tile
/// replies and the seeded `chaos` command.
pub const PROTOCOL_VERSION: usize = 2;

/// Characters of serialised-model text per `artifact_chunk` line: large
/// enough to amortise round trips, small enough to keep lines bounded.
pub const ARTIFACT_CHUNK: usize = 1 << 16;

/// A kernel the distributed backend knows how to reconstruct on a worker:
/// the serialisable subset of the workspace's kernels, keyed by the stable
/// ids the kernels publish (`REMOTE_KERNEL_ID`).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// [`QjskUnaligned`] with decay factor `mu`.
    QjskUnaligned {
        /// Decay factor.
        mu: f64,
    },
    /// [`QjskAligned`] with decay factor `mu`.
    QjskAligned {
        /// Decay factor.
        mu: f64,
    },
    /// [`JensenTsallisKernel`] with Tsallis order `q` and `wl_iterations`
    /// WL refinement rounds.
    Jtqk {
        /// Tsallis order.
        q: f64,
        /// WL refinement rounds.
        wl_iterations: usize,
    },
    /// A fitted [`haqjsk_core::HaqjskModel`], reconstructed on the worker
    /// from a content-addressed persisted-model artifact shipped through
    /// the `artifact_*` commands. Unlike the closed-form kernels, the spec
    /// carries no parameters — everything lives in the artifact.
    Model {
        /// Digest of the persisted model text
        /// ([`haqjsk_core::model_artifact_id`]).
        artifact: String,
    },
}

impl KernelSpec {
    /// Reconstructs a spec from the engine-level [`RemoteGram`] id/params
    /// form; `None` for kernels the distributed backend cannot serialise
    /// (the coordinator then executes locally).
    pub fn from_remote(spec: &RemoteGram<'_>) -> Option<KernelSpec> {
        let param = |name: &str| {
            spec.params
                .iter()
                .find(|(k, _)| *k == name)
                .map(|&(_, v)| v)
        };
        match spec.kernel_id {
            id if id == QjskUnaligned::REMOTE_KERNEL_ID => {
                Some(KernelSpec::QjskUnaligned { mu: param("mu")? })
            }
            id if id == QjskAligned::REMOTE_KERNEL_ID => {
                Some(KernelSpec::QjskAligned { mu: param("mu")? })
            }
            id if id == JensenTsallisKernel::REMOTE_KERNEL_ID => Some(KernelSpec::Jtqk {
                q: param("q")?,
                wl_iterations: param("wl_iterations")? as usize,
            }),
            id if id == HaqjskModel::REMOTE_KERNEL_ID => {
                spec.artifact.as_ref().map(|artifact| KernelSpec::Model {
                    artifact: artifact.id.clone(),
                })
            }
            _ => None,
        }
    }

    /// The stable kernel id.
    pub fn id(&self) -> &'static str {
        match self {
            KernelSpec::QjskUnaligned { .. } => QjskUnaligned::REMOTE_KERNEL_ID,
            KernelSpec::QjskAligned { .. } => QjskAligned::REMOTE_KERNEL_ID,
            KernelSpec::Jtqk { .. } => JensenTsallisKernel::REMOTE_KERNEL_ID,
            KernelSpec::Model { .. } => HaqjskModel::REMOTE_KERNEL_ID,
        }
    }

    /// The wire form: `{"id":...,"params":{...}}` (`{"id":...,
    /// "artifact":...}` for fitted-model specs).
    pub fn to_json(&self) -> Json {
        let params = match self {
            KernelSpec::QjskUnaligned { mu } | KernelSpec::QjskAligned { mu } => {
                Json::obj([("mu", Json::Num(*mu))])
            }
            KernelSpec::Jtqk { q, wl_iterations } => Json::obj([
                ("q", Json::Num(*q)),
                ("wl_iterations", Json::Num(*wl_iterations as f64)),
            ]),
            KernelSpec::Model { artifact } => {
                return Json::obj([
                    ("id", Json::Str(self.id().to_string())),
                    ("artifact", Json::Str(artifact.clone())),
                ]);
            }
        };
        Json::obj([("id", Json::Str(self.id().to_string())), ("params", params)])
    }

    /// Restores a spec from its wire form.
    pub fn from_json(value: &Json) -> Result<KernelSpec, String> {
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("kernel spec needs a string field 'id'")?;
        let param = |name: &str| {
            value
                .get("params")
                .and_then(|p| p.get(name))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("kernel '{id}' needs a numeric param '{name}'"))
        };
        match id {
            _ if id == QjskUnaligned::REMOTE_KERNEL_ID => {
                Ok(KernelSpec::QjskUnaligned { mu: param("mu")? })
            }
            _ if id == QjskAligned::REMOTE_KERNEL_ID => {
                Ok(KernelSpec::QjskAligned { mu: param("mu")? })
            }
            _ if id == JensenTsallisKernel::REMOTE_KERNEL_ID => Ok(KernelSpec::Jtqk {
                q: param("q")?,
                wl_iterations: param("wl_iterations")? as usize,
            }),
            _ if id == HaqjskModel::REMOTE_KERNEL_ID => Ok(KernelSpec::Model {
                artifact: value
                    .get("artifact")
                    .and_then(Json::as_str)
                    .ok_or("model kernel spec needs a string field 'artifact'")?
                    .to_string(),
            }),
            other => Err(format!("unknown kernel id '{other}'")),
        }
    }

    /// Evaluates one tile of Gram entries over `graphs` through the
    /// kernel's public tile evaluator — byte-identical to the in-process
    /// Gram paths for the same pairs. Fitted-model specs cannot be
    /// evaluated from graphs alone (the worker resolves them through its
    /// artifact store); calling this on one is a programming error.
    pub fn eval_tile(&self, graphs: &[Graph], pairs: &[(usize, usize)], out: &mut [f64]) {
        match *self {
            KernelSpec::QjskUnaligned { mu } => {
                QjskUnaligned::new(mu).eval_tile(graphs, pairs, out)
            }
            KernelSpec::QjskAligned { mu } => QjskAligned::new(mu).eval_tile(graphs, pairs, out),
            KernelSpec::Jtqk { q, wl_iterations } => {
                JensenTsallisKernel::new(q, wl_iterations).eval_tile(graphs, pairs, out)
            }
            KernelSpec::Model { .. } => {
                panic!("model tiles are evaluated through the worker's artifact store")
            }
        }
    }
}

/// Hex form of a structural graph key (32 lower-case hex digits).
pub fn key_hex(key: GraphKey) -> String {
    format!("{:032x}", key.0)
}

/// Parses a [`key_hex`] digest.
pub fn key_from_hex(raw: &str) -> Option<GraphKey> {
    (raw.len() == 32)
        .then(|| u128::from_str_radix(raw, 16).ok())
        .flatten()
        .map(GraphKey)
}

/// `[[i,j],...]` wire form of an index-pair tile.
pub fn pairs_to_json(pairs: &[(usize, usize)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(i, j)| Json::Arr(vec![Json::Num(i as f64), Json::Num(j as f64)]))
            .collect(),
    )
}

/// Parses a [`pairs_to_json`] tile.
pub fn pairs_from_json(value: &Json) -> Result<Vec<(usize, usize)>, String> {
    let arr = value.as_array().ok_or("'pairs' must be an array")?;
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("each pair must be a two-element array")?;
            let i = pair[0].as_usize().ok_or("pair indices must be integers")?;
            let j = pair[1].as_usize().ok_or("pair indices must be integers")?;
            Ok((i, j))
        })
        .collect()
}

/// Wire form of a tile's kernel values. Values must be finite — the JSON
/// grammar has no NaN/inf — which every kernel in the workspace guarantees.
pub fn values_to_json(values: &[f64]) -> Json {
    debug_assert!(values.iter().all(|v| v.is_finite()));
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Parses a [`values_to_json`] array (bit-exact round trip).
pub fn values_from_json(value: &Json) -> Result<Vec<f64>, String> {
    let arr = value.as_array().ok_or("'values' must be an array")?;
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| "values must be numbers".to_string())
        })
        .collect()
}

/// Builds a `ping` request.
pub fn ping_request() -> Json {
    Json::obj([("cmd", Json::Str("ping".to_string()))])
}

/// Builds a `dataset_begin` request announcing the dataset's ordered keys.
pub fn dataset_begin_request(dataset: &str, keys: &[GraphKey]) -> Json {
    Json::obj([
        ("cmd", Json::Str("dataset_begin".to_string())),
        ("dataset", Json::Str(dataset.to_string())),
        (
            "keys",
            Json::Arr(keys.iter().map(|&k| Json::Str(key_hex(k))).collect()),
        ),
    ])
}

/// Builds a `dataset_graphs` request shipping the graphs at `indices`.
pub fn dataset_graphs_request(dataset: &str, indices: &[usize], graphs: &[&Graph]) -> Json {
    Json::obj([
        ("cmd", Json::Str("dataset_graphs".to_string())),
        ("dataset", Json::Str(dataset.to_string())),
        (
            "indices",
            Json::Arr(indices.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
        (
            "graphs",
            Json::Arr(
                graphs
                    .iter()
                    .map(|g| haqjsk_engine::graph_to_json(g))
                    .collect(),
            ),
        ),
    ])
}

/// Builds a `dataset_commit` request.
pub fn dataset_commit_request(dataset: &str) -> Json {
    Json::obj([
        ("cmd", Json::Str("dataset_commit".to_string())),
        ("dataset", Json::Str(dataset.to_string())),
    ])
}

/// Builds a `tile` work-unit request stamped with the coordinator's
/// current membership epoch and, when tracing, the caller's trace context
/// (`trace`/`parent` hex fields) — the worker adopts it, runs its tile
/// span as a child, and returns its span records with the reply so one
/// trace follows the request across processes.
pub fn tile_request(
    dataset: &str,
    job: usize,
    kernel: &Json,
    pairs: &[(usize, usize)],
    epoch: usize,
    ctx: Option<&TraceContext>,
) -> Json {
    let mut fields = vec![
        ("cmd", Json::Str("tile".to_string())),
        ("dataset", Json::Str(dataset.to_string())),
        ("job", Json::Num(job as f64)),
        ("kernel", kernel.clone()),
        ("pairs", pairs_to_json(pairs)),
        ("epoch", Json::Num(epoch as f64)),
    ];
    if let Some(ctx) = ctx {
        fields.push(("trace", Json::Str(ctx.trace_hex())));
        fields.push(("parent", Json::Str(ctx.span_hex())));
    }
    Json::obj(fields)
}

/// Parses the optional trace stamp of a `tile` request into an adoptable
/// context: the sender's span becomes the parent of whatever the receiver
/// opens under the attachment. `None` when the request is unstamped or the
/// stamp is malformed (tracing is best-effort; a bad stamp never fails the
/// tile).
pub fn trace_stamp(request: &Json) -> Option<TraceContext> {
    let trace_id = request
        .get("trace")
        .and_then(Json::as_str)
        .and_then(haqjsk_obs::trace_id_from_hex)?;
    let parent = request
        .get("parent")
        .and_then(Json::as_str)
        .and_then(haqjsk_obs::span_id_from_hex)?;
    Some(TraceContext {
        trace_id,
        span_id: parent,
        parent_id: 0,
    })
}

/// Wire form of one span record:
/// `{"name":...,"trace":hex,"span":hex,"parent":hex?,"start_ns":N,`
/// `"dur_ns":N,"thread":T}`. `start_ns`/`thread` stay origin-local — only
/// names, ids and durations are meaningful across processes.
pub fn span_to_json(record: &SpanRecord) -> Json {
    let mut fields = vec![
        ("name", Json::Str(record.name.to_string())),
        (
            "trace",
            Json::Str(haqjsk_obs::trace_id_hex(record.trace_id)),
        ),
        ("span", Json::Str(haqjsk_obs::span_id_hex(record.span_id))),
    ];
    if record.parent_id != 0 {
        fields.push((
            "parent",
            Json::Str(haqjsk_obs::span_id_hex(record.parent_id)),
        ));
    }
    fields.extend([
        ("start_ns", Json::Num(record.start_ns as f64)),
        ("dur_ns", Json::Num(record.duration_ns as f64)),
        ("thread", Json::Num(record.thread as f64)),
    ]);
    Json::obj(fields)
}

/// Parses a [`span_to_json`] record; `None` on any malformed field (a
/// droppable span, never an error).
pub fn span_from_json(value: &Json) -> Option<SpanRecord> {
    Some(SpanRecord {
        name: Cow::Owned(value.get("name")?.as_str()?.to_string()),
        trace_id: haqjsk_obs::trace_id_from_hex(value.get("trace")?.as_str()?)?,
        span_id: haqjsk_obs::span_id_from_hex(value.get("span")?.as_str()?)?,
        parent_id: match value.get("parent") {
            Some(parent) => haqjsk_obs::span_id_from_hex(parent.as_str()?)?,
            None => 0,
        },
        start_ns: value.get("start_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        duration_ns: value.get("dur_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        thread: value.get("thread").and_then(Json::as_f64).unwrap_or(0.0) as u32,
        src: None,
    })
}

/// Builds an `artifact_begin` request announcing a content-addressed
/// artifact (a persisted model); the worker answers `have`.
pub fn artifact_begin_request(artifact: &str) -> Json {
    Json::obj([
        ("cmd", Json::Str("artifact_begin".to_string())),
        ("artifact", Json::Str(artifact.to_string())),
    ])
}

/// Builds an `artifact_chunk` request appending one slice of the
/// artifact's text (chunks arrive in order on one connection).
pub fn artifact_chunk_request(artifact: &str, text: &str) -> Json {
    Json::obj([
        ("cmd", Json::Str("artifact_chunk".to_string())),
        ("artifact", Json::Str(artifact.to_string())),
        ("text", Json::Str(text.to_string())),
    ])
}

/// Builds an `artifact_commit` request; the worker verifies the digest
/// and parses the model before acking.
pub fn artifact_commit_request(artifact: &str) -> Json {
    Json::obj([
        ("cmd", Json::Str("artifact_commit".to_string())),
        ("artifact", Json::Str(artifact.to_string())),
    ])
}

/// Builds a `chaos` request arming a seeded fault plan on the worker
/// (see [`crate::chaos::ChaosPlan`]); `None` disarms.
pub fn chaos_request(plan: Option<&crate::chaos::ChaosPlan>) -> Json {
    match plan {
        Some(plan) => {
            let mut fields = vec![("cmd", Json::Str("chaos".to_string()))];
            fields.extend(plan.to_fields());
            Json::obj(fields)
        }
        None => Json::obj([
            ("cmd", Json::Str("chaos".to_string())),
            ("off", Json::Bool(true)),
        ]),
    }
}

/// A parsed `tile` response.
#[derive(Debug, Clone, PartialEq)]
pub struct TileResponse {
    /// The job id echoed back by the worker.
    pub job: usize,
    /// One kernel value per requested pair, in request order.
    pub values: Vec<f64>,
}

/// A worker's answer to a `tile` request: either the computed values, or a
/// recoverable `store_miss` naming what the coordinator must re-ship
/// before retrying (evicted dataset graphs and/or the model artifact).
#[derive(Debug, Clone, PartialEq)]
pub enum TileReply {
    /// The tile was computed.
    Values(TileResponse),
    /// The worker's bounded store no longer holds everything the tile
    /// needs; the tile was **not** computed and should be re-dispatched
    /// after a targeted re-ship.
    StoreMiss {
        /// The job id echoed back by the worker.
        job: usize,
        /// Dataset indices of evicted graphs to re-ship (may be empty).
        missing: Vec<usize>,
        /// Whether the model artifact itself must be re-shipped.
        artifact_missing: bool,
    },
}

/// Builds the worker-side `store_miss` tile reply.
pub fn store_miss_response(job: usize, missing: &[usize], artifact_missing: bool) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("job", Json::Num(job as f64)),
        ("store_miss", Json::Bool(true)),
        (
            "missing",
            Json::Arr(missing.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
        ("artifact_missing", Json::Bool(artifact_missing)),
    ])
}

/// Parses a worker's `tile` response, rejecting error responses and
/// distinguishing recoverable `store_miss` replies from computed values.
pub fn parse_tile_reply(value: &Json) -> Result<TileReply, String> {
    let value = check_ok(value)?;
    let job = value
        .get("job")
        .and_then(Json::as_usize)
        .ok_or("tile response needs an integer field 'job'")?;
    if value.get("store_miss").and_then(Json::as_bool) == Some(true) {
        let missing = value
            .get("missing")
            .and_then(Json::as_array)
            .ok_or("store_miss response needs an array field 'missing'")?
            .iter()
            .map(|i| i.as_usize().ok_or("missing indices must be integers"))
            .collect::<Result<Vec<_>, _>>()?;
        let artifact_missing = value
            .get("artifact_missing")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        return Ok(TileReply::StoreMiss {
            job,
            missing,
            artifact_missing,
        });
    }
    let values = values_from_json(
        value
            .get("values")
            .ok_or("tile response needs a field 'values'")?,
    )?;
    Ok(TileReply::Values(TileResponse { job, values }))
}

/// Parses a worker's `tile` response, rejecting both error responses and
/// `store_miss` replies (callers that handle misses use
/// [`parse_tile_reply`]).
pub fn parse_tile_response(value: &Json) -> Result<TileResponse, String> {
    match parse_tile_reply(value)? {
        TileReply::Values(response) => Ok(response),
        TileReply::StoreMiss { job, .. } => Err(format!("tile {job} answered store_miss")),
    }
}

/// Extracts the optional `spans` array of a worker reply (span records the
/// worker drained for the request's trace). Empty when absent or
/// malformed; individual bad records are dropped, not errors.
pub fn reply_spans(value: &Json) -> Vec<SpanRecord> {
    value
        .get("spans")
        .and_then(Json::as_array)
        .map(|spans| spans.iter().filter_map(span_from_json).collect())
        .unwrap_or_default()
}

/// Rejects `{"ok":false,...}` responses, returning the error message.
pub fn check_ok(value: &Json) -> Result<&Json, String> {
    match value.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(value),
        _ => Err(value
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("worker reported failure without an error message")
            .to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_specs_roundtrip_through_json() {
        let specs = [
            KernelSpec::QjskUnaligned { mu: 1.25 },
            KernelSpec::QjskAligned { mu: 0.5 },
            KernelSpec::Jtqk {
                q: 2.0,
                wl_iterations: 3,
            },
            KernelSpec::Model {
                artifact: "0123456789abcdef0123456789abcdef".to_string(),
            },
        ];
        for spec in specs {
            let wire = spec.to_json();
            let text = wire.to_string();
            let back = KernelSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(KernelSpec::from_json(&Json::parse(r#"{"id":"wl"}"#).unwrap()).is_err());
    }

    #[test]
    fn kernel_spec_matches_remote_gram_ids() {
        let spec = RemoteGram {
            kernel_id: QjskUnaligned::REMOTE_KERNEL_ID,
            params: vec![("mu", 2.0)],
            graphs: &[],
            artifact: None,
        };
        assert_eq!(
            KernelSpec::from_remote(&spec),
            Some(KernelSpec::QjskUnaligned { mu: 2.0 })
        );
        let unknown = RemoteGram {
            kernel_id: "wl_subtree",
            params: vec![],
            graphs: &[],
            artifact: None,
        };
        assert_eq!(KernelSpec::from_remote(&unknown), None);
    }

    #[test]
    fn model_spec_requires_an_artifact() {
        // A model spec without a shipped artifact cannot be serialised —
        // the coordinator falls back to local execution.
        let bare = RemoteGram {
            kernel_id: HaqjskModel::REMOTE_KERNEL_ID,
            params: vec![],
            graphs: &[],
            artifact: None,
        };
        assert_eq!(KernelSpec::from_remote(&bare), None);
        let payload = "haqjsk-model v1\nend\n";
        let with_artifact = RemoteGram {
            kernel_id: HaqjskModel::REMOTE_KERNEL_ID,
            params: vec![],
            graphs: &[],
            artifact: Some(haqjsk_engine::RemoteArtifact {
                id: "feed".repeat(8),
                payload,
            }),
        };
        assert_eq!(
            KernelSpec::from_remote(&with_artifact),
            Some(KernelSpec::Model {
                artifact: "feed".repeat(8),
            })
        );
    }

    #[test]
    fn keys_roundtrip_through_hex() {
        for key in [GraphKey(0), GraphKey(42), GraphKey(u128::MAX)] {
            assert_eq!(key_from_hex(&key_hex(key)), Some(key));
        }
        assert_eq!(key_from_hex("zz"), None);
        assert_eq!(key_from_hex(""), None);
    }

    #[test]
    fn values_roundtrip_bit_exactly() {
        let values = [
            0.0,
            1.0,
            -0.0,
            0.1 + 0.2,
            (-1.75f64).exp(),
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.0e300,
        ];
        let wire = values_to_json(&values).to_string();
        let back = values_from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} drifted to {b}");
        }
    }

    #[test]
    fn tile_request_roundtrips() {
        let kernel = KernelSpec::Jtqk {
            q: 2.0,
            wl_iterations: 3,
        }
        .to_json();
        let pairs = [(0, 1), (0, 2), (1, 2)];
        let request = tile_request("abc123", 7, &kernel, &pairs, 3, None);
        let parsed = Json::parse(&request.to_string()).unwrap();
        assert_eq!(parsed.get("cmd").and_then(Json::as_str), Some("tile"));
        assert_eq!(parsed.get("job").and_then(Json::as_usize), Some(7));
        assert_eq!(parsed.get("epoch").and_then(Json::as_usize), Some(3));
        assert_eq!(
            pairs_from_json(parsed.get("pairs").unwrap()).unwrap(),
            pairs.to_vec()
        );
        assert_eq!(
            KernelSpec::from_json(parsed.get("kernel").unwrap()).unwrap(),
            KernelSpec::Jtqk {
                q: 2.0,
                wl_iterations: 3
            }
        );
    }

    #[test]
    fn store_miss_replies_roundtrip_and_are_distinguished() {
        let wire = store_miss_response(9, &[2, 5], true).to_string();
        let parsed = Json::parse(&wire).unwrap();
        assert_eq!(
            parse_tile_reply(&parsed).unwrap(),
            TileReply::StoreMiss {
                job: 9,
                missing: vec![2, 5],
                artifact_missing: true,
            }
        );
        // The strict parser treats a miss as an error.
        assert!(parse_tile_response(&parsed).is_err());
        // A normal values reply still parses through both.
        let ok = Json::parse(r#"{"ok":true,"job":4,"values":[1.0,0.5]}"#).unwrap();
        assert_eq!(
            parse_tile_reply(&ok).unwrap(),
            TileReply::Values(TileResponse {
                job: 4,
                values: vec![1.0, 0.5],
            })
        );
        assert_eq!(parse_tile_response(&ok).unwrap().job, 4);
    }

    #[test]
    fn artifact_requests_carry_the_digest() {
        let begin = artifact_begin_request("abcd");
        assert_eq!(
            begin.get("cmd").and_then(Json::as_str),
            Some("artifact_begin")
        );
        assert_eq!(begin.get("artifact").and_then(Json::as_str), Some("abcd"));
        let chunk = artifact_chunk_request("abcd", "proto 1.0\n");
        assert_eq!(
            chunk.get("text").and_then(Json::as_str),
            Some("proto 1.0\n")
        );
        let commit = artifact_commit_request("abcd");
        assert_eq!(
            commit.get("cmd").and_then(Json::as_str),
            Some("artifact_commit")
        );
    }

    #[test]
    fn check_ok_surfaces_errors() {
        let ok = Json::parse(r#"{"ok":true,"x":1}"#).unwrap();
        assert!(check_ok(&ok).is_ok());
        let err = Json::parse(r#"{"ok":false,"error":"boom"}"#).unwrap();
        assert_eq!(check_ok(&err).unwrap_err(), "boom");
        assert!(check_ok(&Json::Null).is_err());
    }
}
