//! Where a Gram matrix runs, and the tile-evaluation seam it runs through.
//!
//! Every Gram matrix in the workspace goes through one tile scheduler
//! ([`gram::run_tiles`](crate::gram::run_tiles)) over one
//! [`TileEvaluator`]. A [`BackendKind`] only decides where that scheduler
//! runs:
//!
//! * [`BackendKind::Serial`] — inline on the calling thread, in row-major
//!   tile order (what the single-thread per-pair latency benchmarks
//!   measure),
//! * [`BackendKind::Local`] — the same tiles over the worker pool (the
//!   default),
//! * [`BackendKind::Distributed`] — full fitted-model Grams, which carry a
//!   [`RemoteGram`] spec, go to the remote-tiles hook `haqjsk-dist`
//!   installs ([`install_remote_tiles`]); everything else (the closed-form
//!   baselines, per-pair kernels, extensions), and every Gram the hook
//!   declines, runs as [`BackendKind::Local`].
//!
//! Tile values are deterministic functions of (kernel, dataset, pair), so
//! every path produces byte-identical Gram matrices.
//!
//! Selection: [`Engine`](crate::Engine) builders take a [`BackendKind`];
//! the `HAQJSK_BACKEND` environment variable (`serial` / `local` /
//! `dist:<addr,addr>`) overrides the default for the process-global engine,
//! and the Gram entry points take a per-call override.

use crate::pool::WorkerPool;
use haqjsk_linalg::Matrix;
use std::sync::OnceLock;

/// Name of the environment variable selecting the default backend.
pub const BACKEND_ENV_VAR: &str = "HAQJSK_BACKEND";

/// A declarative description of a Gram computation that a *remote* backend
/// can serialise and ship to worker processes: a fitted model's persisted
/// artifact over a dataset. Local execution never looks at it — it already
/// holds the evaluator. Fitted-model Grams are the only computations that
/// attach one; every other Gram runs on the local tile scheduler.
pub struct RemoteGram<'a> {
    /// The dataset the pair indices refer to.
    pub graphs: &'a [haqjsk_graph::Graph],
    /// The fitted state (a persisted model) workers rebuild the kernel
    /// from. Shipped content-addressed like the dataset, so repeated Grams
    /// over the same fitted state ship it once per worker.
    pub artifact: RemoteArtifact<'a>,
}

/// A content-addressed blob accompanying a [`RemoteGram`]: the serialised
/// fitted state a worker reconstructs the kernel from.
pub struct RemoteArtifact<'a> {
    /// Content digest of `payload` (hex); workers dedup on it.
    pub id: String,
    /// The serialised artifact text (line-oriented, e.g. a persisted
    /// model from `haqjsk-core::persistence`).
    pub payload: &'a str,
}

/// A whole-tile Gram evaluator: computes the entries of one scheduling
/// tile in a single call. `pairs` holds the tile's index pairs (`i <= j`,
/// never empty); the evaluator writes `out[k]` = entry for `pairs[k]`.
///
/// Batched pair kernels fuse the per-pair work of a tile here — the
/// quantum kernels assemble all of a tile's mixture matrices and run
/// **one** lane-parallel batched eigenvalue solve
/// (`haqjsk-linalg::batch_symmetric_eigenvalues`). Kernels without a
/// batched path adapt a per-pair entry function through [`per_pair`].
/// Implementations must be deterministic: the serial reference, the pool,
/// remote workers and the tests all hold a tile to the same bytes.
pub trait TileEvaluator: Sync {
    /// Evaluates all of `pairs`, writing the kernel values into `out`
    /// (same length and order as `pairs`).
    fn eval_tile(&self, pairs: &[(usize, usize)], out: &mut [f64]);
}

impl<F> TileEvaluator for F
where
    F: Fn(&[(usize, usize)], &mut [f64]) + Sync,
{
    fn eval_tile(&self, pairs: &[(usize, usize)], out: &mut [f64]) {
        self(pairs, out)
    }
}

/// Adapts a per-pair entry function `f(i, j)` to a [`TileEvaluator`] —
/// the shim every kernel without a batched tile path goes through.
pub fn per_pair<F>(f: F) -> impl TileEvaluator
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    move |pairs: &[(usize, usize)], out: &mut [f64]| {
        for (o, &(i, j)) in out.iter_mut().zip(pairs) {
            *o = f(i, j);
        }
    }
}

/// Where a Gram matrix runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The tile scheduler inline on the calling thread, row-major.
    Serial,
    /// The tile scheduler over the worker pool (the default).
    #[default]
    Local,
    /// Fitted-model full Grams (the ones that carry a [`RemoteGram`] spec)
    /// fan out over worker processes through the remote-tiles hook (`haqjsk-dist`); selected with
    /// `HAQJSK_BACKEND=dist:<addr,addr>`. Everything else — and everything
    /// until a hook is installed — runs as [`BackendKind::Local`] (a Gram
    /// must never fail because the distributed substrate is absent).
    Distributed,
}

impl BackendKind {
    /// Every *local* kind, in sweep order (benchmarks iterate this).
    /// [`BackendKind::Distributed`] is deliberately excluded: it needs a
    /// worker pool to be meaningful and runs as `Local` without one.
    pub const ALL: [BackendKind; 2] = [BackendKind::Serial, BackendKind::Local];

    /// The canonical lower-case label (`serial` / `local` / `dist`) — also
    /// the `backend` label of `haqjsk_gram_build_seconds`.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::Local => "local",
            BackendKind::Distributed => "dist",
        }
    }

    /// Parses a backend label, rejecting anything unrecognised with an
    /// error that lists the valid spellings. Accepts the canonical labels
    /// and the distributed form `dist:<addr,addr>` (the address list is
    /// read separately via [`BackendKind::dist_addresses`]).
    pub fn try_parse(raw: &str) -> Result<BackendKind, String> {
        let trimmed = raw.trim();
        let lower = trimmed.to_ascii_lowercase();
        if lower == "dist" || lower == "distributed" || BackendKind::strip_dist(trimmed).is_some() {
            // Bare `dist` would select the distributed kind with nothing to
            // install a coordinator from — which would silently execute on
            // the local fallback. Demanding addresses here keeps "a dist
            // misconfiguration can never silently fall back" absolute.
            if BackendKind::dist_addresses(trimmed).is_none() {
                return Err(format!(
                    "backend '{trimmed}' selects the distributed backend but lists no \
                     worker addresses (expected 'dist:host:port[,host:port...]')"
                ));
            }
            return Ok(BackendKind::Distributed);
        }
        match lower.as_str() {
            "serial" => Ok(BackendKind::Serial),
            "local" => Ok(BackendKind::Local),
            other => Err(format!(
                "unknown backend '{other}' (valid: serial, local, \
                 dist:host:port[,host:port...])"
            )),
        }
    }

    /// Parses a backend label; `None` for unrecognised input. Prefer
    /// [`BackendKind::try_parse`] where a malformed label should be
    /// reported rather than swallowed.
    pub fn parse(raw: &str) -> Option<BackendKind> {
        BackendKind::try_parse(raw).ok()
    }

    fn parse_address_list(raw: &str) -> Vec<String> {
        raw.split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// Strips a case-insensitive `dist:` prefix, returning the address
    /// part.
    fn strip_dist(raw: &str) -> Option<&str> {
        let trimmed = raw.trim();
        let bytes = trimmed.as_bytes();
        // Byte-wise prefix check: slicing at 5 is safe exactly when the
        // first five bytes are the ASCII prefix.
        (bytes.len() >= 5 && bytes[..5].eq_ignore_ascii_case(b"dist:")).then(|| &trimmed[5..])
    }

    /// The worker addresses of a `dist:<addr,addr>` backend value, if
    /// `raw` is one.
    pub fn dist_addresses(raw: &str) -> Option<Vec<String>> {
        let addrs = BackendKind::parse_address_list(BackendKind::strip_dist(raw)?);
        (!addrs.is_empty()).then_some(addrs)
    }

    /// Resolves a raw `HAQJSK_BACKEND` value (as read from the
    /// environment) to a backend kind: `Ok(None)` when unset, a hard error
    /// for malformed values. Factored out of [`BackendKind::from_env`] so
    /// the rejection behavior is testable without touching process-global
    /// environment state.
    pub fn resolve_env_value(raw: Option<&str>) -> Result<Option<BackendKind>, String> {
        match raw {
            None => Ok(None),
            Some(raw) => BackendKind::try_parse(raw)
                .map(Some)
                .map_err(|e| format!("invalid {BACKEND_ENV_VAR}: {e}")),
        }
    }

    /// The `HAQJSK_BACKEND` override. Unrecognised values are a hard error
    /// (surfaced by [`EngineBuilder::build`](crate::EngineBuilder::build))
    /// so a `dist:` typo can never silently fall back to a local backend.
    pub fn from_env() -> Result<Option<BackendKind>, String> {
        let raw = std::env::var(BACKEND_ENV_VAR).ok();
        BackendKind::resolve_env_value(raw.as_deref())
    }

    /// The worker address list of the `HAQJSK_BACKEND` override, if it
    /// selects the distributed backend with explicit addresses.
    pub fn dist_addresses_from_env() -> Option<Vec<String>> {
        std::env::var(BACKEND_ENV_VAR)
            .ok()
            .and_then(|raw| BackendKind::dist_addresses(&raw))
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The remote-tiles hook: evaluates the upper-triangle tile grid of an
/// `n x n` Gram matrix (tile width `tile`) for the computation `spec`
/// describes on worker processes, with `eval` as the byte-identical local
/// evaluator for any tile no worker returns. `None` declines (no worker
/// reachable) and the engine runs the Gram on the local pool instead.
pub type RemoteTiles =
    fn(&WorkerPool, usize, usize, &dyn TileEvaluator, &RemoteGram<'_>) -> Option<Matrix>;

static REMOTE_TILES: OnceLock<RemoteTiles> = OnceLock::new();

/// Installs the process-wide remote-tiles hook — called by `haqjsk-dist`
/// (the engine crate cannot depend on it). The first installation wins;
/// repeated calls are no-ops.
pub fn install_remote_tiles(hook: RemoteTiles) {
    let _ = REMOTE_TILES.set(hook);
}

/// The installed remote-tiles hook, if any.
pub(crate) fn remote_tiles() -> Option<RemoteTiles> {
    REMOTE_TILES.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse(" LOCAL "), Some(BackendKind::Local));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::default(), BackendKind::Local);
    }

    #[test]
    fn every_old_spelling_is_rejected() {
        for old in [
            "tiled",
            "tiled_pool",
            "pool",
            "batched",
            "batched_tile",
            "batch",
            " Tiled_Pool ",
            "BATCH",
        ] {
            let err = BackendKind::resolve_env_value(Some(old)).unwrap_err();
            assert!(
                err.contains("unknown backend") && err.contains("valid: serial, local"),
                "{old}: {err}"
            );
        }
    }

    #[test]
    fn distributed_labels_and_addresses_parse() {
        assert_eq!(
            BackendKind::parse("dist:127.0.0.1:7001,127.0.0.1:7002"),
            Some(BackendKind::Distributed)
        );
        // Prefix matching is case-insensitive like every other label.
        assert_eq!(
            BackendKind::parse("Dist:127.0.0.1:7001"),
            Some(BackendKind::Distributed)
        );
        assert_eq!(BackendKind::Distributed.label(), "dist");
        assert_eq!(
            BackendKind::dist_addresses("dist:127.0.0.1:7001, 127.0.0.1:7002"),
            Some(vec![
                "127.0.0.1:7001".to_string(),
                "127.0.0.1:7002".to_string()
            ])
        );
        assert_eq!(
            BackendKind::dist_addresses("DIST:h:1"),
            Some(vec!["h:1".to_string()])
        );
        assert_eq!(BackendKind::dist_addresses("local"), None);
        // A missing or empty address list is a configuration error, not a
        // kind: accepting it would select `Distributed` with no way to
        // install a coordinator, i.e. a silent local fallback.
        for bad in ["dist", "distributed", "dist:", "dist: , "] {
            let err = BackendKind::try_parse(bad).unwrap_err();
            assert!(err.contains("worker addresses"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_env_values_are_hard_errors() {
        assert_eq!(BackendKind::resolve_env_value(None), Ok(None));
        // A misspelled dist backend must not silently fall back to a local
        // one.
        let err = BackendKind::resolve_env_value(Some("dst:127.0.0.1:7001")).unwrap_err();
        assert!(err.contains("HAQJSK_BACKEND"), "{err}");
        assert!(err.contains("serial"), "error must list valid names: {err}");
        assert!(err.contains("local"), "error must list valid names: {err}");
        assert!(err.contains("dist:"), "error must list valid names: {err}");
        assert!(BackendKind::resolve_env_value(Some("")).is_err());
    }
}
