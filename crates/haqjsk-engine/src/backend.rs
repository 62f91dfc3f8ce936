//! Where a Gram matrix runs, and the tile-evaluation seam it runs through.
//!
//! Every in-process full Gram matrix goes through one tile scheduler
//! ([`gram::run_tiles`](crate::gram::run_tiles)) over one
//! [`TileEvaluator`]. A [`BackendKind`] only decides where that scheduler
//! runs its tiles (and where a HAQJSK Gram extension evaluates its new
//! pairs):
//!
//! * [`BackendKind::Serial`] — inline on the calling thread, in row-major
//!   tile order (what the single-thread per-pair latency benchmarks
//!   measure),
//! * [`BackendKind::Local`] — the same tiles over the worker pool (the
//!   default).
//!
//! Worker processes are not an engine backend: `haqjsk-dist`'s
//! coordinator runs a fitted model's Gram itself, over the same grid.
//! `HAQJSK_BACKEND=dist:<addr,addr>` names the startup worker pool the
//! binaries install (`haqjsk_dist::install_from_env`); the engine reads
//! such a value as its default, [`BackendKind::Local`].
//!
//! Per-graph work outside the tiles (feature extraction, transforms) goes
//! through [`Engine::map`](crate::Engine::map) under the engine's default
//! backend, whatever a call's override says: only a `serial` engine
//! default runs it inline.
//!
//! Tile values are deterministic functions of (kernel, dataset, pair), so
//! every path produces byte-identical Gram matrices.
//!
//! Selection: [`Engine`](crate::Engine) builders take a [`BackendKind`];
//! the `HAQJSK_BACKEND` environment variable (`serial` / `local` /
//! `dist:<addr,addr>`) overrides the default for the process-global engine,
//! and the Gram entry points take a per-call override.

/// Name of the environment variable selecting the default backend.
pub const BACKEND_ENV_VAR: &str = "HAQJSK_BACKEND";

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

/// Where a Gram matrix's tiles (and a Gram extension's new pairs) run;
/// feature extraction and transforms follow the engine's default instead
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The tile scheduler inline on the calling thread, row-major.
    Serial,
    /// The tile scheduler over the worker pool (the default).
    #[default]
    Local,
}

impl BackendKind {
    /// Every kind, in sweep order (benchmarks iterate this).
    pub const ALL: [BackendKind; 2] = [BackendKind::Serial, BackendKind::Local];

    /// The canonical lower-case label (`serial` / `local`) — also the
    /// `backend` label of `haqjsk_gram_build_seconds`.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::Local => "local",
        }
    }

    /// Parses a backend label, rejecting anything unrecognised with an
    /// error that lists the valid spellings. Accepts the canonical labels
    /// and the worker-pool form `dist:<addr,addr>`, which reads as
    /// [`BackendKind::Local`] (the address list is read separately via
    /// [`BackendKind::dist_addresses`]).
    pub fn try_parse(raw: &str) -> Result<BackendKind, String> {
        let trimmed = raw.trim();
        let lower = trimmed.to_ascii_lowercase();
        if lower == "dist" || lower == "distributed" || BackendKind::strip_dist(trimmed).is_some() {
            // Bare `dist` names a worker pool with nothing to install it
            // from, which would silently run every Gram in-process.
            // Demanding addresses here keeps "a dist misconfiguration can
            // never silently fall back" absolute.
            if BackendKind::dist_addresses(trimmed).is_none() {
                return Err(format!(
                    "backend '{trimmed}' selects the distributed backend but lists no \
                     worker addresses (expected 'dist:host:port[,host:port...]')"
                ));
            }
            return Ok(BackendKind::Local);
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

    /// The worker address list of the `HAQJSK_BACKEND` override, if it is
    /// a `dist:<addr,addr>` value.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::try_parse(kind.label()), Ok(kind));
        }
        assert_eq!(BackendKind::try_parse(" LOCAL "), Ok(BackendKind::Local));
        assert!(BackendKind::try_parse("gpu").is_err());
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
            BackendKind::dist_addresses("dist:127.0.0.1:7001, 127.0.0.1:7002"),
            Some(vec![
                "127.0.0.1:7001".to_string(),
                "127.0.0.1:7002".to_string()
            ])
        );
        // Prefix matching is case-insensitive like every other label.
        assert_eq!(
            BackendKind::dist_addresses("DIST:h:1"),
            Some(vec!["h:1".to_string()])
        );
        assert_eq!(BackendKind::dist_addresses("local"), None);
        // A missing or empty address list is a configuration error:
        // accepting it would name a worker pool with no way to install
        // it, i.e. a silent local fallback.
        for bad in ["dist", "distributed", "dist:", "dist: , "] {
            let err = BackendKind::try_parse(bad).unwrap_err();
            assert!(err.contains("worker addresses"), "{bad}: {err}");
        }
        // A well-formed pool value leaves the engine on its default.
        assert_eq!(
            BackendKind::resolve_env_value(Some("dist:h:1")),
            Ok(Some(BackendKind::Local))
        );
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
