//! CI regression guard for the per-pair latency trajectory.
//!
//! Compares a freshly measured `pairwise --json` report against the
//! committed baseline (`BENCH_pairwise.json` at the repo root) and fails
//! when any kernel row's **warm** per-pair time regressed by more than the
//! threshold. Rows are matched on `(kernel, node_size)` — the warm column
//! is per-pair-normalised, so a smoke run (fewer graphs) is comparable to
//! the committed full sweep wherever the node sizes overlap; rows without
//! a baseline counterpart are reported and skipped.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin pairwise_check -- \
//!     <current.json> <baseline.json> [--threshold 1.25]
//! ```
//!
//! **Machine normalisation.** Raw wall-clock is machine-relative, and the
//! committed baseline is rarely produced on the exact CI runner. When both
//! rows carry a `before_ms_per_pair` column (the legacy per-pair algorithm,
//! measured in the same process) the guard therefore compares the
//! **warm/before ratio** — the legacy loop acts as a same-machine speed
//! anchor, so a uniformly slower runner cancels out while a regression in
//! the fast path (which is what this guard protects) still moves the
//! ratio. Rows missing the anchor fall back to absolute warm times. The
//! trade: a change that slows the shared primitives (anchor and fast path
//! alike) is invisible here — that is the job of the committed baseline
//! refresh on perf-relevant PRs, not of a cross-machine CI gate.
//!
//! Exit codes: 0 = all matched rows within threshold, 1 = regression (or
//! nothing matched — a guard that compares nothing must not pass), 2 =
//! usage/parse error. `--threshold` overrides the default of 1.25.

use haqjsk_engine::Json;

struct RowRef<'a> {
    kernel: &'a str,
    node_size: usize,
    warm_ms: f64,
    /// The legacy-algorithm column, used as the same-machine speed anchor.
    before_ms: Option<f64>,
}

impl RowRef<'_> {
    /// Warm time normalised by the in-run anchor, when present.
    fn anchored(&self) -> Option<f64> {
        match self.before_ms {
            Some(before) if before > 0.0 => Some(self.warm_ms / before),
            _ => None,
        }
    }
}

fn rows(report: &Json) -> Vec<RowRef<'_>> {
    let Some(Json::Arr(results)) = report.get("results") else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|row| {
            Some(RowRef {
                kernel: row.get("kernel")?.as_str()?,
                node_size: row.get("node_size")?.as_usize()?,
                warm_ms: row.get("after_warm_ms_per_pair")?.as_f64()?,
                before_ms: row.get("before_ms_per_pair").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn load(path: &str) -> Json {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("error: cannot read {path}: {err}");
        std::process::exit(2);
    });
    Json::parse(&raw).unwrap_or_else(|err| {
        eprintln!("error: cannot parse {path}: {err}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 1.25_f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threshold" {
            threshold = iter
                .next()
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("error: --threshold requires a numeric argument");
                    std::process::exit(2);
                });
        } else {
            paths.push(arg);
        }
    }
    let [current_path, baseline_path] = paths[..] else {
        eprintln!("usage: pairwise_check <current.json> <baseline.json> [--threshold 1.25]");
        std::process::exit(2);
    };

    let current = load(current_path);
    let baseline = load(baseline_path);
    let current_rows = rows(&current);
    let baseline_rows = rows(&baseline);

    let mut compared = 0usize;
    let mut regressions = 0usize;
    println!(
        "{:<18} {:>6} {:>12} {:>12} {:>8} {:>9}  verdict (threshold {threshold:.2}x)",
        "kernel", "nodes", "current ms", "baseline ms", "ratio", "mode"
    );
    for row in &current_rows {
        let Some(base) = baseline_rows
            .iter()
            .find(|b| b.kernel == row.kernel && b.node_size == row.node_size)
        else {
            println!(
                "{:<18} {:>6} {:>12.4} {:>12} {:>8} {:>9}  skipped (no baseline row)",
                row.kernel, row.node_size, row.warm_ms, "-", "-", "-"
            );
            continue;
        };
        compared += 1;
        // Prefer the anchor-normalised comparison (machine-portable); fall
        // back to absolute warm times when either report lacks the anchor.
        let (ratio, mode) = match (row.anchored(), base.anchored()) {
            (Some(cur), Some(bas)) => (cur / bas.max(1e-12), "anchored"),
            _ => (row.warm_ms / base.warm_ms.max(1e-12), "absolute"),
        };
        let regressed = ratio > threshold;
        if regressed {
            regressions += 1;
        }
        println!(
            "{:<18} {:>6} {:>12.4} {:>12.4} {:>7.2}x {:>9}  {}",
            row.kernel,
            row.node_size,
            row.warm_ms,
            base.warm_ms,
            ratio,
            mode,
            if regressed { "REGRESSED" } else { "ok" }
        );
    }

    if compared == 0 {
        eprintln!(
            "error: no rows of {current_path} matched the baseline — the guard compared nothing"
        );
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!(
            "error: {regressions} kernel row(s) regressed beyond {threshold:.2}x of the committed baseline"
        );
        std::process::exit(1);
    }
    println!("all {compared} matched rows within {threshold:.2}x of the baseline");
}
