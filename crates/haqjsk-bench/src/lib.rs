//! # haqjsk-bench
//!
//! Shared harness code for the binaries that regenerate the paper's tables
//! and figures, plus the Criterion micro-benchmarks.
//!
//! Each table/figure of the paper has a dedicated binary under `src/bin/`,
//! named after it (`table1_properties` … `table5_deep_learning`, the
//! ablations and `ctqw_vs_ctrw`); this library holds the pieces they
//! share: command-line scale handling, kernel evaluation through the
//! paper's C-SVM protocol, and simple fixed-width table printing.

use haqjsk_core::{HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk_datasets::GeneratedDataset;
use haqjsk_kernels::{GraphKernel, KernelMatrix};
use haqjsk_linalg::LinalgError;
use haqjsk_ml::{cross_validate_kernel, CrossValidationConfig};

/// How aggressively to down-scale the paper's dataset sizes. The default
/// keeps every table reproducible on a laptop in minutes; `--full` runs the
/// paper-scale datasets (hours for the quantum kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Small datasets, few folds: seconds to minutes per table.
    Quick,
    /// Intermediate scale.
    Medium,
    /// The paper's dataset sizes and the full 10x10-fold protocol.
    Full,
}

impl RunScale {
    /// Parses the scale from process arguments (`--full`, `--medium`,
    /// default quick).
    pub fn from_args() -> RunScale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            RunScale::Full
        } else if args.iter().any(|a| a == "--medium") {
            RunScale::Medium
        } else {
            RunScale::Quick
        }
    }

    /// Divisor applied to the number of graphs per dataset.
    pub fn graph_divisor(self) -> usize {
        match self {
            RunScale::Quick => 16,
            RunScale::Medium => 4,
            RunScale::Full => 1,
        }
    }

    /// Divisor applied to graph sizes (vertex/edge counts).
    pub fn size_divisor(self) -> usize {
        match self {
            RunScale::Quick => 4,
            RunScale::Medium => 2,
            RunScale::Full => 1,
        }
    }

    /// The cross-validation protocol matching the scale.
    pub fn cv_config(self) -> CrossValidationConfig {
        match self {
            RunScale::Quick => CrossValidationConfig::quick(),
            RunScale::Medium => CrossValidationConfig {
                folds: 10,
                repetitions: 3,
                ..CrossValidationConfig::default()
            },
            RunScale::Full => CrossValidationConfig::default(),
        }
    }

    /// The HAQJSK configuration matching the scale (prototype counts shrink
    /// with the datasets so the aligned matrices stay proportionate).
    pub fn haqjsk_config(self) -> HaqjskConfig {
        match self {
            RunScale::Quick => HaqjskConfig {
                hierarchy_levels: 3,
                num_prototypes: 32,
                layer_cap: 4,
                ..HaqjskConfig::small()
            },
            RunScale::Medium => HaqjskConfig {
                hierarchy_levels: 4,
                num_prototypes: 64,
                layer_cap: 5,
                ..HaqjskConfig::default()
            },
            RunScale::Full => HaqjskConfig::default(),
        }
    }

    /// Human-readable description for table headers.
    pub fn describe(self) -> &'static str {
        match self {
            RunScale::Quick => "quick scale (pass --medium or --full for larger runs)",
            RunScale::Medium => "medium scale",
            RunScale::Full => "full paper scale",
        }
    }
}

/// Parses a `--json <path>` flag from the process arguments — the
/// machine-readable output channel of the perf benches (`scaling`,
/// `pairwise`), so the perf trajectory can be tracked across PRs.
///
/// A `--json` with a missing path (or another flag where the path should
/// be) aborts loudly: automation that forgot the path must not exit 0 and
/// then diff a stale report file.
pub fn json_output_path() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let idx = args.iter().position(|a| a == "--json")?;
    match args.get(idx + 1) {
        Some(path) if !path.starts_with("--") => Some(std::path::PathBuf::from(path)),
        _ => {
            eprintln!("error: --json requires a path argument");
            std::process::exit(2);
        }
    }
}

/// Writes a JSON document to `path` (pretty enough for diffing: one line),
/// logging where it went. A failed write aborts with a non-zero exit for
/// the same reason a missing `--json` path does: automation must never
/// exit 0 and then diff a stale report file.
pub fn write_json_report(path: &std::path::Path, report: &haqjsk_engine::Json) {
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => println!("\nwrote machine-readable results to {}", path.display()),
        Err(err) => {
            eprintln!("\nerror: failed to write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

/// Handles the perf benches' `--metrics` flag: when present, registers
/// every layer's registry exporters and dumps the full metrics registry —
/// engine, eigen-batch, distributed and serve families — as
/// Prometheus text to stdout. A no-op without the flag, so metrics-enabled
/// and plain runs execute the identical benchmark path (the `pairwise_check`
/// regression guard relies on that).
pub fn dump_metrics_if_requested() {
    if !std::env::args().any(|a| a == "--metrics") {
        return;
    }
    haqjsk_linalg::register_batch_metrics();
    haqjsk_dist::register_dist_metrics();
    println!("\n--- metrics (Prometheus text exposition) ---");
    print!("{}", haqjsk_obs::registry().render_prometheus());
}

/// One-line description of the engine executing all Gram computation:
/// worker count (with its `HAQJSK_THREADS` provenance), the default
/// backend and the dispatched eigensolver SIMD path. The table binaries
/// print it so recorded runs document their parallel configuration.
pub fn engine_banner() -> String {
    let threads = haqjsk_engine::Engine::global().threads();
    let source = if std::env::var(haqjsk_engine::THREADS_ENV_VAR).is_ok() {
        haqjsk_engine::THREADS_ENV_VAR
    } else {
        "auto"
    };
    let backend = haqjsk_engine::Engine::global().backend();
    let simd = haqjsk_linalg::active_simd_label();
    format!("engine: {threads} workers ({source}), '{backend}' backend, '{simd}' eigensolver lanes")
}

/// One row of an accuracy table: kernel name and "mean ± stderr" text.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Method name.
    pub method: String,
    /// Formatted accuracy.
    pub accuracy: String,
    /// Mean accuracy in percent (for programmatic comparisons).
    pub mean_percent: f64,
}

/// Evaluates a Gram matrix with the paper's C-SVM protocol and returns the
/// accuracy row. Indefinite kernels are clipped to the PSD cone first, as one
/// must do in practice before handing them to an SVM.
pub fn evaluate_gram(
    method: &str,
    gram: &KernelMatrix,
    classes: &[usize],
    cv: &CrossValidationConfig,
) -> AccuracyRow {
    let normalized = gram.normalized();
    let psd = normalized.project_psd().expect("PSD projection succeeds");
    let result = cross_validate_kernel(&psd, classes, cv);
    AccuracyRow {
        method: method.to_string(),
        accuracy: format!("{}", result.summary),
        mean_percent: result.summary.mean_percent,
    }
}

/// Evaluates a baseline kernel (Gram + C-SVM CV) on a generated dataset;
/// a Gram that fails is the error.
pub fn evaluate_kernel(
    kernel: &dyn GraphKernel,
    dataset: &GeneratedDataset,
    cv: &CrossValidationConfig,
) -> Result<AccuracyRow, LinalgError> {
    let gram = kernel.try_gram_matrix_on(&dataset.graphs, None)?;
    Ok(evaluate_gram(kernel.name(), &gram, &dataset.classes, cv))
}

/// Fits a HAQJSK model on a dataset and evaluates it with the C-SVM protocol.
pub fn evaluate_haqjsk(
    variant: HaqjskVariant,
    config: &HaqjskConfig,
    dataset: &GeneratedDataset,
    cv: &CrossValidationConfig,
) -> Result<AccuracyRow, LinalgError> {
    let model = HaqjskModel::fit(&dataset.graphs, config.clone(), variant)?;
    let gram = model.gram_matrix(&dataset.graphs)?;
    Ok(evaluate_gram(variant.label(), &gram, &dataset.classes, cv))
}

/// Prints a fixed-width table of accuracy rows.
pub fn print_accuracy_table(dataset: &str, rows: &[AccuracyRow]) {
    println!("\n=== {dataset} ===");
    println!("{:<28} {:>18}", "method", "accuracy (%)");
    for row in rows {
        println!("{:<28} {:>18}", row.method, row.accuracy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_datasets::generate_by_name;
    use haqjsk_kernels::WeisfeilerLehmanKernel;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(RunScale::Quick.graph_divisor() > RunScale::Medium.graph_divisor());
        assert!(RunScale::Medium.graph_divisor() > RunScale::Full.graph_divisor());
        assert_eq!(RunScale::Full.graph_divisor(), 1);
        assert_eq!(RunScale::Full.size_divisor(), 1);
        assert!(
            RunScale::Quick.haqjsk_config().num_prototypes
                <= RunScale::Full.haqjsk_config().num_prototypes
        );
        assert!(RunScale::Quick.cv_config().repetitions <= RunScale::Full.cv_config().repetitions);
        assert!(!RunScale::Quick.describe().is_empty());
    }

    #[test]
    fn evaluation_helpers_produce_rows() {
        let dataset = generate_by_name("MUTAG", 16, 1, 1).unwrap();
        let cv = CrossValidationConfig::quick();
        let row = evaluate_kernel(&WeisfeilerLehmanKernel::new(2), &dataset, &cv).unwrap();
        assert_eq!(row.method, "WLSK");
        assert!(row.mean_percent >= 0.0 && row.mean_percent <= 100.0);
        let hrow = evaluate_haqjsk(
            HaqjskVariant::AlignedAdjacency,
            &HaqjskConfig {
                hierarchy_levels: 2,
                num_prototypes: 8,
                layer_cap: 3,
                ..HaqjskConfig::small()
            },
            &dataset,
            &cv,
        )
        .unwrap();
        assert_eq!(hrow.method, "HAQJSK(A)");
        print_accuracy_table("MUTAG (test)", &[row, hrow]);
    }
}
