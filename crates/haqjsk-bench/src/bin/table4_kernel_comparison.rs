//! Regenerates Table IV of the paper: 10-fold C-SVM classification accuracy
//! of the HAQJSK kernels against the baseline graph kernels on (synthetic
//! stand-ins for) the twelve benchmark datasets.
//!
//! The default quick scale runs a handful of reduced datasets in minutes;
//! pass `--medium` or `--full` for the larger protocol, and optionally name
//! datasets on the command line to restrict the run, e.g.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin table4_kernel_comparison -- MUTAG PTC(MR)
//! cargo run --release -p haqjsk-bench --bin table4_kernel_comparison -- --full
//! ```

use haqjsk_bench::{evaluate_haqjsk, evaluate_kernel, print_accuracy_table, AccuracyRow, RunScale};
use haqjsk_core::HaqjskVariant;
use haqjsk_datasets::{all_dataset_names, generate_by_name};
use haqjsk_kernels::{
    DepthBasedAlignedKernel, GraphKernel, GraphletKernel, JensenTsallisKernel, QjskUnaligned,
    RandomWalkKernel, ShortestPathKernel, WeisfeilerLehmanKernel,
};

fn main() {
    let scale = RunScale::from_args();
    println!("{}", haqjsk_bench::engine_banner());
    let requested: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    // By default the quick run covers the smaller half of the datasets; the
    // paper-scale social-network corpora (RED-B, COLLAB) only run with an
    // explicit request or --full.
    let default_quick = [
        "MUTAG",
        "PTC(MR)",
        "PPIs",
        "BAR31",
        "BSPHERE31",
        "GEOD31",
        "IMDB-B",
        "IMDB-M",
    ];
    let datasets: Vec<String> = if !requested.is_empty() {
        requested
    } else if scale == RunScale::Full {
        all_dataset_names().iter().map(|s| s.to_string()).collect()
    } else {
        default_quick.iter().map(|s| s.to_string()).collect()
    };

    println!(
        "Table IV — classification accuracy (mean % ± standard error), {}",
        scale.describe()
    );
    let cv = scale.cv_config();
    let haqjsk_config = scale.haqjsk_config();

    for name in &datasets {
        let Some(dataset) = generate_by_name(name, scale.graph_divisor(), scale.size_divisor(), 42)
        else {
            eprintln!("unknown dataset '{name}', skipping");
            continue;
        };
        let mut rows: Vec<AccuracyRow> = Vec::new();

        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            match evaluate_haqjsk(variant, &haqjsk_config, &dataset, &cv) {
                Ok(row) => rows.push(row),
                Err(err) => eprintln!("{} failed on {name}: {err}", variant.label()),
            }
        }

        let baselines: Vec<Box<dyn GraphKernel>> = vec![
            Box::new(QjskUnaligned::default()),
            Box::new(JensenTsallisKernel::default()),
            Box::new(GraphletKernel::three_only()),
            Box::new(WeisfeilerLehmanKernel::new(3)),
            Box::new(ShortestPathKernel::new()),
            Box::new(RandomWalkKernel::default()),
            Box::new(DepthBasedAlignedKernel::default()),
        ];
        for kernel in &baselines {
            match evaluate_kernel(kernel.as_ref(), &dataset, &cv) {
                Ok(row) => rows.push(row),
                Err(err) => eprintln!("{} failed on {name}: {err}", kernel.name()),
            }
        }

        print_accuracy_table(
            &format!(
                "{name} ({} graphs, {} classes)",
                dataset.len(),
                dataset.num_classes()
            ),
            &rows,
        );
        let best = rows
            .iter()
            .max_by(|a, b| a.mean_percent.partial_cmp(&b.mean_percent).unwrap())
            .unwrap();
        println!("best on {name}: {} ({})", best.method, best.accuracy);
    }

    println!("\nAbsolute numbers differ from the paper (synthetic stand-in datasets); the comparison of interest is the ranking of kernels per dataset.");
}
