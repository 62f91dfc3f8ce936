//! Regenerates Table V of the paper: the HAQJSK kernels against graph
//! deep-learning models on the MUTAG, PTC(MR), IMDB-B, IMDB-M, RED-B and
//! COLLAB stand-ins. The published baselines (DGCNN, PSGCNN, DCNN, DGK, AWE)
//! are represented by two from-scratch, WL-bounded message-passing models: a
//! GCN and a WL-feature MLP.
//!
//! ```text
//! cargo run --release -p haqjsk-bench --bin table5_deep_learning [--medium|--full]
//! ```

use haqjsk_bench::{evaluate_haqjsk, print_accuracy_table, AccuracyRow, RunScale};
use haqjsk_core::HaqjskVariant;
use haqjsk_datasets::generate_by_name;
use haqjsk_graph::Graph;
use haqjsk_linalg::stats;
use haqjsk_ml::cross_validation::stratified_folds;
use haqjsk_ml::gcn::{GcnClassifier, GcnConfig};
use haqjsk_ml::mlp::{WlMlpClassifier, WlMlpConfig};

/// k-fold cross-validated accuracy of a train/predict closure.
fn cross_validate_model<F>(
    graphs: &[Graph],
    labels: &[usize],
    folds: usize,
    train_predict: F,
) -> AccuracyRow
where
    F: Fn(&[Graph], &[usize], &[Graph]) -> Vec<usize>,
{
    let assignment = stratified_folds(labels, folds, 7);
    let mut accuracies = Vec::new();
    for fold in 0..folds {
        let train_idx: Vec<usize> = (0..labels.len())
            .filter(|&i| assignment[i] != fold)
            .collect();
        let test_idx: Vec<usize> = (0..labels.len())
            .filter(|&i| assignment[i] == fold)
            .collect();
        if train_idx.is_empty() || test_idx.is_empty() {
            continue;
        }
        let train_graphs: Vec<Graph> = train_idx.iter().map(|&i| graphs[i].clone()).collect();
        let train_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let test_graphs: Vec<Graph> = test_idx.iter().map(|&i| graphs[i].clone()).collect();
        let test_labels: Vec<usize> = test_idx.iter().map(|&i| labels[i]).collect();
        let predictions = train_predict(&train_graphs, &train_labels, &test_graphs);
        accuracies.push(haqjsk_ml::accuracy(&predictions, &test_labels));
    }
    let percents: Vec<f64> = accuracies.iter().map(|a| a * 100.0).collect();
    AccuracyRow {
        method: String::new(),
        accuracy: format!(
            "{:.2} ± {:.2}",
            stats::mean(&percents),
            stats::standard_error(&percents)
        ),
        mean_percent: stats::mean(&percents),
    }
}

fn main() {
    let scale = RunScale::from_args();
    println!(
        "Table V — HAQJSK kernels vs graph deep-learning stand-ins, {}",
        scale.describe()
    );
    let datasets = ["MUTAG", "PTC(MR)", "IMDB-B", "IMDB-M", "RED-B", "COLLAB"];
    // RED-B / COLLAB are huge; at quick scale we shrink them harder.
    let cv = scale.cv_config();
    let haqjsk_config = scale.haqjsk_config();
    let folds = if scale == RunScale::Quick { 3 } else { 5 };

    for name in datasets {
        let extra = if matches!(name, "RED-B" | "COLLAB") {
            4
        } else {
            1
        };
        let Some(dataset) = generate_by_name(
            name,
            scale.graph_divisor() * extra,
            scale.size_divisor() * extra,
            42,
        ) else {
            continue;
        };
        let mut rows = Vec::new();
        for variant in [
            HaqjskVariant::AlignedAdjacency,
            HaqjskVariant::AlignedDensity,
        ] {
            match evaluate_haqjsk(variant, &haqjsk_config, &dataset, &cv) {
                Ok(row) => rows.push(row),
                Err(err) => eprintln!("{} failed on {name}: {err}", variant.label()),
            }
        }

        let mut gcn_row =
            cross_validate_model(&dataset.graphs, &dataset.classes, folds, |tg, tl, test| {
                let model = GcnClassifier::train(
                    tg,
                    tl,
                    GcnConfig {
                        hidden_dim: 16,
                        epochs: 80,
                        ..Default::default()
                    },
                );
                test.iter().map(|g| model.predict(g)).collect()
            });
        gcn_row.method = "GCN (DGCNN/DCNN stand-in)".to_string();
        rows.push(gcn_row);

        let mut mlp_row =
            cross_validate_model(&dataset.graphs, &dataset.classes, folds, |tg, tl, test| {
                let model = WlMlpClassifier::train(
                    tg,
                    tl,
                    WlMlpConfig {
                        hidden_dim: 24,
                        epochs: 100,
                        ..Default::default()
                    },
                );
                test.iter().map(|g| model.predict(g)).collect()
            });
        mlp_row.method = "WL-MLP (DGK stand-in)".to_string();
        rows.push(mlp_row);

        print_accuracy_table(
            &format!(
                "{name} ({} graphs, {} classes)",
                dataset.len(),
                dataset.num_classes()
            ),
            &rows,
        );
    }

    println!("\nThe published DGCNN/PSGCNN/DCNN/DGK/AWE numbers in the paper are quoted from their original papers; here the comparison is against from-scratch WL-bounded models trained on the same synthetic data.");
}
