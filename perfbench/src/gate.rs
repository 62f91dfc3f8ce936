//! The correctness gate: every checked answer must equal, bit for bit,
//! what an in-process `HaqjskModel` fitted on identical inputs computes.

use crate::load::{Body, Op, Plan, Record, Reply, Workload, FIT_SETS, STREAM_TRAIN};
use haqjsk::core::{AlignedGraph, HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::engine::{graph_from_json, graph_to_json, Engine};
use haqjsk::graph::Graph;
use std::collections::BTreeMap;

/// The graph as the server sees it: through the wire codec.
pub fn wire_graph(graph: &Graph) -> Graph {
    graph_from_json(&graph_to_json(graph)).expect("a generated graph survives the wire codec")
}

/// An in-process model fitted on a training set, with the training
/// features the server serves from.
pub struct Reference {
    pub model: HaqjskModel,
    pub train: Vec<Graph>,
    pub labels: Vec<usize>,
    pub features: Vec<AlignedGraph>,
}

impl Reference {
    /// Fits on `fit_graphs`, then serves `fit_graphs` followed by
    /// `appended` (stream-rw grows its training list after the fit).
    fn fit(
        fit_graphs: Vec<Graph>,
        appended: Vec<Graph>,
        labels: Vec<usize>,
        variant: HaqjskVariant,
    ) -> Result<Reference, String> {
        let model = HaqjskModel::fit(&fit_graphs, HaqjskConfig::small(), variant)
            .map_err(|e| format!("reference fit failed: {e:?}"))?;
        let mut train = fit_graphs;
        train.extend(appended);
        let features = model
            .transform_all(&train)
            .map_err(|e| format!("reference transform failed: {e:?}"))?;
        Ok(Reference {
            model,
            train,
            labels,
            features,
        })
    }

    /// The kernel row of `query` against the first `n` training graphs,
    /// evaluated as the server's `kernel_row` does.
    pub fn row(&self, query: &Graph, n: usize) -> Result<Vec<f64>, String> {
        let q = self
            .model
            .transform(query)
            .map_err(|e| format!("reference transform failed: {e:?}"))?;
        Ok(self.features[..n]
            .iter()
            .map(|t| self.model.kernel(&q, t))
            .collect())
    }
}

/// The reference models of a plan: one per training set for fit-*, one
/// otherwise (for stream-rw serving the final, fully appended list).
pub fn references(plan: &Plan) -> Result<Vec<Reference>, String> {
    let variant = plan.workload.variant();
    let sets = if plan.workload.is_fit() { FIT_SETS } else { 1 };
    (0..sets)
        .map(|k| {
            let members = plan.training_set(k);
            let graphs = members.iter().map(|&i| wire_graph(&plan.train[i].graph));
            let appended = plan.appends.iter().map(|g| wire_graph(&g.graph)).collect();
            let labels = members
                .iter()
                .map(|&i| plan.train[i].label)
                .chain(plan.appends.iter().map(|g| g.label))
                .collect();
            Reference::fit(graphs.collect(), appended, labels, variant)
        })
        .collect()
}

/// Bit-for-bit equality of two kernel rows.
pub fn row_matches(expected: &[f64], got: &[f64]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(e, g)| e.to_bits() == g.to_bits())
}

/// Whether a `predict` reply equals the server's 1-NN rule applied to the
/// reference row truncated to some training size in `lo..=hi`.
pub fn predict_matches(
    row: &[f64],
    labels: &[usize],
    lo: usize,
    hi: usize,
    (label, nearest, value): (usize, usize, f64),
) -> bool {
    (lo.max(1)..=hi.min(row.len())).any(|n| {
        let best = row[..n]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        best == Some(nearest)
            && labels.get(nearest) == Some(&label)
            && row[nearest].to_bits() == value.to_bits()
    })
}

/// What the gate checked and what it found.
#[derive(Debug, Default)]
pub struct Gate {
    pub checked: usize,
    pub mismatches: Vec<String>,
    pub predictions: usize,
    pub correct_predictions: usize,
    /// The training size each `predict` was served at, by record index
    /// (for stream-rw, the smallest size consistent with the reply).
    pub predict_sizes: BTreeMap<usize, usize>,
}

impl Gate {
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn accuracy(&self) -> Option<f64> {
        (self.predictions > 0).then(|| self.correct_predictions as f64 / self.predictions as f64)
    }
}

/// Checks every answered request of a measured phase: fit shapes, every
/// `kernel_row` row, every `predict` reply, every `append` count.
pub fn verify(plan: &Plan, refs: &[Reference], records: &[Record]) -> Gate {
    let mut gate = Gate::default();
    let reference_of = |item: usize| if plan.workload.is_fit() { item } else { 0 };
    let query_of = |record: &Record| &plan.heldout[record.item];
    // One reference row per distinct (reference, query), computed in
    // parallel over the full served training list.
    let mut wanted: Vec<(usize, usize)> = records
        .iter()
        .filter(|r| matches!(r.op, Op::KernelRow | Op::Predict) && r.ok())
        .map(|r| (reference_of(r.item), r.item))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let computed = Engine::global().map(wanted.len(), |i| {
        let (reference, query) = wanted[i];
        let reference = &refs[reference];
        reference.row(
            &wire_graph(&plan.heldout[query].graph),
            reference.train.len(),
        )
    });
    let mut rows = BTreeMap::new();
    for (key, row) in wanted.into_iter().zip(computed) {
        match row {
            Ok(row) => {
                rows.insert(key, row);
            }
            Err(e) => gate.mismatches.push(e),
        }
    }
    // stream-rw: append `i` was applied before a predict if it was
    // answered before the predict was sent, and possibly if it was sent
    // before the predict was answered.
    let appends: Vec<&Record> = records
        .iter()
        .filter(|r| r.op == Op::Append && r.ok())
        .collect();
    for (index, record) in records.iter().enumerate() {
        let Reply::Ok(body) = &record.reply else {
            continue;
        };
        let fail = |what: String| format!("{} #{index}: {what}", record.op.name());
        match (record.op, body) {
            (Op::Fit, Body::Fit { num_graphs, levels }) => {
                gate.checked += 1;
                let reference = &refs[reference_of(record.item)];
                let expected_levels = reference.model.hierarchy().num_levels();
                let expected_graphs = plan.training_set(record.item).len();
                if (*num_graphs, *levels) != (expected_graphs, expected_levels) {
                    gate.mismatches.push(fail(format!(
                        "{num_graphs} graphs / {levels} levels, expected {expected_graphs} / {expected_levels}"
                    )));
                }
            }
            (Op::KernelRow, Body::Row(got)) => {
                gate.checked += 1;
                let Some(expected) = rows.get(&(reference_of(record.item), record.item)) else {
                    continue;
                };
                if !row_matches(expected, got) {
                    gate.mismatches.push(fail(format!(
                        "row differs from the in-process model (query {})",
                        record.item
                    )));
                }
            }
            (
                Op::Predict,
                Body::Predict {
                    label,
                    nearest,
                    value,
                },
            ) => {
                gate.checked += 1;
                let reference = &refs[reference_of(record.item)];
                let Some(row) = rows.get(&(reference_of(record.item), record.item)) else {
                    continue;
                };
                let (lo, hi) = if plan.workload == Workload::StreamRw {
                    let applied = appends.iter().filter(|a| a.done <= record.sent).count();
                    let maybe = appends.iter().filter(|a| a.sent <= record.done).count();
                    (STREAM_TRAIN + applied, STREAM_TRAIN + maybe)
                } else {
                    (row.len(), row.len())
                };
                let reply = (*label, *nearest, *value);
                match (lo..=hi).find(|&n| predict_matches(row, &reference.labels, n, n, reply)) {
                    Some(n) => {
                        gate.predict_sizes.insert(index, n);
                    }
                    None => gate.mismatches.push(fail(format!(
                        "label {label} / nearest {nearest} not the 1-NN of query {} at any size in {lo}..={hi}",
                        record.item
                    ))),
                }
                gate.predictions += 1;
                if *label == query_of(record).label {
                    gate.correct_predictions += 1;
                }
            }
            (Op::Append, Body::Appended { num_graphs }) => {
                gate.checked += 1;
                if *num_graphs != STREAM_TRAIN + record.item + 1 {
                    gate.mismatches.push(fail(format!(
                        "server holds {num_graphs} graphs after append {}",
                        record.item
                    )));
                }
            }
            (Op::Stats, Body::Stats(_)) => {}
            (op, body) => gate
                .mismatches
                .push(fail(format!("unexpected reply {body:?} to {}", op.name()))),
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Drawer;

    fn tiny_plan() -> Plan {
        let mut drawer = Drawer::new(5);
        Plan {
            workload: Workload::QuerySkewed,
            train: drawer.draw(12),
            heldout: drawer.draw(3),
            appends: Vec::new(),
        }
    }

    fn record(op: Op, item: usize, body: Body) -> Record {
        Record {
            op,
            item,
            due: 0.0,
            sent: 0.0,
            done: 0.001,
            reply: Reply::Ok(body),
        }
    }

    #[test]
    fn gate_trips_on_a_corrupted_value() {
        let plan = tiny_plan();
        let refs = references(&plan).expect("reference fit");
        let reference = &refs[0];
        let query = wire_graph(&plan.heldout[1].graph);
        let row = reference.row(&query, reference.train.len()).expect("row");
        let (nearest, value) = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, v)| (i, *v))
            .expect("non-empty row");
        let label = reference.labels[nearest];

        let honest = vec![
            record(Op::KernelRow, 1, Body::Row(row.clone())),
            record(
                Op::Predict,
                1,
                Body::Predict {
                    label,
                    nearest,
                    value,
                },
            ),
        ];
        let gate = verify(&plan, &refs, &honest);
        assert!(gate.passed(), "{:?}", gate.mismatches);
        assert_eq!(gate.checked, 2);

        let mut corrupted = row.clone();
        corrupted[3] = f64::from_bits(corrupted[3].to_bits() ^ 1);
        let bad_row = vec![record(Op::KernelRow, 1, Body::Row(corrupted))];
        assert!(!verify(&plan, &refs, &bad_row).passed());

        let bad_value = vec![record(
            Op::Predict,
            1,
            Body::Predict {
                label,
                nearest,
                value: value * (1.0 + f64::EPSILON),
            },
        )];
        assert!(!verify(&plan, &refs, &bad_value).passed());
    }

    #[test]
    fn predict_window_accepts_any_consistent_training_size() {
        let row = [0.2, 0.9, 0.4, 0.95];
        let labels = [0, 1, 2, 3];
        assert!(predict_matches(&row, &labels, 2, 3, (1, 1, 0.9)));
        assert!(predict_matches(&row, &labels, 2, 4, (3, 3, 0.95)));
        assert!(!predict_matches(&row, &labels, 4, 4, (1, 1, 0.9)));
        assert!(!predict_matches(&row, &labels, 2, 3, (2, 1, 0.9)));
        assert!(row_matches(&row, &row));
        assert!(!row_matches(&row, &row[..3]));
    }
}
