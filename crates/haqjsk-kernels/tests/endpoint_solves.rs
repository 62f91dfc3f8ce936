//! Each graph's endpoint spectrum is solved once per cold Gram, never per
//! pair: the spectral memo of the cached CTQW density is the one place it
//! lives. The aligned kernel's alignment-basis decomposition fills that
//! memo, so a cold QJSK-A Gram pays exactly one solve per graph.
//!
//! The solve counter is process-wide, so this file holds a single test.

use haqjsk_graph::generators::{barabasi_albert, erdos_renyi};
use haqjsk_graph::Graph;
use haqjsk_kernels::{GraphKernel, QjskAligned, QjskUnaligned};
use haqjsk_quantum::memo_solves;

#[test]
fn cold_grams_solve_each_endpoint_spectrum_exactly_once() {
    let aligned = QjskAligned::default();
    let unaligned = QjskUnaligned::default();
    for (kernel, seed) in [(&aligned as &dyn GraphKernel, 1000), (&unaligned, 2000)] {
        let graphs: Vec<Graph> = (0..6)
            .flat_map(|i| {
                [
                    erdos_renyi(6 + i, 0.4, seed + i as u64),
                    barabasi_albert(7 + i, 2, seed + 50 + i as u64),
                ]
            })
            .collect();
        let before = memo_solves();
        let cold = kernel.gram_matrix(&graphs);
        let cold_solves = memo_solves() - before;
        let warm = kernel.gram_matrix(&graphs);
        let name = kernel.name();
        assert_eq!(
            cold_solves,
            graphs.len() as u64,
            "{name}: one solve per graph"
        );
        assert_eq!(
            memo_solves() - before,
            cold_solves,
            "{name}: a warm Gram solves nothing"
        );
        assert_eq!(cold, warm);
    }
}
