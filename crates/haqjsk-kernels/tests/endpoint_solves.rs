//! Each graph's endpoint spectrum is solved once per Gram, never per pair:
//! a Gram extracts each graph's CTQW density once, and the density's
//! spectral memo is the one place its spectrum lives. The aligned kernel's
//! alignment-basis decomposition fills that memo, and JTQK's Tsallis
//! entropy reads it, so every baseline Gram pays exactly one solve per
//! graph. Nothing outlives a Gram, so a second Gram over the same graphs
//! pays the same again.
//!
//! The solve counter is process-wide, so this file holds a single test.

use haqjsk_graph::generators::{barabasi_albert, erdos_renyi};
use haqjsk_graph::Graph;
use haqjsk_kernels::{GraphKernel, JensenTsallisKernel, QjskAligned, QjskUnaligned};
use haqjsk_quantum::memo_solves;

#[test]
fn every_gram_solves_each_endpoint_spectrum_exactly_once() {
    let aligned = QjskAligned::default();
    let unaligned = QjskUnaligned::default();
    let jtqk = JensenTsallisKernel::default();
    for (kernel, seed) in [
        (&aligned as &dyn GraphKernel, 1000),
        (&unaligned, 2000),
        (&jtqk, 3000),
    ] {
        let graphs: Vec<Graph> = (0..6)
            .flat_map(|i| {
                [
                    erdos_renyi(6 + i, 0.4, seed + i as u64),
                    barabasi_albert(7 + i, 2, seed + 50 + i as u64),
                ]
            })
            .collect();
        let name = kernel.name();
        let mut grams = Vec::new();
        for run in ["first", "second"] {
            let before = memo_solves();
            grams.push(kernel.gram_matrix(&graphs));
            assert_eq!(
                memo_solves() - before,
                graphs.len() as u64,
                "{name}, {run} Gram: one solve per graph"
            );
        }
        assert_eq!(grams[0], grams[1], "{name}");
    }
}
