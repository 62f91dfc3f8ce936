//! Criterion micro-benchmarks of the quantum-walk substrate: CTQW density
//! matrices, von Neumann entropy and the QJSD, as a function of graph size.
//! These are the inner kernels of the O(N² n³) complexity analysis in
//! Sec. III-D of the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use haqjsk_graph::generators::erdos_renyi;
use haqjsk_quantum::{ctqw_density_infinite, entropy_of_spectrum, qjsd};
use std::time::Duration;

fn bench_ctqw_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctqw_density");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [16usize, 32, 64] {
        let graph = erdos_renyi(n, 0.25, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, g| {
            b.iter(|| ctqw_density_infinite(g).unwrap());
        });
    }
    group.finish();
}

fn bench_entropy_and_qjsd(c: &mut Criterion) {
    let mut group = c.benchmark_group("qjsd");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [16usize, 32, 64] {
        let rho = ctqw_density_infinite(&erdos_renyi(n, 0.25, 1)).unwrap();
        let sigma = ctqw_density_infinite(&erdos_renyi(n, 0.35, 2)).unwrap();
        group.bench_with_input(BenchmarkId::new("entropy", n), &rho, |b, r| {
            // The spectrum, not `von_neumann_entropy`: that memoises in the
            // state, so only its first call would pay the eigensolve.
            b.iter(|| entropy_of_spectrum(&r.spectrum().unwrap()));
        });
        group.bench_with_input(
            BenchmarkId::new("qjsd", n),
            &(rho.clone(), sigma),
            |b, (r, s)| {
                b.iter(|| qjsd(r, s).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ctqw_density, bench_entropy_and_qjsd);
criterion_main!(benches);
