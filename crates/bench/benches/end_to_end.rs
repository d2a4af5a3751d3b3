//! End-to-end fit benchmarks: every compared linear method on a SecStr-like dataset,
//! swept over the subspace dimension. This regenerates the *time* panels of the paper's
//! Figures 7–9 in Criterion form (the `experiments figN` binary prints the same numbers
//! as plain tables).

use bench::methods::{experiment_spec, run_registered};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::{secstr_dataset, SecStrConfig};

fn bench_linear_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_methods_secstr");
    group.sample_size(10);
    let data = secstr_dataset(&SecStrConfig {
        n_instances: 300,
        seed: 11,
        difficulty: 0.8,
    });
    let spec = experiment_spec(10, 1e-2, 0, 10);
    for name in ["CCA (BST)", "CCA-LS", "DSE", "SSMVD", "TCCA"] {
        group.bench_with_input(
            BenchmarkId::new(name.replace(' ', "_"), 10),
            &data,
            |b, data| b.iter(|| run_registered(name, data.views(), &spec)),
        );
    }
    group.finish();
}

fn bench_tcca_dimension_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcca_dimension_sweep_secstr");
    group.sample_size(10);
    let data = secstr_dataset(&SecStrConfig {
        n_instances: 300,
        seed: 11,
        difficulty: 0.8,
    });
    for rank in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, &r| {
            b.iter(|| run_registered("TCCA", data.views(), &experiment_spec(r, 1e-2, 0, 10)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_linear_methods, bench_tcca_dimension_sweep);
criterion_main!(benches);
