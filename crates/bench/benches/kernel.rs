//! Kernel-path benchmarks: Gram-matrix construction, KCCA and KTCCA on the NUS-WIDE-like
//! small-sample setting (the cost panel of the paper's Figure 10).

use bench::methods::{experiment_spec, run_registered};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::{center_kernel, gram_matrix, nuswide_dataset, Kernel, NusWideConfig};
use linalg::Matrix;

fn kernels(n: usize) -> Vec<Matrix> {
    let data = nuswide_dataset(&NusWideConfig {
        n_instances: n,
        seed: 21,
        difficulty: 1.2,
    });
    data.views()
        .iter()
        .enumerate()
        .map(|(p, v)| {
            let kernel = if p == 0 {
                Kernel::ExpChiSquare
            } else {
                Kernel::ExpEuclidean
            };
            center_kernel(&gram_matrix(v, kernel))
        })
        .collect()
}

fn bench_gram_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_matrix");
    group.sample_size(10);
    let data = nuswide_dataset(&NusWideConfig {
        n_instances: 120,
        seed: 21,
        difficulty: 1.2,
    });
    group.bench_function("chi_square_500d", |b| {
        b.iter(|| gram_matrix(data.view(0), Kernel::ExpChiSquare))
    });
    group.bench_function("euclidean_144d", |b| {
        b.iter(|| gram_matrix(data.view(1), Kernel::ExpEuclidean))
    });
    group.finish();
}

fn bench_kernel_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_methods");
    group.sample_size(10);
    let ks = kernels(80);
    let spec = experiment_spec(5, 1e-1, 0, 8);
    for name in ["KCCA (BST)", "KTCCA"] {
        group.bench_with_input(
            BenchmarkId::new(name.replace(' ', "_"), 80),
            &ks,
            |b, ks| b.iter(|| run_registered(name, ks, &spec)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gram_construction, bench_kernel_methods);
criterion_main!(benches);
