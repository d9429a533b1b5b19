//! Microbenchmarks for the host-side class-hypervector training loop —
//! the stage the accelerator cannot run and the bagging method targets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::{train_encoded, TrainConfig};

fn encoded_clusters(samples: usize, d: usize, classes: usize) -> (Matrix, Vec<usize>) {
    let mut rng = DetRng::new(13);
    let centers: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..d).map(|_| rng.next_normal()).collect())
        .collect();
    let mut m = Matrix::zeros(samples, d);
    let mut labels = Vec::with_capacity(samples);
    for s in 0..samples {
        let c = s % classes;
        labels.push(c);
        for (v, center) in m.row_mut(s).iter_mut().zip(&centers[c]) {
            *v = center + 0.4 * rng.next_normal();
        }
    }
    (m, labels)
}

fn bench_train_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc-train/one-pass");
    group.sample_size(10);
    // Width sweep: the quantity the bagging method shrinks (d' = d / M).
    for &d in &[512usize, 1024, 2048] {
        let (encoded, labels) = encoded_clusters(256, d, 10);
        let config = TrainConfig::new(d).with_iterations(1);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bench, _| {
            bench.iter(|| {
                train_encoded(black_box(&encoded), black_box(&labels), 10, &config).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_full_vs_bagged_width(c: &mut Criterion) {
    // The paper's operating point in miniature: one d=2048 model for 20
    // iterations vs four d=512 models for 6 iterations on 60% of data.
    let mut group = c.benchmark_group("hdc-train/full-vs-bagged");
    group.sample_size(10);
    let (encoded_full, labels) = encoded_clusters(200, 2048, 10);
    let full_config = TrainConfig::new(2048).with_iterations(20);
    group.bench_function("full-d2048-i20", |bench| {
        bench.iter(|| {
            train_encoded(
                black_box(&encoded_full),
                black_box(&labels),
                10,
                &full_config,
            )
            .unwrap()
        });
    });
    let (encoded_sub, sub_labels) = encoded_clusters(120, 512, 10);
    let sub_config = TrainConfig::new(512).with_iterations(6);
    group.bench_function("bagged-4x-d512-i6-a0.6", |bench| {
        bench.iter(|| {
            for _ in 0..4 {
                train_encoded(
                    black_box(&encoded_sub),
                    black_box(&sub_labels),
                    10,
                    &sub_config,
                )
                .unwrap();
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_train_iterations, bench_full_vs_bagged_width);
criterion_main!(benches);
