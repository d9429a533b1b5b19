//! Microbenchmarks for the simulated accelerator: functional invocation
//! cost of the device datapath (shared int8 GEMM plus device bookkeeping)
//! versus the plain reference executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use tpu_sim::{Device, DeviceConfig};
use wide_nn::{compile, Activation, ModelBuilder, QuantizedModel, TargetSpec};

fn build(n: usize, d: usize, k: usize) -> (wide_nn::Model, Matrix) {
    let mut rng = DetRng::new(11);
    let model = ModelBuilder::new(n)
        .fully_connected(Matrix::random_normal(n, d, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .fully_connected(Matrix::random_normal(d, k, &mut rng))
        .unwrap()
        .build()
        .unwrap();
    let batch = Matrix::random_normal(16, n, &mut rng);
    (model, batch)
}

fn bench_device_invoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("device/invoke-batch16");
    group.sample_size(10);
    for &d in &[512usize, 1024, 2048] {
        let (model, batch) = build(128, d, 10);
        let compiled = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bench, _| {
            bench.iter(|| device.invoke(black_box(&batch)).unwrap());
        });
    }
    group.finish();
}

fn bench_reference_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("device/reference-executor");
    group.sample_size(10);
    let (model, batch) = build(128, 1024, 10);
    let qmodel = QuantizedModel::quantize(&model, &batch).unwrap();
    group.bench_function("int8-forward", |bench| {
        bench.iter(|| qmodel.forward(black_box(&batch)).unwrap());
    });
    group.bench_function("f32-forward", |bench| {
        bench.iter(|| model.forward(black_box(&batch)).unwrap());
    });
    group.finish();
}

fn bench_model_load(c: &mut Criterion) {
    let (model, batch) = build(128, 1024, 10);
    let compiled = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
    let device = Device::new(DeviceConfig::default());
    c.bench_function("device/load-model-128x1024x10", |bench| {
        bench.iter(|| device.load_model(black_box(compiled.clone())).unwrap());
    });
}

criterion_group!(
    benches,
    bench_device_invoke,
    bench_reference_executor,
    bench_model_load
);
criterion_main!(benches);
