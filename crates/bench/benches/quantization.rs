//! Microbenchmarks for the int8 quantization substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hd_quant::lut::ActivationLut;
use hd_quant::{gemm as qgemm, PackedQuantizedMatrix, QuantParams, QuantizedMatrix};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;

fn bench_quantize_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant/quantize-matrix");
    group.sample_size(20);
    for &n in &[128usize, 512] {
        let mut rng = DetRng::new(19);
        let m = Matrix::random_normal(n, n, &mut rng);
        let params = QuantParams::from_min_max(-4.0, 4.0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| QuantizedMatrix::quantize(black_box(&m), params));
        });
    }
    group.finish();
}

fn bench_quantized_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant/int8-gemm");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let mut rng = DetRng::new(20);
        let a = QuantizedMatrix::quantize(
            &Matrix::random_normal(n, n, &mut rng),
            QuantParams::from_min_max(-4.0, 4.0).unwrap(),
        );
        let b = PackedQuantizedMatrix::quantize(
            &Matrix::random_normal(n, n, &mut rng),
            QuantParams::symmetric(4.0).unwrap(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| qgemm::matmul_dequantized(black_box(&a), black_box(&b)).unwrap());
        });
    }
    group.finish();
}

fn bench_lut_apply(c: &mut Criterion) {
    let input = QuantParams::from_min_max(-8.0, 8.0).unwrap();
    let output = QuantParams::from_min_max(-1.0, 1.0).unwrap();
    let lut = ActivationLut::tanh(input, output);
    let mut values = vec![0i8; 65_536];
    let mut rng = DetRng::new(21);
    for v in &mut values {
        *v = (rng.next_index(256) as i32 - 128) as i8;
    }
    c.bench_function("quant/tanh-lut-64k", |bench| {
        bench.iter(|| {
            let mut work = values.clone();
            lut.apply_slice(black_box(&mut work));
            work
        });
    });
}

fn bench_per_channel_gemm(c: &mut Criterion) {
    use hd_quant::per_channel::ChannelQuantizedMatrix;
    let mut group = c.benchmark_group("quant/per-channel-vs-per-tensor-gemm");
    group.sample_size(10);
    let mut rng = DetRng::new(22);
    let n = 128usize;
    let a = QuantizedMatrix::quantize(
        &Matrix::random_normal(n, n, &mut rng),
        QuantParams::from_min_max(-4.0, 4.0).unwrap(),
    );
    let w_f = Matrix::random_normal(n, n, &mut rng);
    let w_pt = PackedQuantizedMatrix::quantize(&w_f, QuantParams::symmetric(4.0).unwrap());
    let w_pc = ChannelQuantizedMatrix::quantize(&w_f).unwrap();
    group.bench_function("per-tensor-128", |bench| {
        bench.iter(|| qgemm::matmul_dequantized(black_box(&a), black_box(&w_pt)).unwrap());
    });
    group.bench_function("per-channel-128", |bench| {
        bench.iter(|| black_box(&w_pc).matmul_dequantized(black_box(&a)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_quantize_matrix,
    bench_quantized_gemm,
    bench_lut_apply,
    bench_per_channel_gemm
);
criterion_main!(benches);
