//! Equivalence suite for the pipelined execution schedules.
//!
//! Pipelining is a pure *scheduling* optimisation, so every overlapped
//! path must be bit-exact with its sequential counterpart — the only
//! thing allowed to change is time:
//!
//! * chunked [`tpu_sim::Device::invoke_overlapped`] calls reproduce the
//!   reference executor's outputs exactly while the device's timing
//!   ledger obeys the critical-path invariants (property-tested over
//!   batch rows, chunk size, and data seed),
//! * the GEMM-batched scorer ([`hdc::predict_batch`]) agrees with the
//!   per-sample scalar argmax,
//! * the hybrid backend's chunked device encode followed by the host
//!   update stays bit-exact under injected transient faults.

use proptest::prelude::*;

use hd_tensor::rng::DetRng;
use hd_tensor::{ops, Matrix};
use hdc::{BaseHypervectors, Executor, HdcModel, NonlinearEncoder, TrainConfig};
use hyperedge::{
    ExecutionBackend, ExecutionSetting, Pipeline, PipelineConfig, Supervision, TwoDeviceServer,
};
use integration_tests::{clustered_dataset, invoke_in_chunks};
use tpu_sim::{Device, DeviceConfig, FaultConfig, InvokeStats};
use wide_nn::{compile, Activation, ModelBuilder, TargetSpec};

const CLASSES: usize = 3;

/// A device with a compiled encoder network loaded, a batch to drive it
/// with, and the reference executor's output for that batch.
fn loaded_device(features: usize, dim: usize, rows: usize, seed: u64) -> (Device, Matrix, Matrix) {
    let mut rng = DetRng::new(seed);
    let network = ModelBuilder::new(features)
        .fully_connected(Matrix::random_normal(features, dim, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .build()
        .unwrap();
    let batch = Matrix::random_normal(rows, features, &mut rng);
    let compiled = compile::compile(&network, &batch, &TargetSpec::default()).unwrap();
    let reference = compiled.quantized().forward(&batch).unwrap();
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    (device, batch, reference)
}

proptest! {
    // Each case runs two functional int8 sweeps; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over arbitrary (rows, chunk, seed): chunked double-buffered
    /// invocations are bit-exact with the reference executor, and the
    /// ledger beats the same legs run back to back while obeying the
    /// critical-path timing invariants.
    #[test]
    fn prop_pipelined_invoke_is_bit_exact_and_faster(
        rows in 1usize..40,
        chunk in 1usize..16,
        seed in 0u64..500,
    ) {
        let (device, batch, reference) = loaded_device(12, 64, rows, seed);
        let (out, stats) = invoke_in_chunks(&device, &batch, chunk).unwrap();
        prop_assert_eq!(out, reference);

        let piped = device.ledger();
        // The ledger charged exactly the returned invocations' legs...
        prop_assert_eq!(piped.invocations, stats.len() as u64);
        prop_assert_eq!(piped.samples, rows as u64);
        let leg_sum = |leg: fn(&InvokeStats) -> f64| stats.iter().map(leg).sum::<f64>();
        prop_assert!((piped.compute_s - leg_sum(|s| s.compute_s)).abs() < 1e-15);
        let transfer = leg_sum(|s| s.input_transfer_s + s.output_transfer_s);
        prop_assert!((piped.transfer_s - transfer).abs() < 1e-15);
        prop_assert!((piped.overhead_s - leg_sum(|s| s.overhead_s)).abs() < 1e-15);
        // ...in less elapsed time than running them back to back, bounded
        // below by the critical path.
        let serial = leg_sum(InvokeStats::serial_elapsed_s);
        prop_assert!(piped.total_s <= piped.load_s + serial + 1e-15);
        let floor = piped.load_s
            + piped.overhead_s
            + piped.compute_s.max(piped.transfer_s);
        prop_assert!(piped.total_s + 1e-15 >= floor);
        // The elapsed time decomposes along the critical path.
        prop_assert!(
            (piped.total_s - piped.load_s - piped.overhead_s - piped.compute_s
                - piped.exposed_transfer_s())
                .abs()
                < 1e-12
        );
    }

    /// The batched GEMM scorer agrees with the scalar per-sample argmax.
    #[test]
    fn prop_gemm_scoring_matches_scalar_argmax(seed in 0u64..500, rows in 1usize..40) {
        let mut rng = DetRng::new(seed);
        let encoded = Matrix::random_normal(rows, 64, &mut rng);
        // `ClassHypervectors` stores the transposed `d x k` layout.
        let classes = Matrix::random_normal(64, CLASSES, &mut rng);
        let class_hvs = hdc::ClassHypervectors::from_matrix(classes.clone());

        let batched = hdc::predict_batch(&class_hvs, &encoded).unwrap();
        for (r, &predicted) in batched.iter().enumerate() {
            let scores: Vec<f32> = (0..CLASSES)
                .map(|c| ops::dot(encoded.row(r), &classes.col(c).unwrap()).unwrap())
                .collect();
            prop_assert_eq!(predicted, ops::argmax(&scores).unwrap());
        }
    }
}

/// Injected transient faults retry to bit-exactness through the hybrid
/// backend's supervised invoke schedule: device encode, then the host
/// update, matches the fault-free run with no host fallback.
#[test]
fn hybrid_training_with_transient_faults_stays_bit_exact() {
    let (features, labels) = clustered_dataset(16, 10, CLASSES, 0.4, 31);
    let mut rng = DetRng::new(32);
    let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 128, &mut rng));
    let train = TrainConfig::new(128).with_iterations(3).with_seed(33);
    let encode_train = |pipeline: &Pipeline| {
        let hybrid = pipeline.backends().hybrid();
        let encoded = hybrid.encode_batch(&encoder, &features).unwrap();
        hybrid
            .train_classes(&encoded, &labels, CLASSES, &train)
            .unwrap()
    };

    let clean = Pipeline::new(PipelineConfig::new(128).with_batches(8, 8));
    let (expected, expected_stats) = encode_train(&clean);

    let mut cfg = PipelineConfig::new(128)
        .with_batches(8, 8)
        .with_supervision(Supervision::retries(8, 2e-3, 2.0))
        .with_quarantine_threshold(9);
    cfg.device.fault = FaultConfig::default()
        .with_seed(0xFA17)
        .with_transient_rate(0.35);
    let faulted = Pipeline::new(cfg);
    let (classes, stats) = encode_train(&faulted);

    assert_eq!(
        classes.as_matrix(),
        expected.as_matrix(),
        "retried faults must not leak into the trained numerics"
    );
    assert_eq!(stats, expected_stats);
    let ledger = faulted.backends().hybrid().ledger();
    assert!(ledger.faults_observed > 0, "the chaos schedule never fired");
    assert_eq!(ledger.retries, ledger.faults_observed);
    assert_eq!(ledger.fallbacks, 0);
}

/// The two-device serving schedule — born as a declared SDF graph and
/// executed by the generic runtime, never hand-threaded — is bit-exact
/// with its sequential reference, and its measured wall-clock equals the
/// prediction computed from the declaration alone.
#[test]
fn two_device_serving_is_bit_exact_and_matches_declared_prediction() {
    let (features, labels) = clustered_dataset(30, 10, CLASSES, 0.5, 51);
    let train = TrainConfig::new(256).with_iterations(3).with_seed(52);
    let (model, _) = HdcModel::fit(&features, &labels, CLASSES, &train).unwrap();
    // Chunk 16 over 90 rows: five full chunks plus a partial tail, the
    // case where the bottleneck device can flip mid-batch.
    let config = PipelineConfig::new(256).with_batches(64, 16);

    let pipelined = TwoDeviceServer::new(&model, &config, &features).unwrap();
    let reference = TwoDeviceServer::new(&model, &config, &features).unwrap();
    let got = pipelined.predict(&features).unwrap();
    let expected = reference.predict_sequential(&features).unwrap();
    assert_eq!(got, expected);
    assert_eq!(got.len(), features.rows());

    let predicted = pipelined.predicted_elapsed_s(features.rows()).unwrap();
    let measured = pipelined.measured_elapsed_s();
    assert!(
        (measured - predicted).abs() < 1e-12,
        "measured {measured} vs predicted {predicted}"
    );
    // The overlap is real: the pipelined wall-clock (bottleneck device)
    // beats the serial sum of both devices' busy time.
    let serial_sum =
        reference.encode_device().ledger().total_s + reference.score_device().ledger().total_s;
    assert!(measured < serial_sum, "{measured} vs serial {serial_sum}");
}

/// End-to-end: a full `Pipeline::train` on the CPU setting with a thread
/// budget produces the identical model to the sequential budget.
#[test]
fn threaded_pipeline_training_is_bit_exact() {
    let (features, labels) = clustered_dataset(14, 8, CLASSES, 0.5, 41);
    let outcome = |threads: usize| {
        let p = Pipeline::new(
            PipelineConfig::new(256)
                .with_iterations(3)
                .with_seed(42)
                .with_threads(threads),
        );
        p.train(&features, &labels, CLASSES, ExecutionSetting::CpuBaseline)
            .unwrap()
    };
    let sequential = outcome(1);
    let threaded = outcome(3);
    assert_eq!(sequential.model, threaded.model);
    assert_eq!(sequential.telemetry, threaded.telemetry);
}
