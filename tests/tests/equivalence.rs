//! Equivalence pins across the stack:
//!
//! * the simulated device's int8 datapath is bit-identical to the
//!   `wide-nn` reference executor, and exact against an `i64` scalar
//!   reference at the deepest reduction it accepts,
//! * the wide-NN interpretation of an HDC model is an identity, not an
//!   approximation,
//! * the merged bagging model equals the sub-model consensus,
//! * serialization round-trips preserve behaviour exactly.

use std::sync::Mutex;

use hd_bagging::{train_bagged, BaggingConfig};
use hd_quant::gemm::MAX_EXACT_DEPTH;
use hd_quant::{QuantParams, QuantizedMatrix};
use hd_tensor::rng::DetRng;
use hd_tensor::{kernels, Matrix};
use hdc::{Encoder, HdcModel, TrainConfig};
use hyperedge::wide_model;
use integration_tests::clustered_dataset;
use tpu_sim::{Device, DeviceConfig, SimError};
use wide_nn::{
    compile, serialize, Activation, CompiledModel, ModelBuilder, QuantStage, QuantizedModel,
    TargetSpec,
};

fn random_network(n: usize, d: usize, k: usize, seed: u64) -> (wide_nn::Model, Matrix) {
    let mut rng = DetRng::new(seed);
    let model = ModelBuilder::new(n)
        .fully_connected(Matrix::random_normal(n, d, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .fully_connected(Matrix::random_normal(d, k, &mut rng))
        .unwrap()
        .build()
        .unwrap();
    let batch = Matrix::random_normal(32, n, &mut rng);
    (model, batch)
}

#[test]
fn device_bit_exact_with_reference_across_shapes() {
    // Shapes straddling the 64-wide systolic tile boundary.
    for (i, &(n, d, k)) in [(20, 96, 5), (64, 64, 64), (65, 130, 7), (128, 513, 26)]
        .iter()
        .enumerate()
    {
        let (model, batch) = random_network(n, d, k, 100 + i as u64);
        let compiled = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
        let reference = compiled.quantized().clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (device_out, _) = device.invoke(&batch).unwrap();
        let ref_out = reference.forward(&batch).unwrap();
        assert_eq!(device_out, ref_out, "shape ({n}, {d}, {k}) diverged");
    }
}

#[test]
fn device_bit_exact_under_chunked_invocation() {
    let (model, batch) = random_network(48, 200, 8, 7);
    let compiled = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
    let reference = compiled.quantized().clone();
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    for chunk in [1usize, 5, 32] {
        let (out, _) = device.invoke_chunked(&batch, chunk).unwrap();
        assert_eq!(out, reference.forward(&batch).unwrap(), "chunk {chunk}");
    }
}

/// One `k`-deep, 17-wide fully-connected stage whose centred operands are
/// all -255: inputs quantize to -128 against zero point 127, and so do
/// the weights. Output steps of 2^25 keep the worst-case sum mid-range.
fn worst_case_fc(k: usize) -> (CompiledModel, Matrix) {
    let n = 17; // one full 16-lane SIMD block plus a 1-wide tail
    let zero_127 = QuantParams::from_raw(1.0, 127).unwrap();
    let weights = QuantizedMatrix::from_raw(k, n, vec![-128; k * n], zero_127);
    let out_params = QuantParams::from_raw(33_554_432.0, 0).unwrap();
    let stages = vec![QuantStage::FullyConnected {
        weights,
        out_params,
    }];
    let model = QuantizedModel::from_parts(k, n, zero_127, stages).unwrap();
    let compiled = CompiledModel::from_quantized(model, &TargetSpec::default()).unwrap();
    (compiled, Matrix::from_fn(2, k, |_, _| -255.0))
}

/// The exact `i64` sum of centred products for a single-FC model, then
/// the same requantize/dequantize the datapath applies. Panics if the
/// sum leaves `i32`, which the depth bound rules out.
fn i64_reference(model: &QuantizedModel, batch: &Matrix) -> (Vec<i32>, Matrix) {
    let input = model.quantize_input(batch).unwrap();
    let [QuantStage::FullyConnected {
        weights,
        out_params,
    }] = model.stages()
    else {
        panic!("expected a single fully-connected stage");
    };
    let za = i64::from(input.params().zero_point());
    let zb = i64::from(weights.params().zero_point());
    let (m, n) = (input.rows(), weights.cols());
    let mut acc = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let sum: i64 = (0..input.cols())
                .map(|p| (i64::from(input.row(i)[p]) - za) * (i64::from(weights.row(p)[j]) - zb))
                .sum();
            acc.push(i32::try_from(sum).expect("centred sum fits i32"));
        }
    }
    let scale = input.params().scale() * weights.params().scale();
    let data = acc
        .iter()
        .map(|&v| out_params.requantize_accumulator(v, scale))
        .collect();
    let output = QuantizedMatrix::from_raw(m, n, data, *out_params).dequantize();
    (acc, output)
}

/// Serializes the tests that flip the process-wide SIMD switch, so one
/// test's "off" phase is not switched back on by another.
static SIMD_SWITCH: Mutex<()> = Mutex::new(());

/// Invokes `device` with SIMD on and then off, checking the accumulator
/// and the device output against the `i64` reference both times.
fn assert_exact_with_and_without_simd(device: &Device, model: &QuantizedModel, batch: &Matrix) {
    let _switch = SIMD_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let (ref_acc, ref_out) = i64_reference(model, batch);
    let input = model.quantize_input(batch).unwrap();
    let QuantStage::FullyConnected { weights, .. } = &model.stages()[0] else {
        unreachable!("checked by i64_reference");
    };
    for simd in [true, false] {
        kernels::set_simd_enabled(simd);
        let before = kernels::stats();
        let (acc, _) = hd_quant::gemm::matmul_accumulate(&input, weights).unwrap();
        let device_out = device.invoke(batch).map(|(out, _)| out);
        let portable_calls = kernels::stats().delta_since(&before).portable_gemm_calls;
        kernels::set_simd_enabled(true);
        if !simd {
            assert!(
                portable_calls >= 2,
                "SIMD-off phase missed the portable kernel"
            );
        }
        assert_eq!(acc, ref_acc, "accumulator, simd {simd}");
        assert_eq!(device_out.unwrap(), ref_out, "device output, simd {simd}");
    }
}

#[test]
fn deepest_accepted_reduction_is_exact_at_worst_case_operands() {
    let (compiled, batch) = worst_case_fc(MAX_EXACT_DEPTH);
    let model = compiled.quantized().clone();
    assert!(model
        .quantize_input(&batch)
        .unwrap()
        .as_slice()
        .iter()
        .all(|&q| q == -128));
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    let (ref_acc, _) = i64_reference(&model, &batch);
    assert!(ref_acc.iter().all(|&v| i64::from(v) == 33_025 * 65_025));
    assert_exact_with_and_without_simd(&device, &model, &batch);
}

#[test]
fn fault_flipped_weights_stay_exact_at_the_depth_bound() {
    let (compiled, batch) = worst_case_fc(MAX_EXACT_DEPTH);
    let mut model = compiled.quantized().clone();
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    // The same seeded flips on the resident weights and on the reference.
    let rate = 0.3;
    let flipped = device
        .inject_weight_faults(rate, &mut DetRng::new(99))
        .unwrap();
    assert_eq!(
        model.inject_weight_faults(rate, &mut DetRng::new(99)),
        flipped
    );
    assert!(flipped > 0);
    assert_exact_with_and_without_simd(&device, &model, &batch);
}

#[test]
fn reduction_past_the_depth_bound_is_rejected_at_load() {
    let device = Device::new(DeviceConfig::default());
    let (resident, batch) = worst_case_fc(8);
    device.load_model(resident).unwrap();
    let (too_deep, _) = worst_case_fc(MAX_EXACT_DEPTH + 1);
    assert_eq!(
        device.load_model(too_deep).unwrap_err(),
        SimError::AccumulatorDepth {
            depth: MAX_EXACT_DEPTH + 1,
            max: MAX_EXACT_DEPTH,
        }
    );
    // The previous model stays resident and serves.
    assert!(device.invoke(&batch).is_ok());
}

#[test]
fn wide_nn_interpretation_is_an_identity() {
    let (features, labels) = clustered_dataset(30, 16, 3, 0.4, 41);
    let config = TrainConfig::new(512).with_iterations(5).with_seed(42);
    let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
    let network = wide_model::inference_network(&model).unwrap();
    let gap = wide_model::interpretation_gap(&model, &network, &features).unwrap();
    assert!(gap < 1e-3, "interpretation gap {gap}");
}

#[test]
fn merged_bagging_model_equals_consensus_everywhere() {
    let (features, labels) = clustered_dataset(40, 20, 4, 0.5, 43);
    let config = BaggingConfig::paper_defaults(768)
        .with_sub_models(3)
        .with_sub_dim(256)
        .with_seed(44);
    let (bagged, _) = train_bagged(&features, &labels, 4, &config).unwrap();
    let merged = bagged.merge().unwrap();
    assert_eq!(
        merged.predict(&features).unwrap(),
        bagged.predict_consensus(&features).unwrap()
    );
}

#[test]
fn merged_model_with_feature_sampling_still_equals_consensus() {
    let (features, labels) = clustered_dataset(40, 30, 3, 0.5, 45);
    let config = BaggingConfig::paper_defaults(512)
        .with_feature_ratio(0.5)
        .with_seed(46);
    let (bagged, _) = train_bagged(&features, &labels, 3, &config).unwrap();
    let merged = bagged.merge().unwrap();
    assert_eq!(
        merged.predict(&features).unwrap(),
        bagged.predict_consensus(&features).unwrap()
    );
}

#[test]
fn serialized_model_behaves_identically_on_device() {
    let (model, batch) = random_network(32, 128, 6, 47);

    // Float container round-trip.
    let restored = serialize::read_model(&serialize::write_model(&model)).unwrap();
    assert_eq!(restored, model);

    // Quantized container round-trip, then run both on devices.
    let qmodel = QuantizedModel::quantize(&model, &batch).unwrap();
    let q_restored =
        serialize::read_quantized_model(&serialize::write_quantized_model(&qmodel)).unwrap();
    assert_eq!(
        q_restored.forward(&batch).unwrap(),
        qmodel.forward(&batch).unwrap()
    );

    let compiled_a = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
    let compiled_b = compile::compile(&restored, &batch, &TargetSpec::default()).unwrap();
    let dev_a = Device::new(DeviceConfig::default());
    let dev_b = Device::new(DeviceConfig::default());
    dev_a.load_model(compiled_a).unwrap();
    dev_b.load_model(compiled_b).unwrap();
    assert_eq!(
        dev_a.invoke(&batch).unwrap().0,
        dev_b.invoke(&batch).unwrap().0
    );
}

#[test]
fn update_graph_rejected_by_device_compiler_but_runs_on_host_semantics() {
    // The co-design dichotomy in one test: the update op cannot lower to
    // the accelerator, while the host applies the same semantics through
    // hd_tensor::ops::axpy.
    let graph = wide_model::update_graph(64, 0.5).unwrap();
    let err = compile::compile(&graph, &Matrix::zeros(2, 64), &TargetSpec::default()).unwrap_err();
    assert!(matches!(err, wide_nn::NnError::UnsupportedOp { .. }));

    let mut class_hv = vec![1.0f32; 64];
    let encoded = vec![2.0f32; 64];
    hd_tensor::ops::axpy(0.5, &encoded, &mut class_hv).unwrap();
    assert!(class_hv.iter().all(|&v| v == 2.0));
}

#[test]
fn encoder_network_and_hdc_encoder_agree_through_quantization() {
    // Quantized encoding (the TPU path) stays close to float encoding in
    // cosine similarity, which is all HDC classification consumes.
    let mut rng = DetRng::new(48);
    let encoder = hdc::NonlinearEncoder::new(hdc::BaseHypervectors::generate(24, 512, &mut rng));
    let batch = Matrix::random_normal(16, 24, &mut rng);

    let float_encoded = encoder.encode(&batch).unwrap();
    let network = wide_model::encoder_network(&encoder).unwrap();
    let compiled = compile::compile(&network, &batch, &TargetSpec::default()).unwrap();
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    let (device_encoded, _) = device.invoke(&batch).unwrap();

    for r in 0..batch.rows() {
        let cos = hd_tensor::ops::cosine(float_encoded.row(r), device_encoded.row(r)).unwrap();
        assert!(cos > 0.98, "row {r}: cosine {cos} too low");
    }
}
