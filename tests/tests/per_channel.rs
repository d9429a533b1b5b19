//! Per-channel quantization through the whole stack: compiled model on
//! the device matches the reference executor, and the pipeline still
//! classifies.

use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use integration_tests::clustered_dataset;
use tpu_sim::{Device, DeviceConfig};
use wide_nn::{compile, Activation, ModelBuilder, QuantizedModel, TargetSpec};

fn skewed_network(seed: u64) -> (wide_nn::Model, Matrix) {
    let mut rng = DetRng::new(seed);
    let w1 = Matrix::random_normal(16, 96, &mut rng);
    // Output columns with wildly different magnitudes.
    let w2 = Matrix::from_fn(96, 6, |_, c| {
        10f32.powi(c as i32 % 3 - 1) * rng.next_normal()
    });
    let model = ModelBuilder::new(16)
        .fully_connected(w1)
        .unwrap()
        .activation(Activation::Tanh)
        .fully_connected(w2)
        .unwrap()
        .build()
        .unwrap();
    let batch = Matrix::random_normal(20, 16, &mut rng);
    (model, batch)
}

#[test]
fn per_channel_compiled_model_matches_reference_on_device() {
    let (model, batch) = skewed_network(1);
    let compiled = compile::compile_per_channel(&model, &batch, &TargetSpec::default()).unwrap();
    let reference = compiled.quantized().clone();
    assert!(matches!(
        reference.stages()[0],
        wide_nn::QuantStage::FullyConnectedPerChannel { .. }
    ));
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    let (device_out, stats) = device.invoke_overlapped(&batch).unwrap();
    let ref_out = reference.forward(&batch).unwrap();
    assert_eq!(device_out, ref_out);
    assert!(stats.compute_cycles > 0);
}

#[test]
fn per_channel_and_per_tensor_device_paths_both_classify() {
    let (features, labels) = clustered_dataset(30, 16, 3, 0.4, 2);
    let config = hdc::TrainConfig::new(512).with_iterations(5).with_seed(3);
    let (hdc_model, _) = hdc::HdcModel::fit(&features, &labels, 3, &config).unwrap();
    let network = hyperedge::wide_model::inference_network(&hdc_model).unwrap();

    for per_channel in [false, true] {
        let compiled = if per_channel {
            compile::compile_per_channel(&network, &features, &TargetSpec::default()).unwrap()
        } else {
            compile::compile(&network, &features, &TargetSpec::default()).unwrap()
        };
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (scores, _) = device.invoke_overlapped(&features).unwrap();
        let mut correct = 0usize;
        for (r, &label) in labels.iter().enumerate() {
            if hd_tensor::ops::argmax(scores.row(r)).unwrap() == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / labels.len() as f64;
        assert!(acc > 0.9, "per_channel={per_channel}: accuracy {acc}");
    }
}

#[test]
fn per_channel_costs_the_same_device_time() {
    // Per-channel scales live in the output stage; the MXU streaming cost
    // is identical, so the timing model must charge the same cycles.
    let (model, batch) = skewed_network(4);
    let pt = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
    let pc = compile::compile_per_channel(&model, &batch, &TargetSpec::default()).unwrap();

    let dev_pt = Device::new(DeviceConfig::default());
    let dev_pc = Device::new(DeviceConfig::default());
    dev_pt.load_model(pt).unwrap();
    dev_pc.load_model(pc).unwrap();
    let (_, stats_pt) = dev_pt.invoke_overlapped(&batch).unwrap();
    let (_, stats_pc) = dev_pc.invoke_overlapped(&batch).unwrap();
    assert_eq!(stats_pt.compute_cycles, stats_pc.compute_cycles);
}

#[test]
fn per_channel_quantizer_is_deterministic_and_serializable() {
    let (model, batch) = skewed_network(5);
    let a = QuantizedModel::quantize_per_channel(&model, &batch).unwrap();
    let b = QuantizedModel::quantize_per_channel(&model, &batch).unwrap();
    assert_eq!(a, b);
    let blob = wide_nn::serialize::write_quantized_model(&a);
    let restored = wide_nn::serialize::read_quantized_model(&blob).unwrap();
    assert_eq!(
        restored.forward(&batch).unwrap(),
        a.forward(&batch).unwrap()
    );
}
