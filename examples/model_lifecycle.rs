//! The full model lifecycle, end to end: train an HDC model, interpret
//! it as a hyper-wide NN (the paper's Fig. 2), serialize it to the
//! `.wnn` container, quantize it, compile it for the accelerator target,
//! load it on the simulated device, and verify that the device's int8
//! predictions match the reference executor bit for bit.
//!
//! Run with:
//!
//! ```text
//! cargo run -p hyperedge-examples --bin model_lifecycle --release
//! ```

use hd_datasets::{registry, SampleBudget};
use hdc::{HdcModel, TrainConfig};
use hyperedge::wide_model;
use tpu_sim::timing::ModelDims;
use tpu_sim::{Device, DeviceConfig, SystolicArray};
use wide_nn::{compile, serialize, QuantizedModel, TargetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train.
    let spec = registry::by_name("face").expect("face is registered");
    let mut data = spec.generate(
        SampleBudget::Reduced {
            train: 300,
            test: 100,
        },
        21,
    )?;
    data.normalize();
    let config = TrainConfig::new(1024).with_iterations(8).with_seed(22);
    let (model, _) = HdcModel::fit(
        &data.train.features,
        &data.train.labels,
        data.classes,
        &config,
    )?;
    println!(
        "1. trained HDC model: {} features -> d = {} -> {} classes",
        model.feature_count(),
        model.dim(),
        model.class_count()
    );

    // 2. Interpret as a wide NN and check the interpretation is an
    //    identity, not an approximation.
    let network = wide_model::inference_network(&model)?;
    let gap = wide_model::interpretation_gap(&model, &network, &data.test.features)?;
    println!(
        "2. wide-NN interpretation: {} parameters, max score gap {gap:.2e}",
        network.param_count()
    );

    // 3. Serialize the float model (the host's "TFLite file").
    let blob = serialize::write_model(&network);
    let restored = serialize::read_model(&blob)?;
    assert_eq!(restored, network);
    println!(
        "3. serialized .wnn container: {} bytes, exact roundtrip",
        blob.len()
    );

    // 4. Post-training int8 quantization + the quantized container.
    let qmodel = QuantizedModel::quantize(&network, &data.train.features)?;
    let qblob = serialize::write_quantized_model(&qmodel);
    println!(
        "4. int8 quantization: {} parameter bytes ({}x smaller), container {} bytes",
        qmodel.param_bytes(),
        network.param_count() * 4 / qmodel.param_bytes().max(1),
        qblob.len()
    );

    // 5. Compile for the accelerator target.
    let compiled = compile::compile(&network, &data.train.features, &TargetSpec::default())?;
    let target = compiled.target();
    let array = SystolicArray::new(target.array_rows, target.array_cols);
    let fc_layers = ModelDims::from_compiled(&compiled).fc_layers;
    println!(
        "5. compiled for {}: {} FC layers, {} weight tiles total",
        target.name,
        fc_layers.len(),
        fc_layers
            .iter()
            .map(|&(k, n)| array.tiles_k(k) * array.tiles_n(n))
            .sum::<usize>()
    );

    // 6. Load and run on the simulated device.
    let device = Device::new(DeviceConfig::default());
    let load = device.load_model(compiled)?;
    println!(
        "6. loaded onto device: {} bytes in {:.3} ms (one-time)",
        load.param_bytes,
        load.total_s * 1e3
    );

    let (device_scores, stats) = device.invoke_overlapped(&data.test.features)?;
    let reference_scores = qmodel.forward(&data.test.features)?;
    assert_eq!(device_scores, reference_scores);
    println!(
        "7. device invocation: {} samples in {:.3} ms modeled time; \
              output bit-identical to the int8 reference executor",
        stats.samples,
        stats.total_s * 1e3
    );

    // 8. Accuracy through the full int8 path vs the float path.
    let mut correct_f32 = 0usize;
    let mut correct_i8 = 0usize;
    for (r, &label) in data.test.labels.iter().enumerate() {
        let float_pred = model.predict(&data.test.features.slice_rows(r, r + 1)?)?[0];
        let int8_pred = hd_tensor::ops::argmax(device_scores.row(r))?;
        correct_f32 += usize::from(float_pred == label);
        correct_i8 += usize::from(int8_pred == label);
    }
    println!(
        "8. accuracy: {:.1}% (f32 host) vs {:.1}% (int8 device) on {} test samples",
        100.0 * correct_f32 as f64 / data.test.len() as f64,
        100.0 * correct_i8 as f64 / data.test.len() as f64,
        data.test.len()
    );
    Ok(())
}
