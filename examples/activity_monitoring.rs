//! Activity monitoring at the edge: a UCIHAR-shaped workload (561
//! wearable-sensor features, 12 activity classes) trained with the
//! co-designed pipeline, including an adaptation phase that updates the
//! model to a drifted sensor distribution without full retraining —
//! the kind of model-update dynamics the paper's introduction motivates
//! for IoT deployments.
//!
//! Run with:
//!
//! ```text
//! cargo run -p hyperedge-examples --bin activity_monitoring --release
//! ```

use hd_datasets::{registry, SampleBudget};
use hd_tensor::rng::DetRng;
use hdc::{eval, train_encoded_warm, Encoder, HdcModel, TrainConfig};
use hyperedge::{ExecutionSetting, Pipeline, PipelineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = registry::by_name("ucihar").expect("ucihar is registered");
    let mut data = spec.generate(
        SampleBudget::Reduced {
            train: 480,
            test: 240,
        },
        7,
    )?;
    data.normalize();

    println!("== phase 1: co-designed training on the accelerator ==");
    let config = PipelineConfig::new(2048).with_iterations(8).with_seed(3);
    let pipeline = Pipeline::new(config);
    let outcome = pipeline.train(
        &data.train.features,
        &data.train.labels,
        data.classes,
        ExecutionSetting::Tpu,
    )?;
    let report = pipeline.evaluate(&outcome, &data.test.features, &data.test.labels)?;
    println!(
        "trained {} classes at d = {}; test accuracy {:.1}%",
        data.classes,
        outcome.model.dim(),
        100.0 * report.accuracy
    );
    println!(
        "training runtime: encode {:.4}s (device) + update {:.4}s (host) + model-gen {:.4}s",
        outcome.runtime.encode_s, outcome.runtime.update_s, outcome.runtime.model_gen_s
    );

    println!("\n== phase 2: sensors drift; adapt on the host ==");
    // Simulate a deployment drift: a fixed offset on a third of the
    // features (a re-mounted wearable, say).
    let mut rng = DetRng::new(99);
    let drift: Vec<f32> = (0..data.feature_count())
        .map(|f| {
            if f % 3 == 0 {
                0.8 + 0.1 * rng.next_normal()
            } else {
                0.0
            }
        })
        .collect();
    let mut drifted_test = data.test.features.clone();
    for r in 0..drifted_test.rows() {
        for (v, d) in drifted_test.row_mut(r).iter_mut().zip(&drift) {
            *v += d;
        }
    }
    let before = eval::accuracy(&outcome.model.predict(&drifted_test)?, &data.test.labels)?;
    println!(
        "accuracy on drifted data before adaptation: {:.1}%",
        100.0 * before
    );

    // Adaptation: one perceptron pass over a small drifted calibration
    // set, seeded from the deployed class hypervectors.
    let adapt_count = 200.min(data.train.features.rows());
    let mut drifted_train = data.train.features.slice_rows(0, adapt_count)?;
    for r in 0..drifted_train.rows() {
        for (v, d) in drifted_train.row_mut(r).iter_mut().zip(&drift) {
            *v += d;
        }
    }
    let encoder = outcome.model.encoder();
    let (classes, _) = train_encoded_warm(
        &encoder.encode(&drifted_train)?,
        &data.train.labels[..adapt_count],
        outcome.model.classes().clone(),
        &TrainConfig::new(outcome.model.dim()).with_iterations(1),
        None,
    )?;
    let adapted = HdcModel::from_parts(encoder.clone(), classes)?;
    let after = eval::accuracy(&adapted.predict(&drifted_test)?, &data.test.labels)?;
    println!(
        "accuracy on drifted data after one pass over {} samples: {:.1}%",
        adapt_count,
        100.0 * after
    );
    println!(
        "\nadaptation touched only the class hypervectors — the host-side\n\
         update the Edge TPU cannot run, which is exactly why the co-design keeps it on the CPU."
    );
    Ok(())
}
