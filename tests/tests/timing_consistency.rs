//! Consistency pins between the functional device and the closed-form
//! timing models, plus sanity properties of the runtime models themselves
//! at paper scale.

use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hyperedge::runtime::{self, UpdateProfile, WorkloadSpec};
use hyperedge::{ExecutionSetting, PipelineConfig};
use integration_tests::invoke_in_chunks;
use tpu_sim::timing::{self, ModelDims};
use tpu_sim::{Device, DeviceConfig};
use wide_nn::{compile, Activation, ModelBuilder, TargetSpec};

fn compiled(n: usize, d: usize, k: usize, seed: u64) -> (wide_nn::CompiledModel, Matrix) {
    let mut rng = DetRng::new(seed);
    let model = ModelBuilder::new(n)
        .fully_connected(Matrix::random_normal(n, d, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .fully_connected(Matrix::random_normal(d, k, &mut rng))
        .unwrap()
        .build()
        .unwrap();
    let batch = Matrix::random_normal(24, n, &mut rng);
    let c = compile::compile(&model, &batch, &TargetSpec::default()).unwrap();
    (c, batch)
}

#[test]
fn device_invoke_time_equals_analytic_estimate() {
    let (model, batch) = compiled(40, 160, 6, 1);
    let dims = ModelDims::from_compiled(&model);
    let cfg = DeviceConfig::default();
    let device = Device::new(cfg.clone());
    device.load_model(model).unwrap();
    let (_, stats) = device.invoke_overlapped(&batch).unwrap();
    assert_eq!(stats, timing::stage_costs(&cfg, &dims, batch.rows()));
}

#[test]
fn chunked_ledger_matches_batched_formula() {
    let (model, batch) = compiled(32, 96, 4, 2);
    let dims = ModelDims::from_compiled(&model);
    let cfg = DeviceConfig::default();
    let device = Device::new(cfg.clone());
    device.load_model(model).unwrap();
    device.reset_ledger();
    let chunk = 7;
    invoke_in_chunks(&device, &batch, chunk).unwrap();
    let ledger = device.ledger();
    let expected = timing::chunked_s(batch.rows(), chunk, |rows| {
        timing::stage_costs(&cfg, &dims, rows).total_s
    });
    assert!(
        (ledger.total_s - expected).abs() < 1e-12,
        "ledger {} vs formula {}",
        ledger.total_s,
        expected
    );
}

#[test]
fn runtime_scales_linearly_in_samples() {
    let config = PipelineConfig::new(10_000);
    let profile = UpdateProfile::geometric(20, 0.5, 0.75);
    let base = WorkloadSpec {
        train_samples: 10_000,
        test_samples: 1_000,
        features: 617,
        classes: 26,
    };
    let double = WorkloadSpec {
        train_samples: 20_000,
        ..base
    };
    let t1 = runtime::training_breakdown(&config, &base, ExecutionSetting::CpuBaseline, &profile);
    let t2 = runtime::training_breakdown(&config, &double, ExecutionSetting::CpuBaseline, &profile);
    let ratio = t2.total_s() / t1.total_s();
    assert!((ratio - 2.0).abs() < 0.05, "cpu scaling ratio {ratio}");
}

#[test]
fn paper_scale_shapes_hold() {
    // The four headline claims, asserted at full Table I scale.
    let config = PipelineConfig::new(10_000);
    let profile = UpdateProfile::geometric(20, 0.5, 0.75);

    let mnist = WorkloadSpec {
        train_samples: 60_000,
        test_samples: 10_000,
        features: 784,
        classes: 10,
    };
    let pamap2 = WorkloadSpec {
        train_samples: 32_768,
        test_samples: 6_553,
        features: 27,
        classes: 5,
    };

    // 1. MNIST trains fastest with bagging, then TPU, then CPU.
    let cpu = runtime::training_breakdown(&config, &mnist, ExecutionSetting::CpuBaseline, &profile)
        .total_s();
    let tpu =
        runtime::training_breakdown(&config, &mnist, ExecutionSetting::Tpu, &profile).total_s();
    let bag = runtime::training_breakdown(&config, &mnist, ExecutionSetting::TpuBagging, &profile)
        .total_s();
    assert!(
        bag < tpu && tpu < cpu,
        "ordering: bag {bag}, tpu {tpu}, cpu {cpu}"
    );

    // 2. PAMAP2 encoding gains nothing from the accelerator.
    let cpu_b =
        runtime::training_breakdown(&config, &pamap2, ExecutionSetting::CpuBaseline, &profile);
    let tpu_b = runtime::training_breakdown(&config, &pamap2, ExecutionSetting::Tpu, &profile);
    assert!(tpu_b.encode_s > cpu_b.encode_s);

    // 3. Inference: accelerated on MNIST, not on PAMAP2.
    let inf_cpu = runtime::inference_time_s(&config, &mnist, ExecutionSetting::CpuBaseline);
    let inf_tpu = runtime::inference_time_s(&config, &mnist, ExecutionSetting::Tpu);
    assert!(inf_cpu / inf_tpu > 2.0);
    let inf_cpu_p = runtime::inference_time_s(&config, &pamap2, ExecutionSetting::CpuBaseline);
    let inf_tpu_p = runtime::inference_time_s(&config, &pamap2, ExecutionSetting::Tpu);
    assert!(inf_cpu_p / inf_tpu_p < 1.2);

    // 4. Bagging inference is exactly plain-TPU inference (merged model).
    assert_eq!(
        runtime::inference_time_s(&config, &mnist, ExecutionSetting::TpuBagging),
        inf_tpu
    );
}

#[test]
fn larger_encode_batches_never_hurt() {
    let cfg = DeviceConfig::default();
    let dims = ModelDims::encoder(617, 10_000);
    let mut prev = f64::INFINITY;
    for batch in [8usize, 32, 128, 512] {
        let t = runtime::serial_device_s(&cfg, &dims, 4096, batch);
        assert!(t <= prev + 1e-9, "batch {batch} slower than smaller batch");
        prev = t;
    }
}

#[test]
fn model_load_is_charged_once_not_per_invoke() {
    let (model, batch) = compiled(32, 96, 4, 3);
    let device = Device::new(DeviceConfig::default());
    let report = device.load_model(model).unwrap();
    device.reset_ledger();
    device.invoke_overlapped(&batch).unwrap();
    device.invoke_overlapped(&batch).unwrap();
    let ledger = device.ledger();
    assert_eq!(ledger.load_s, 0.0, "loads must not accrue after reset");
    assert!(report.total_s > 0.0);
    assert_eq!(ledger.invocations, 2);
}

#[test]
fn cortex_a53_slows_every_phase() {
    let i5 = PipelineConfig::new(10_000);
    let pi = PipelineConfig::new(10_000).with_platform(cpu_model::Platform::CortexA53);
    let profile = UpdateProfile::geometric(20, 0.5, 0.75);
    let w = WorkloadSpec {
        train_samples: 7_797,
        test_samples: 1_559,
        features: 617,
        classes: 26,
    };
    let a = runtime::training_breakdown(&i5, &w, ExecutionSetting::CpuBaseline, &profile);
    let b = runtime::training_breakdown(&pi, &w, ExecutionSetting::CpuBaseline, &profile);
    assert!(b.encode_s > a.encode_s);
    assert!(b.update_s > a.update_s);
}
