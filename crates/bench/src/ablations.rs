//! Ablations of the design choices DESIGN.md calls out, beyond the
//! paper's own figures:
//!
//! * non-linear vs linear encoding (the paper asserts non-linear wins;
//!   note that on *our synthetic Gaussian-cluster datasets* — which are
//!   linearly separable by construction — the two come out close, so this
//!   ablation documents the mechanism rather than reproducing the paper's
//!   real-data gap),
//! * hypervector dimensionality (why `d = 10000`-class widths),
//! * numeric precision (f32 host vs int8 accelerator vs 1-bit bipolar),
//! * accelerator invocation batch size (the latency/throughput knob
//!   behind the encode-vs-inference batching split),
//! * energy (the power-parity framing behind Table II).

use hd_datasets::registry;
use hd_tensor::rng::DetRng;
use hdc::bipolar::BipolarModel;
use hdc::{
    train_encoded, BaseHypervectors, Encoder, HdcModel, LinearEncoder, NonlinearEncoder,
    TrainConfig,
};
use hyperedge::runtime;
use hyperedge::{ExecutionSetting, Pipeline};
use tpu_sim::timing::{self, ModelDims};

use crate::{
    fmt_pct, fmt_speedup, functional_config, functional_dataset, paper_config, paper_workload,
    run_functional, ResultTable, FUNCTIONAL_DIM, PAPER_DIM,
};

const SEED: u64 = 2022;

/// Non-linear (`tanh`) vs linear encoding, trained identically.
pub fn ablation_encoding() -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: non-linear vs linear encoding (test accuracy)",
        &["dataset", "nonlinear", "linear", "delta"],
    );
    for spec in registry::paper_datasets() {
        let data = functional_dataset(&spec, SEED);
        let mut rng = DetRng::new(SEED);
        let base = BaseHypervectors::generate(data.feature_count(), FUNCTIONAL_DIM, &mut rng);
        let train_cfg = TrainConfig::new(FUNCTIONAL_DIM)
            .with_iterations(10)
            .with_seed(SEED);

        let accuracy_for =
            |encoded_train: &hd_tensor::Matrix, encoded_test: &hd_tensor::Matrix| -> f64 {
                let (classes, _) =
                    train_encoded(encoded_train, &data.train.labels, data.classes, &train_cfg)
                        .expect("training succeeds");
                let mut correct = 0usize;
                for (r, &label) in data.test.labels.iter().enumerate() {
                    let scores = classes.scores(encoded_test.row(r)).expect("scores");
                    if hd_tensor::ops::argmax(&scores).expect("non-empty") == label {
                        correct += 1;
                    }
                }
                correct as f64 / data.test.labels.len() as f64
            };

        let nonlinear = NonlinearEncoder::new(base.clone());
        let nl_acc = accuracy_for(
            &nonlinear.encode(&data.train.features).expect("encode"),
            &nonlinear.encode(&data.test.features).expect("encode"),
        );
        let linear = LinearEncoder::new(base);
        let lin_acc = accuracy_for(
            &linear.encode(&data.train.features).expect("encode"),
            &linear.encode(&data.test.features).expect("encode"),
        );
        t.push_row(vec![
            spec.name.to_string(),
            fmt_pct(nl_acc),
            fmt_pct(lin_acc),
            format!("{:+.1}pp", 100.0 * (nl_acc - lin_acc)),
        ]);
    }
    t
}

/// Accuracy vs hypervector dimensionality on the ISOLET-shaped workload.
pub fn ablation_dim() -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: accuracy vs hypervector dimensionality (ISOLET)",
        &["dim", "accuracy", "model_bytes_int8"],
    );
    let spec = registry::by_name("isolet").expect("registered");
    let data = functional_dataset(&spec, SEED);
    for dim in [128usize, 256, 512, 1024, 2048, 4096] {
        let config = TrainConfig::new(dim).with_iterations(10).with_seed(SEED);
        let (model, _) = HdcModel::fit(
            &data.train.features,
            &data.train.labels,
            data.classes,
            &config,
        )
        .expect("fit succeeds");
        let preds = model.predict(&data.test.features).expect("predict");
        let acc = hdc::eval::accuracy(&preds, &data.test.labels).expect("accuracy");
        let bytes = data.feature_count() * dim + dim * data.classes;
        t.push_row(vec![dim.to_string(), fmt_pct(acc), bytes.to_string()]);
    }
    t
}

/// Numeric-precision ladder: f32 host, int8 accelerator (per-tensor and
/// per-channel weights), 1-bit bipolar.
pub fn ablation_quant() -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: precision ladder (f32 / int8 / int8 per-channel / 1-bit bipolar)",
        &[
            "dataset",
            "f32",
            "int8",
            "int8_pc",
            "bipolar",
            "bipolar_model_bytes",
        ],
    );
    // One device serves every dataset's per-channel run; each compiled
    // model is loaded in turn (the device holds one model at a time).
    let device = tpu_sim::Device::new(tpu_sim::DeviceConfig::default());
    for spec in registry::paper_datasets() {
        let data = functional_dataset(&spec, SEED);
        let pipeline = Pipeline::new(functional_config());
        let cpu = run_functional(&pipeline, &data, ExecutionSetting::CpuBaseline);
        let tpu = run_functional(&pipeline, &data, ExecutionSetting::Tpu);

        // Per-channel int8: run the trained model's inference network
        // through the device with per-channel weights.
        let network =
            hyperedge::wide_model::inference_network(&cpu.outcome.model).expect("network");
        let compiled = wide_nn::compile::compile_per_channel(
            &network,
            &data.train.features,
            &wide_nn::TargetSpec::default(),
        )
        .expect("compile");
        device.load_model(compiled).expect("load");
        let (scores, _) = device
            .invoke_overlapped(&data.test.features)
            .expect("invoke");
        let pc_preds: Vec<usize> = (0..scores.rows())
            .map(|r| hd_tensor::ops::argmax(scores.row(r)).expect("non-empty"))
            .collect();
        let pc_acc = hdc::eval::accuracy(&pc_preds, &data.test.labels).expect("accuracy");

        let bipolar = BipolarModel::binarize(&cpu.outcome.model);
        let bip_preds = bipolar.predict(&data.test.features).expect("predict");
        let bip_acc = hdc::eval::accuracy(&bip_preds, &data.test.labels).expect("accuracy");

        t.push_row(vec![
            spec.name.to_string(),
            fmt_pct(cpu.accuracy),
            fmt_pct(tpu.accuracy),
            fmt_pct(pc_acc),
            fmt_pct(bip_acc),
            bipolar.class_bytes().to_string(),
        ]);
    }
    t
}

/// Accelerator invocation batch size vs per-sample encode/inference time
/// (analytic, paper scale, MNIST shape). Shows why training encoding
/// batches large while latency-bound inference batches small.
pub fn ablation_batch() -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: per-sample device time vs invocation batch (MNIST shape, d = 10000)",
        &["batch", "encode_us_per_sample", "inference_us_per_sample"],
    );
    let cfg = paper_config();
    let enc = ModelDims::encoder(784, PAPER_DIM);
    let inf = ModelDims::inference(784, PAPER_DIM, 10);
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        let enc_t = timing::stage_costs(&cfg.device, &enc, batch).serial_elapsed_s() / batch as f64;
        let inf_t = timing::stage_costs(&cfg.device, &inf, batch).serial_elapsed_s() / batch as f64;
        t.push_row(vec![
            batch.to_string(),
            format!("{:.1}", enc_t * 1e6),
            format!("{:.1}", inf_t * 1e6),
        ]);
    }
    t
}

/// Dimension regeneration at small hypervector widths: the adaptive-basis
/// retraining loop (`hdc::regen`) vs the same extra iterations on a fixed
/// random basis.
pub fn ablation_regen() -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: dimension regeneration vs fixed basis (UCIHAR shape, small d)",
        &["dim", "fixed_basis", "plus_iters", "regenerated"],
    );
    let spec = registry::by_name("ucihar").expect("registered");
    let data = functional_dataset(&spec, SEED);
    for dim in [64usize, 128, 256] {
        let base_cfg = TrainConfig::new(dim).with_iterations(6).with_seed(SEED);
        let (model, _) = HdcModel::fit(
            &data.train.features,
            &data.train.labels,
            data.classes,
            &base_cfg,
        )
        .expect("fit");
        let acc = |m: &HdcModel| -> f64 {
            hdc::eval::accuracy(
                &m.predict(&data.test.features).expect("predict"),
                &data.test.labels,
            )
            .expect("accuracy")
        };
        let fixed = acc(&model);

        // Control: same extra training budget, no regeneration.
        let control_cfg = TrainConfig::new(dim)
            .with_iterations(6 + 12)
            .with_seed(SEED);
        let (control, _) = HdcModel::fit(
            &data.train.features,
            &data.train.labels,
            data.classes,
            &control_cfg,
        )
        .expect("fit");
        let plus_iters = acc(&control);

        // Regeneration: 3 rounds x 4 passes = the same 12 extra passes.
        let regen_cfg = hdc::regen::RegenConfig {
            regen_fraction: 0.15,
            iterations_per_round: 4,
            rounds: 3,
            learning_rate: 1.0,
            seed: SEED,
        };
        let (regen, _) =
            hdc::regen::regenerate(&model, &data.train.features, &data.train.labels, &regen_cfg)
                .expect("regenerate");
        let regenerated = acc(&regen);

        t.push_row(vec![
            dim.to_string(),
            fmt_pct(fixed),
            fmt_pct(plus_iters),
            fmt_pct(regenerated),
        ]);
    }
    t
}

/// Fault-injection robustness: flip an increasing fraction of the
/// deployed model's weight bits (on-device SRAM upsets) and measure how
/// gracefully accuracy degrades — the "strong robustness to noise" claim
/// of the paper's introduction, made measurable. The bipolar column flips
/// bits in the 1-bit packed class model instead.
pub fn robustness() -> ResultTable {
    let mut t = ResultTable::new(
        "Robustness: accuracy vs weight-bit fault rate (ISOLET shape)",
        &["fault_rate", "int8_device", "bipolar"],
    );
    let spec = registry::by_name("isolet").expect("registered");
    let data = functional_dataset(&spec, SEED);
    let config = TrainConfig::new(FUNCTIONAL_DIM)
        .with_iterations(10)
        .with_seed(SEED);
    let (model, _) = HdcModel::fit(
        &data.train.features,
        &data.train.labels,
        data.classes,
        &config,
    )
    .expect("fit succeeds");
    let network = hyperedge::wide_model::inference_network(&model).expect("network");

    // Compile once and construct one device; every fault rate reloads the
    // pristine parameters before injecting its own faults.
    let compiled = wide_nn::compile::compile(
        &network,
        &data.train.features,
        &wide_nn::TargetSpec::default(),
    )
    .expect("compile");
    let device = tpu_sim::Device::new(tpu_sim::DeviceConfig::default());
    for &rate in &[0.0f64, 0.0001, 0.0005, 0.001, 0.005, 0.01] {
        // int8 device path with faults injected after a fresh load.
        device.load_model(compiled.clone()).expect("load");
        let mut rng = DetRng::new(SEED ^ (rate * 1e7) as u64);
        device.inject_weight_faults(rate, &mut rng).expect("inject");
        let (scores, _) = device
            .invoke_overlapped(&data.test.features)
            .expect("invoke");
        let preds: Vec<usize> = (0..scores.rows())
            .map(|r| hd_tensor::ops::argmax(scores.row(r)).expect("non-empty"))
            .collect();
        let int8_acc = hdc::eval::accuracy(&preds, &data.test.labels).expect("accuracy");

        // Bipolar path: flip bits directly in the packed class vectors by
        // XOR-ing a random flip mask — no unpacking, so the noise model
        // stays in the packed domain end to end.
        let mut flip_rng = DetRng::new(SEED ^ 0xB1F ^ (rate * 1e7) as u64);
        let noisy_classes: Vec<hdc::bipolar::BipolarVector> =
            hdc::bipolar::binarize_classes(model.classes())
                .into_iter()
                .map(|class| {
                    // 8x: one weight byte carries 8 bits; flipping a bipolar
                    // component corresponds to a whole-bit cell.
                    let flips: Vec<f32> = (0..class.dim())
                        .map(|_| {
                            if flip_rng.next_f64() < rate * 8.0 {
                                1.0
                            } else {
                                -1.0
                            }
                        })
                        .collect();
                    let mask = hdc::bipolar::BipolarVector::from_signs(&flips);
                    let words: Vec<u64> = class
                        .words()
                        .iter()
                        .zip(mask.words())
                        .map(|(c, m)| c ^ m)
                        .collect();
                    hdc::bipolar::BipolarVector::from_words(words, class.dim()).expect("same width")
                })
                .collect();
        let encoded = model.encoder().encode(&data.test.features).expect("encode");
        let noisy = hd_tensor::packed::PackedClassHypervectors::from_classes(&noisy_classes)
            .expect("classes non-empty");
        let queries: Vec<hdc::bipolar::BipolarVector> = (0..encoded.rows())
            .map(|r| hdc::bipolar::BipolarVector::from_signs(encoded.row(r)))
            .collect();
        let bip_preds = noisy.predict_batch(&queries).expect("same width");
        let correct = bip_preds
            .iter()
            .zip(&data.test.labels)
            .filter(|(p, l)| p == l)
            .count();
        let bip_acc = correct as f64 / data.test.labels.len() as f64;

        t.push_row(vec![
            format!("{rate:.4}"),
            fmt_pct(int8_acc),
            fmt_pct(bip_acc),
        ]);
    }
    t
}

/// Scaling the co-design: accelerator count and a double-buffered driver
/// vs MNIST-shaped training time. Amdahl bites quickly — the host-side
/// class update does not scale.
pub fn scaling() -> ResultTable {
    let mut t = ResultTable::new(
        "Scaling: devices x pipelining vs training time (MNIST shape, paper scale)",
        &[
            "devices",
            "pipelined",
            "encode_s",
            "update_s",
            "total_s",
            "speedup",
        ],
    );
    let cfg = paper_config();
    let spec = registry::by_name("mnist").expect("registered");
    let workload = paper_workload(&spec);
    let profile = crate::default_profile(cfg.iterations);
    let host = cfg.platform.spec();

    let baseline = runtime::tpu_training_scaled(
        &cfg.device,
        &host,
        &workload,
        PAPER_DIM,
        cfg.iterations,
        &profile,
        cfg.encode_batch,
        1,
        false,
    )
    .total_s();
    for pipelined in [false, true] {
        for devices in [1usize, 2, 4, 8] {
            let b = runtime::tpu_training_scaled(
                &cfg.device,
                &host,
                &workload,
                PAPER_DIM,
                cfg.iterations,
                &profile,
                cfg.encode_batch,
                devices,
                pipelined,
            );
            t.push_row(vec![
                devices.to_string(),
                pipelined.to_string(),
                format!("{:.2}", b.encode_s),
                format!("{:.2}", b.update_s),
                format!("{:.2}", b.total_s()),
                fmt_speedup(baseline / b.total_s()),
            ]);
        }
    }
    t
}

/// Training/inference energy per setting at paper scale.
pub fn energy() -> ResultTable {
    let mut t = ResultTable::new(
        "Energy: training / inference joules per setting (paper scale)",
        &["dataset", "setting", "train_J", "infer_J", "vs_CPU"],
    );
    let config = paper_config();
    for spec in registry::paper_datasets() {
        let workload = paper_workload(&spec);
        let profile = crate::default_profile(config.iterations);
        let cpu_total =
            runtime::training_energy_j(&config, &workload, ExecutionSetting::CpuBaseline, &profile)
                .total_j()
                + runtime::inference_energy_j(&config, &workload, ExecutionSetting::CpuBaseline)
                    .total_j();
        for setting in ExecutionSetting::all() {
            let train = runtime::training_energy_j(&config, &workload, setting, &profile);
            let infer = runtime::inference_energy_j(&config, &workload, setting);
            let total = train.total_j() + infer.total_j();
            t.push_row(vec![
                spec.name.to_string(),
                setting.label().to_string(),
                format!("{:.1}", train.total_j()),
                format!("{:.2}", infer.total_j()),
                fmt_speedup(cpu_total / total),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_ablation_shows_amortization() {
        let t = ablation_batch();
        let csv = t.to_csv();
        let first: f64 = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let last: f64 = csv
            .lines()
            .last()
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            last < first / 3.0,
            "large batches should amortize: {first} -> {last}"
        );
    }

    #[test]
    fn energy_table_has_all_rows() {
        let t = energy();
        assert_eq!(t.len(), 15); // 5 datasets x 3 settings
    }
}
