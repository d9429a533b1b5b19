//! Golden digests: results never change silently.
//!
//! A small set of seeded, fast scenarios covers every result the
//! workspace reports — trained class hypervectors, predictions, ledgers,
//! fault traces, serve reports and model-file bytes. Each scenario is
//! hashed (FNV-1a over the raw bits) into one named digest, and the
//! committed value of every digest is pinned below. A change that means
//! to move numbers updates the constants it moved and says so; a failure
//! names every digest that moved, not just the first.
//!
//! The digests are the same whether or not SIMD kernels run
//! (`HD_NO_SIMD=1`): every kernel is bit-exact with its scalar
//! reference. The one host-dependent number, which kernel tile served
//! an `i8` GEMM call, is folded into the total call count.

use hd_bagging::MemberRecovery;
use hd_tensor::rng::DetRng;
use hd_tensor::{ops, Matrix};
use hdc::{TrainConfig, TrainStats};
use hyperedge::{
    serving::ServeReport, wide_model, BackendLedger, ExecutionSetting, Pipeline, PipelineConfig,
    Supervision, TrainingTelemetry, TwoDeviceServer,
};
use integration_tests::{clustered_dataset, split_half};
use tpu_sim::{Device, FaultConfig, FaultKind, FaultRecord, LinkDirection};
use wide_nn::{compile, serialize, Activation, ModelBuilder, QuantizedModel};

/// The committed digest of every scenario, by name.
const GOLDEN: [(&str, u64); 13] = [
    ("tanh_sweep", 0x10ee_c800_923a_432d),
    ("train_cpu", 0x3b6c_e750_6783_b2b8),
    ("train_tpu", 0x7ca1_b760_b563_43de),
    ("train_tpu_bagging", 0x9ebc_94f4_e2f4_d6f0),
    ("tpu_weight_faults", 0xe371_ba65_59f8_bdf7),
    ("tpu_faulted_train", 0xa632_cdb0_6c3c_4f9d),
    ("serve_clean", 0x807c_58cd_f62f_de55),
    ("serve_quarantine", 0xa80b_321e_b89f_f3e7),
    ("serve_requests", 0x9c61_83fe_9e8b_25e7),
    ("hdm_per_tensor", 0xfedc_f0a8_b3c6_e1b1),
    ("hdm_per_channel", 0xf294_7c8a_784c_6aa1),
    ("bagging_member_recovery", 0x362b_a379_914e_2c9b),
    ("perceptron_noisy_labels", 0xa9aa_8906_1741_7bd0),
];

const CLASSES: usize = 4;

/// FNV-1a, 64 bit, fed little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usizes(&mut self, values: &[usize]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v as u64);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.u64(u64::from(v.to_bits()));
        }
    }

    fn ledger(&mut self, l: &BackendLedger) {
        for count in [
            l.compilations,
            l.cache_hits,
            l.devices_created,
            l.model_loads,
            l.invocations,
            l.encoded_samples,
            l.predicted_samples,
            l.retries,
            l.faults_observed,
            l.fallbacks,
            l.packed_score_rows,
            // Which tile ran depends on the host; how many calls ran
            // does not.
            l.simd_gemm_calls + l.portable_gemm_calls,
        ] {
            self.u64(count);
        }
        for seconds in [
            l.encode_s,
            l.update_s,
            l.model_gen_s,
            l.infer_s,
            l.backoff_s,
        ] {
            self.f64(seconds);
        }
    }

    fn records(&mut self, records: &[FaultRecord]) {
        self.u64(records.len() as u64);
        for r in records {
            self.u64(r.invocation);
            match r.kind {
                FaultKind::TransientInvokeFailure => self.u64(0),
                FaultKind::WeightUpset => self.u64(1),
                FaultKind::LinkCorruption { direction, bytes } => {
                    self.u64(2);
                    self.u64(u64::from(direction == LinkDirection::HostToDevice));
                    self.u64(bytes as u64);
                }
                FaultKind::Hang { stall_s, fatal } => {
                    self.u64(3);
                    self.f64(stall_s);
                    self.u64(u64::from(fatal));
                }
            }
            self.f64(r.charged_s);
        }
    }

    fn train_stats(&mut self, stats: &TrainStats) {
        self.u64(stats.iterations.len() as u64);
        for it in &stats.iterations {
            self.u64(it.iteration as u64);
            self.u64(it.updates as u64);
            self.f64(it.train_accuracy);
            self.f64(it.validation_accuracy.unwrap_or(-1.0));
        }
    }

    fn serve_report(&mut self, report: &ServeReport) {
        use hd_dataflow::runtime::FaultAction;
        self.usizes(&report.predictions);
        self.u64(report.supervision.len() as u64);
        for s in &report.supervision {
            for count in [s.faults, s.retries, s.substitutions, s.rebinds] {
                self.u64(count);
            }
            self.f64(s.backoff_s);
            self.u64(s.trace.len() as u64);
            for event in &s.trace {
                self.u64(event.firing);
                self.u64(u64::from(event.attempt));
                match event.action {
                    FaultAction::Retried { backoff_s } => {
                        self.u64(0);
                        self.f64(backoff_s);
                    }
                    FaultAction::Substituted => self.u64(1),
                    FaultAction::Rebound => self.u64(2),
                    FaultAction::Aborted => self.u64(3),
                }
            }
        }
        self.u64(report.device_faults.len() as u64);
        for d in &report.device_faults {
            self.u64(d.ordinal as u64);
            self.records(&d.records);
        }
        self.usizes(&report.quarantined);
    }
}

fn dataset() -> (Matrix, Vec<usize>, Matrix, Vec<usize>) {
    let (features, labels) = clustered_dataset(24, 12, CLASSES, 0.5, 0x601D);
    split_half(&features, &labels)
}

fn config() -> PipelineConfig {
    PipelineConfig::new(256)
        .with_iterations(3)
        .with_seed(0x601D)
        .with_batches(16, 8)
}

/// `ops::tanh` at every `f32` in `[0.25, 10)`, about 47 million inputs:
/// the range where it is neither about `x` nor saturated, so the
/// high-order coefficients of both of its polynomials show in some
/// output bit. Every host activation and every device lookup table
/// computes through it, but a one-ULP change there moves only a few
/// dozen outputs in a billion, too few for any scenario below to meet.
fn tanh_digest() -> u64 {
    const CHUNK: u32 = 1 << 16;
    let (lo, hi) = (0.25f32.to_bits(), 10.0f32.to_bits());
    let mut d = Digest::new();
    let mut values = Vec::with_capacity(CHUNK as usize);
    for start in (lo..hi).step_by(CHUNK as usize) {
        values.clear();
        values.extend((start..hi.min(start + CHUNK)).map(f32::from_bits));
        ops::tanh_inplace(&mut values);
        for v in &values {
            d.bytes(&v.to_bits().to_le_bytes());
        }
    }
    d.0
}

/// `Pipeline::train` and `evaluate` under `setting`: class-hypervector
/// bits, predictions, accuracy and both ledgers.
fn train_digest(setting: ExecutionSetting) -> u64 {
    let (train, train_labels, test, test_labels) = dataset();
    let pipeline = Pipeline::new(config());
    let outcome = pipeline
        .train(&train, &train_labels, CLASSES, setting)
        .expect("train");
    let eval = pipeline
        .evaluate(&outcome, &test, &test_labels)
        .expect("evaluate");
    let mut d = Digest::new();
    d.matrix(outcome.model.classes().as_matrix());
    d.ledger(&outcome.ledger);
    d.usizes(&eval.inference.predictions);
    d.f64(eval.accuracy);
    d.f64(eval.inference.runtime_s);
    d.ledger(&pipeline.backend(setting).ledger());
    d.0
}

/// Seeded bit flips in a device's resident weights: the flipped-bit
/// count and the outputs computed from the faulted weights.
fn weight_faults_digest() -> u64 {
    let (train, train_labels, test, _) = dataset();
    let pipeline = Pipeline::new(config());
    let outcome = pipeline
        .train(&train, &train_labels, CLASSES, ExecutionSetting::Tpu)
        .expect("train");
    let cfg = config();
    let network = wide_model::inference_network(&outcome.model).expect("network");
    let compiled = compile::compile(&network, &train, &cfg.device.target).expect("compile");
    let device = Device::new(cfg.device.clone());
    device.load_model(compiled).expect("load");
    let flipped = device
        .inject_weight_faults(0.01, &mut DetRng::new(0xF11))
        .expect("inject");
    let (scores, _) = device.invoke_overlapped(&test).expect("invoke");
    let predictions: Vec<usize> = (0..scores.rows())
        .map(|r| ops::argmax(scores.row(r)).expect("non-empty row"))
        .collect();
    let mut d = Digest::new();
    d.u64(flipped as u64);
    d.matrix(&scores);
    d.usizes(&predictions);
    d.0
}

/// A TPU run under a seeded device fault schedule, recovered by retries
/// and pristine reloads: the device's fault trace, the ledger and the
/// recovered predictions.
fn faulted_train_digest() -> u64 {
    let (train, train_labels, test, test_labels) = dataset();
    let mut cfg = config()
        .with_supervision(Supervision::retries(6, 2e-3, 2.0))
        .with_quarantine_threshold(7);
    cfg.device.fault = FaultConfig::default()
        .with_seed(0xC0DE)
        .with_transient_rate(0.2)
        .with_link_corruption_rate(0.1)
        .with_weight_upset_rate(0.1);
    let pipeline = Pipeline::new(cfg);
    let outcome = pipeline
        .train(&train, &train_labels, CLASSES, ExecutionSetting::Tpu)
        .expect("train");
    let eval = pipeline
        .evaluate(&outcome, &test, &test_labels)
        .expect("evaluate");
    let trace = pipeline.backends().hybrid().tpu().device().fault_trace();
    assert!(!trace.is_empty(), "the fault schedule must fire");
    let mut d = Digest::new();
    d.records(trace.records());
    d.matrix(outcome.model.classes().as_matrix());
    d.ledger(&outcome.ledger);
    d.usizes(&eval.inference.predictions);
    d.ledger(&pipeline.backend(ExecutionSetting::Tpu).ledger());
    d.0
}

/// `TwoDeviceServer::predict_supervised`: clean, or with every device
/// failing so that the pool quarantines them and drains to the host.
fn serve_digest(quarantine: bool) -> u64 {
    let (train, train_labels, test, _) = dataset();
    let pipeline = Pipeline::new(config());
    let outcome = pipeline
        .train(
            &train,
            &train_labels,
            CLASSES,
            ExecutionSetting::CpuBaseline,
        )
        .expect("train");
    let mut cfg = config();
    let spares = if quarantine {
        cfg.device.fault = FaultConfig::default()
            .with_seed(0x5E12)
            .with_transient_rate(1.0);
        1
    } else {
        0
    };
    let server =
        TwoDeviceServer::with_spares(&outcome.model, &cfg, &train, spares).expect("server");
    let served = server.predict_supervised(&test).expect("serve");
    assert_eq!(served.is_degraded(), quarantine);
    let mut d = Digest::new();
    d.serve_report(served.report());
    d.0
}

/// One server answering five consecutive `predict_supervised` requests
/// of 32, 7, 70, 16 and 1 rows under a seeded transient fault schedule
/// (quarantine after two consecutive failures, one spare): the first two
/// requests are clean, the third quarantines devices 0 and 1, and the
/// last two run on what is left (the spare and the host). Every
/// request's outcome arm and report, whose `quarantined` list is
/// cumulative and whose `device_faults` are that request's own.
fn serve_requests_digest() -> u64 {
    let (train, train_labels, test, _) = dataset();
    let outcome = Pipeline::new(config())
        .train(
            &train,
            &train_labels,
            CLASSES,
            ExecutionSetting::CpuBaseline,
        )
        .expect("train");
    let mut cfg = config().with_quarantine_threshold(2);
    cfg.device.fault = FaultConfig::default()
        .with_seed(231)
        .with_transient_rate(0.3);
    let server = TwoDeviceServer::with_spares(&outcome.model, &cfg, &train, 1).expect("server");
    let reference = TwoDeviceServer::new(&outcome.model, &config(), &train).expect("server");
    let rows = Matrix::vstack(&[&test, &train, &test]).expect("equal widths");
    let mut d = Digest::new();
    let mut start = 0;
    for (request, len) in [32, 7, 70, 16, 1].into_iter().enumerate() {
        let batch = rows.slice_rows(start, start + len).expect("rows");
        start += len;
        let served = server.predict_supervised(&batch).expect("serve");
        if request < 3 {
            assert_eq!(served.is_degraded(), request == 2, "request {request}");
        }
        assert_eq!(
            served.report().predictions,
            reference.predict_sequential(&batch).expect("reference"),
            "request {request}"
        );
        d.u64(u64::from(served.is_degraded()));
        d.serve_report(served.report());
    }
    d.0
}

/// `write_quantized_model` bytes of a small encoder-and-classifier
/// network, quantized per tensor or per output channel.
fn hdm_digest(per_channel: bool) -> u64 {
    let mut rng = DetRng::new(0x4D);
    let model = ModelBuilder::new(10)
        .fully_connected(Matrix::random_normal(10, 40, &mut rng))
        .expect("fc")
        .activation(Activation::Tanh)
        .fully_connected(Matrix::random_normal(40, 5, &mut rng))
        .expect("fc")
        .build()
        .expect("model");
    let calibration = Matrix::random_normal(32, 10, &mut rng);
    let quantized = if per_channel {
        QuantizedModel::quantize_per_channel(&model, &calibration)
    } else {
        QuantizedModel::quantize(&model, &calibration)
    }
    .expect("quantize");
    let mut d = Digest::new();
    d.bytes(&serialize::write_quantized_model(&quantized));
    d.0
}

/// A bagged TPU run whose members hit hard device failures (one retry,
/// a quarantine threshold that never trips) and are retrained on the
/// host: the fault trace, which members were retrained, every member's
/// training telemetry, the merged model and the ledger.
fn bagging_recovery_digest() -> u64 {
    let (train, train_labels, _, _) = dataset();
    let mut cfg = config()
        .with_supervision(Supervision::retries(1, 2e-3, 2.0))
        .with_quarantine_threshold(50)
        .with_member_recovery(MemberRecovery::RetrainOnHost);
    cfg.device.fault = FaultConfig::default()
        .with_seed(0xBA6)
        .with_transient_rate(0.3);
    let pipeline = Pipeline::new(cfg);
    let outcome = pipeline
        .train(&train, &train_labels, CLASSES, ExecutionSetting::TpuBagging)
        .expect("train");
    let TrainingTelemetry::Bagged(stats) = &outcome.telemetry else {
        panic!("expected bagged telemetry, got {:?}", outcome.telemetry);
    };
    assert!(
        !stats.retrained_on_host.is_empty()
            && stats.retrained_on_host.len() < stats.sub_models.len(),
        "some but not all members must be retrained: {:?}",
        stats.retrained_on_host
    );
    let trace = pipeline.backends().hybrid().tpu().device().fault_trace();
    let mut d = Digest::new();
    d.records(trace.records());
    d.usizes(&stats.retrained_on_host);
    d.usizes(&stats.dropped_members);
    for member in &stats.sub_models {
        d.usizes(&[member.index, member.sampled_rows, member.sampled_features]);
        d.train_stats(&member.train);
    }
    d.matrix(outcome.model.classes().as_matrix());
    d.ledger(&outcome.ledger);
    d.0
}

/// `hdc::train_encoded_tracked` at `k = 26`, `d = 2046` (neither a
/// multiple of 4) on weakly separated classes with one label in ten
/// flipped, so most samples of the first pass update the classes; then
/// a run warm-started from its result on a fresh draw, at another
/// learning rate. Class-hypervector bits and the training telemetry,
/// validation accuracies included, of both runs.
fn perceptron_digest() -> u64 {
    const K: usize = 26;
    const D: usize = 2046;
    let mut rng = DetRng::new(0x9E7C);
    let centers: Vec<Vec<f32>> = (0..K)
        .map(|_| (0..D).map(|_| rng.next_normal()).collect())
        .collect();
    let mut draw = |rows: usize, flip: bool| {
        let mut m = Matrix::zeros(rows, D);
        let mut labels = Vec::with_capacity(rows);
        for r in 0..rows {
            let class = r % K;
            for (v, c) in m.row_mut(r).iter_mut().zip(&centers[class]) {
                *v = ops::tanh(0.1 * c + rng.next_normal());
            }
            let flipped = flip && rng.next_index(10) == 0;
            labels.push(if flipped { rng.next_index(K) } else { class });
        }
        (m, labels)
    };
    let (train, train_labels) = draw(30 * K, true);
    let (drifted, drifted_labels) = draw(30 * K, true);
    let (val, val_labels) = draw(4 * K, false);
    let validation = Some((&val, val_labels.as_slice()));
    let config = TrainConfig::new(D).with_iterations(3);
    let (cold, cold_stats) =
        hdc::train_encoded_tracked(&train, &train_labels, K, &config, validation).expect("cold");
    let warm_config = config.with_learning_rate(0.375);
    let (warm, warm_stats) = hdc::train_encoded_warm(
        &drifted,
        &drifted_labels,
        cold.clone(),
        &warm_config,
        validation,
    )
    .expect("warm");
    let mut d = Digest::new();
    d.matrix(cold.as_matrix());
    d.train_stats(&cold_stats);
    d.matrix(warm.as_matrix());
    d.train_stats(&warm_stats);
    d.0
}

/// One test computes every digest, so a failure lists all that moved.
#[test]
fn golden_digests_are_unchanged() {
    let actual = [
        ("tanh_sweep", tanh_digest()),
        ("train_cpu", train_digest(ExecutionSetting::CpuBaseline)),
        ("train_tpu", train_digest(ExecutionSetting::Tpu)),
        (
            "train_tpu_bagging",
            train_digest(ExecutionSetting::TpuBagging),
        ),
        ("tpu_weight_faults", weight_faults_digest()),
        ("tpu_faulted_train", faulted_train_digest()),
        ("serve_clean", serve_digest(false)),
        ("serve_quarantine", serve_digest(true)),
        ("serve_requests", serve_requests_digest()),
        ("hdm_per_tensor", hdm_digest(false)),
        ("hdm_per_channel", hdm_digest(true)),
        ("bagging_member_recovery", bagging_recovery_digest()),
        ("perceptron_noisy_labels", perceptron_digest()),
    ];
    let moved: Vec<String> = GOLDEN
        .iter()
        .zip(&actual)
        .filter(|(pinned, now)| pinned != now)
        .map(|((name, want), (now_name, got))| {
            assert_eq!(
                name, now_name,
                "GOLDEN and the scenarios must list names in one order"
            );
            format!("  {name}: pinned {want:#018x}, now {got:#018x}")
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} golden digest(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
