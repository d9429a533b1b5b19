//! One host fallback: a TPU run that loses its device ends on the device
//! pool's int8 host executor, so whatever it recovers is bit-exact with
//! the fault-free run, and a fault it cannot recover names where it
//! struck.
//!
//! * **Recovered runs are the fault-free run.** Over seeded schedules of
//!   transient, link-corruption, weight-upset and hang faults, with
//!   quarantine thresholds below and above the retry budget, every `Tpu`
//!   and `TpuBagging` train-plus-infer that ends `Ok` has the fault-free
//!   run's class-hypervector bits and predictions. Only ledgers and
//!   fault traces differ.
//! * **A batch may mix device and host chunks.** A quarantine part-way
//!   through a call keeps the chunks the device produced and runs the
//!   rest on the host.
//! * **Unrecovered faults keep their context.** Training, evaluation and
//!   serving failures name the schedule stage, firing and attempts.

use std::sync::OnceLock;

use proptest::prelude::*;

use hd_bagging::MemberRecovery;
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::{BaseHypervectors, Executor, HdcModel, NonlinearEncoder};
use hyperedge::{
    ExecutionBackend, ExecutionSetting, FrameworkError, Pipeline, PipelineConfig, Supervision,
    TpuBackend, TwoDeviceServer,
};
use integration_tests::{clustered_dataset, split_half};
use tpu_sim::{FaultConfig, SimError};

const CLASSES: usize = 3;

fn dataset() -> (Matrix, Vec<usize>) {
    clustered_dataset(8, 8, CLASSES, 0.5, 5)
}

/// Chunks of 8 rows, so each call makes several device invocations.
fn config() -> PipelineConfig {
    PipelineConfig::new(128)
        .with_iterations(2)
        .with_seed(3)
        .with_batches(8, 8)
}

/// Class-hypervector bits and predictions of one train-plus-infer.
type RunBits = (Vec<u32>, Vec<usize>);

fn bits(model: &HdcModel, predictions: Vec<usize>) -> RunBits {
    let classes = model.classes().as_matrix().as_slice();
    (classes.iter().map(|v| v.to_bits()).collect(), predictions)
}

/// Trains and infers under `setting`, or reports the first error.
fn train_and_infer(config: PipelineConfig, setting: ExecutionSetting) -> Result<RunBits, String> {
    let (features, labels) = dataset();
    let pipeline = Pipeline::new(config);
    let outcome = pipeline
        .train(&features, &labels, CLASSES, setting)
        .map_err(|e| e.to_string())?;
    let report = pipeline
        .infer(&outcome.model, &features, setting)
        .map_err(|e| e.to_string())?;
    Ok(bits(&outcome.model, report.predictions))
}

/// The fault-free run of `setting`, computed once.
fn fault_free(setting: ExecutionSetting) -> &'static RunBits {
    static TPU: OnceLock<RunBits> = OnceLock::new();
    static BAGGING: OnceLock<RunBits> = OnceLock::new();
    let cell = match setting {
        ExecutionSetting::TpuBagging => &BAGGING,
        _ => &TPU,
    };
    cell.get_or_init(|| train_and_infer(config(), setting).expect("fault-free run"))
}

#[test]
fn a_mid_batch_quarantine_mixes_device_and_host_chunks() {
    // Seed 1 at transient rate 0.5, quarantine after two consecutive
    // failures: the first three of six chunks run on the device, the
    // fourth fails twice and quarantines it, and the host runs the rest.
    let mut cfg = config()
        .with_supervision(Supervision::retries(3, 2e-3, 2.0))
        .with_quarantine_threshold(2);
    cfg.device.fault = FaultConfig::default().with_seed(1).with_transient_rate(0.5);
    let mut rng = DetRng::new(5);
    let encoder = NonlinearEncoder::new(BaseHypervectors::generate(12, 128, &mut rng));
    let batch = Matrix::random_normal(48, 12, &mut rng);

    let faulty = TpuBackend::new(&cfg);
    let out = faulty.encode_batch(&encoder, &batch).unwrap();
    let clean = TpuBackend::new(&config());
    assert_eq!(out, clean.encode_batch(&encoder, &batch).unwrap());
    assert!(faulty.breaker_open());
    let ledger = faulty.ledger();
    assert_eq!(ledger.invocations, 3, "three chunks ran on the device");
    assert_eq!(clean.ledger().invocations, 6);
    assert_eq!(ledger.fallbacks, 1);
    // The quarantine stops the retries: two faults, one retry.
    assert_eq!((ledger.faults_observed, ledger.retries), (2, 1));

    // The same schedule through whole runs gives the fault-free bits.
    for setting in [ExecutionSetting::Tpu, ExecutionSetting::TpuBagging] {
        let run = train_and_infer(cfg.clone(), setting).unwrap();
        assert_eq!(&run, fault_free(setting), "{setting:?}");
    }
}

#[test]
fn a_dead_device_runs_every_bagged_member_on_the_host() {
    // A dead device from the first invocation: the whole bagged run,
    // all four members and the inference, runs on the host executor.
    let mut cfg = config();
    cfg.device.fault = FaultConfig::default().with_transient_rate(1.0);
    let run = train_and_infer(cfg, ExecutionSetting::TpuBagging).unwrap();
    assert_eq!(&run, fault_free(ExecutionSetting::TpuBagging));
}

/// The one expected context of a hard fault before quarantine: the
/// compute stage (stage 1 of `dma_in`, `compute`, `dma_out`) gave up on
/// its first chunk after one retry.
const FIRST_CHUNK_HARD_FAULT: &str = "stage 1 (compute) failed at firing 0 after 2 attempt(s): \
                                      device error: transient dispatch failure";

#[test]
fn a_training_encode_that_fails_names_its_stage_firing_and_attempts() {
    // One retry and a quarantine threshold that never trips: the first
    // chunk's second failure ends the run before any quarantine.
    let mut cfg = config()
        .with_supervision(Supervision::retries(1, 2e-3, 2.0))
        .with_quarantine_threshold(50);
    cfg.device.fault = FaultConfig::default().with_transient_rate(1.0);
    let (features, labels) = dataset();
    let err = Pipeline::new(cfg.clone())
        .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
        .unwrap_err();
    assert!(err.to_string().contains(FIRST_CHUNK_HARD_FAULT), "{err}");

    // The backend's own error carries the same context as fields.
    let backend = TpuBackend::new(&cfg);
    let mut rng = DetRng::new(9);
    let encoder = NonlinearEncoder::new(BaseHypervectors::generate(8, 128, &mut rng));
    let encoded = backend.encode_batch(&encoder, &features).unwrap_err();
    assert!(
        encoded.to_string().contains(FIRST_CHUNK_HARD_FAULT),
        "{encoded}"
    );
    assert!(!backend.breaker_open());
}

#[test]
fn an_evaluation_after_host_retrained_members_names_its_stage_firing_and_attempts() {
    // Training recovers the members whose encode failed by retraining
    // them on the host; inference has no such recovery short of a
    // quarantine, which this threshold never reaches, so the fourth
    // chunk's second failure ends it.
    let (features, labels) = clustered_dataset(24, 12, 4, 0.5, 0x601D);
    let (train, train_labels, test, test_labels) = split_half(&features, &labels);
    let mut cfg = PipelineConfig::new(256)
        .with_iterations(3)
        .with_seed(0x601D)
        .with_batches(16, 8)
        .with_supervision(Supervision::retries(1, 2e-3, 2.0))
        .with_quarantine_threshold(50)
        .with_member_recovery(MemberRecovery::RetrainOnHost);
    cfg.device.fault = FaultConfig::default()
        .with_seed(0xBA6)
        .with_transient_rate(0.3);
    let pipeline = Pipeline::new(cfg);
    let outcome = pipeline
        .train(&train, &train_labels, 4, ExecutionSetting::TpuBagging)
        .unwrap();
    let err = pipeline
        .evaluate(&outcome, &test, &test_labels)
        .unwrap_err();
    match &err {
        FrameworkError::Stage {
            stage,
            name,
            firing,
            attempts,
            source,
        } => {
            assert_eq!((*stage, name.as_str()), (1, "compute"), "{err}");
            assert_eq!((*firing, *attempts), (3, 2), "{err}");
            assert_eq!(
                **source,
                FrameworkError::Sim(SimError::TransientInvokeFailure)
            );
        }
        other => panic!("expected a stage error, got {other:?}"),
    }
    assert!(!err.device_fault());
}

#[test]
fn a_failed_serve_request_names_its_stage_firing_and_attempts() {
    let (features, labels) = dataset();
    let pipeline = Pipeline::new(config());
    let outcome = pipeline
        .train(&features, &labels, CLASSES, ExecutionSetting::CpuBaseline)
        .unwrap();
    let server = TwoDeviceServer::new(&outcome.model, &config(), &features).unwrap();
    let too_wide = Matrix::zeros(5, features.cols() + 1);
    let err = server.predict_supervised(&too_wide).unwrap_err();
    match &err {
        FrameworkError::Stage {
            stage,
            name,
            firing,
            attempts,
            source,
        } => {
            // The width mismatch is no device fault: no retry, no rebind.
            assert_eq!((*stage, name.as_str()), (0, "encode"), "{err}");
            assert_eq!((*firing, *attempts), (0, 1), "{err}");
            assert!(matches!(**source, FrameworkError::Sim(_)), "{source:?}");
        }
        other => panic!("expected a stage error, got {other:?}"),
    }
    assert!(err
        .to_string()
        .starts_with("stage 0 (encode) failed at firing 0 after 1 attempt(s): device error:"));
}

proptest! {
    // Each case trains and infers one small pipeline.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every seeded fault schedule that a run survives gives the
    /// fault-free bits, whether it survived by retries, by reloads, or by
    /// draining to the host executor part-way.
    #[test]
    fn prop_recovered_runs_equal_the_fault_free_run(
        seed in 0u64..10_000,
        transient in 0.0f64..0.6,
        link in 0.0f64..0.3,
        upset in 0.0f64..0.3,
        hang in 0.0f64..0.3,
        retries in 0u32..4,
        // From 1 (quarantine on the first fault) to well past the
        // largest retry budget.
        threshold in 1u32..8,
        bagging in any::<bool>(),
    ) {
        let setting = if bagging {
            ExecutionSetting::TpuBagging
        } else {
            ExecutionSetting::Tpu
        };
        // Every hang stalls past the firing deadline, so it is a fault.
        let mut cfg = config()
            .with_supervision(Supervision::retries(retries, 2e-3, 2.0).with_deadline(Some(0.5)))
            .with_quarantine_threshold(threshold);
        cfg.device.fault = FaultConfig::default()
            .with_seed(seed)
            .with_transient_rate(transient)
            .with_link_corruption_rate(link)
            .with_weight_upset_rate(upset)
            .with_hang(hang, 1.0);
        if let Ok(run) = train_and_infer(cfg, setting) {
            prop_assert_eq!(&run, fault_free(setting));
        }
    }
}
