//! Chaos suite: seeded fault injection through the full pipeline stack.
//!
//! Every schedule here is driven by a fixed `FaultConfig` seed, so the
//! suite proves three things the resilience layer promises:
//!
//! * **retry convergence** — transient faults that stay within the retry
//!   budget produce a model and predictions *bit-exact* with a fault-free
//!   run (detected faults are charged time, never numerics),
//! * **graceful degradation** — a dead device trips the circuit breaker
//!   and the host fallback reproduces the all-CPU baseline exactly,
//! * **reproducibility** — the same seed replays the identical
//!   `FaultTrace`, ledger, model, and predictions, across independent
//!   pipelines (property-tested over seeds and rates).

use proptest::prelude::*;

use hd_bagging::MemberRecovery;
use hd_tensor::Matrix;
use hyperedge::{ExecutionSetting, Pipeline, PipelineConfig, Supervision, TrainingTelemetry};
use integration_tests::clustered_dataset;
use tpu_sim::{FaultConfig, FaultTrace};

const CLASSES: usize = 3;

fn dataset(seed: u64) -> (Matrix, Vec<usize>) {
    clustered_dataset(16, 12, CLASSES, 0.4, seed)
}

/// Small chunks so a single encode/predict call makes several device
/// invocations — otherwise low fault rates never get a chance to fire.
fn chaos_config(seed: u64) -> PipelineConfig {
    PipelineConfig::new(256)
        .with_iterations(3)
        .with_seed(seed)
        .with_batches(16, 8)
}

fn with_fault(mut cfg: PipelineConfig, fault: FaultConfig) -> PipelineConfig {
    cfg.device.fault = fault;
    cfg
}

fn fault_trace(pipeline: &Pipeline) -> FaultTrace {
    pipeline.backends().hybrid().tpu().device().fault_trace()
}

#[test]
fn retried_transient_faults_converge_bit_exact() {
    let (features, labels) = dataset(11);
    let clean = Pipeline::new(chaos_config(7));
    let clean_outcome = clean
        .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
        .unwrap();
    let clean_preds = clean
        .infer(&clean_outcome.model, &features, ExecutionSetting::Tpu)
        .unwrap()
        .predictions;

    let cfg = with_fault(
        chaos_config(7),
        FaultConfig::default()
            .with_seed(0xC405)
            .with_transient_rate(0.4)
            .with_link_corruption_rate(0.2),
    )
    .with_supervision(Supervision::retries(6, 2e-3, 2.0))
    .with_quarantine_threshold(7);
    let faulted = Pipeline::new(cfg);
    let before = faulted.backend(ExecutionSetting::Tpu).ledger();
    let outcome = faulted
        .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
        .unwrap();
    let preds = faulted
        .infer(&outcome.model, &features, ExecutionSetting::Tpu)
        .unwrap()
        .predictions;
    let ledger = faulted
        .backend(ExecutionSetting::Tpu)
        .ledger()
        .delta_since(&before);

    assert_eq!(
        outcome.model, clean_outcome.model,
        "retried faults must converge to the fault-free model bit-for-bit"
    );
    assert_eq!(preds, clean_preds);
    let trace = fault_trace(&faulted);
    assert!(!trace.is_empty(), "the chaos schedule never fired");
    assert!(
        trace.records().iter().map(|r| r.charged_s).sum::<f64>() > 0.0,
        "faults are charged to the simulated clock"
    );
    assert!(ledger.faults_observed > 0);
    assert_eq!(
        ledger.retries, ledger.faults_observed,
        "every observed fault in this schedule is retried, none degrade"
    );
    assert_eq!(ledger.fallbacks, 0);
    assert!(ledger.backoff_s > 0.0);
}

#[test]
fn tripped_breaker_reproduces_the_cpu_baseline() {
    let (features, labels) = dataset(12);
    let cpu = Pipeline::new(chaos_config(9));
    let cpu_outcome = cpu
        .train(&features, &labels, CLASSES, ExecutionSetting::CpuBaseline)
        .unwrap();
    let cpu_preds = cpu
        .infer(&cpu_outcome.model, &features, ExecutionSetting::CpuBaseline)
        .unwrap()
        .predictions;

    // A dead device: every invoke attempt fails, the default policy
    // exhausts its retries, and the breaker opens permanently.
    let dead = Pipeline::new(with_fault(
        chaos_config(9),
        FaultConfig::default().with_seed(1).with_transient_rate(1.0),
    ));
    let outcome = dead
        .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
        .unwrap();
    let preds = dead
        .infer(&outcome.model, &features, ExecutionSetting::Tpu)
        .unwrap()
        .predictions;

    assert!(dead.backends().hybrid().tpu().breaker_open());
    assert!(outcome.ledger.fallbacks > 0);
    assert_eq!(
        outcome.model, cpu_outcome.model,
        "host fallback must train the exact all-CPU model"
    );
    assert_eq!(
        preds, cpu_preds,
        "host fallback predictions must equal CpuBackend's"
    );
}

#[test]
fn same_seed_reproduces_trace_ledger_and_model() {
    let (features, labels) = dataset(13);
    let run = || {
        let cfg = with_fault(
            chaos_config(21),
            FaultConfig::default()
                .with_seed(0xD1CE)
                .with_transient_rate(0.25)
                .with_link_corruption_rate(0.15)
                .with_weight_upset_rate(0.1)
                .with_hang(0.1, 1e-3),
        )
        .with_supervision(Supervision::retries(8, 2e-3, 2.0))
        .with_quarantine_threshold(9);
        let pipeline = Pipeline::new(cfg);
        let outcome = pipeline
            .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
            .unwrap();
        let preds = pipeline
            .infer(&outcome.model, &features, ExecutionSetting::Tpu)
            .unwrap()
            .predictions;
        (fault_trace(&pipeline), outcome, preds)
    };
    let (trace_a, outcome_a, preds_a) = run();
    let (trace_b, outcome_b, preds_b) = run();
    assert!(!trace_a.is_empty(), "the mixed schedule never fired");
    assert_eq!(trace_a, trace_b, "same seed must replay the same faults");
    assert_eq!(outcome_a.model, outcome_b.model);
    assert_eq!(preds_a, preds_b);
    assert_eq!(outcome_a.ledger, outcome_b.ledger);
}

#[test]
fn fault_free_run_has_zero_fault_counters() {
    let (features, labels) = dataset(14);
    let pipeline = Pipeline::new(chaos_config(5));
    let outcome = pipeline
        .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
        .unwrap();
    assert!(fault_trace(&pipeline).is_empty());
    assert_eq!(outcome.ledger.faults_observed, 0);
    assert_eq!(outcome.ledger.retries, 0);
    assert_eq!(outcome.ledger.fallbacks, 0);
    assert_eq!(outcome.ledger.backoff_s, 0.0);
}

#[test]
fn bagged_members_recover_from_hard_device_failure() {
    let (features, labels) = dataset(15);
    // Retry budget of one with a breaker that never opens: every member
    // hits a *hard* backend error instead of degrading, which is what
    // exercises the bagging-level recovery.
    let cfg = with_fault(
        chaos_config(17),
        FaultConfig::default().with_seed(3).with_transient_rate(1.0),
    )
    .with_supervision(Supervision::retries(1, 2e-3, 2.0))
    .with_quarantine_threshold(50);

    // Fail (default): the hard error propagates.
    let failing = Pipeline::new(cfg.clone());
    assert!(failing
        .train(&features, &labels, CLASSES, ExecutionSetting::TpuBagging)
        .is_err());

    // RetrainOnHost: the full ensemble survives on the host.
    let retrained = Pipeline::new(
        cfg.clone()
            .with_member_recovery(MemberRecovery::RetrainOnHost),
    );
    let outcome = retrained
        .train(&features, &labels, CLASSES, ExecutionSetting::TpuBagging)
        .unwrap();
    match &outcome.telemetry {
        TrainingTelemetry::Bagged(stats) => {
            assert_eq!(stats.retrained_on_host, vec![0, 1, 2, 3]);
            assert!(stats.dropped_members.is_empty());
            assert_eq!(stats.sub_models.len(), 4);
        }
        other => panic!("expected bagged telemetry, got {other:?}"),
    }

    // Drop: with every member lost there is nothing left to merge.
    let dropping = Pipeline::new(cfg.with_member_recovery(MemberRecovery::Drop));
    assert!(dropping
        .train(&features, &labels, CLASSES, ExecutionSetting::TpuBagging)
        .is_err());
}

proptest! {
    // Each case trains four small pipelines; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism holds across the whole (seed, rates) space: two
    /// independent pipelines with the same chaos schedule replay the
    /// identical trace, model, and predictions.
    #[test]
    fn prop_seeded_chaos_is_reproducible(
        seed in 0u64..1_000,
        transient in 0.0f64..0.6,
        link in 0.0f64..0.3,
        upset in 0.0f64..0.2,
    ) {
        let (features, labels) = clustered_dataset(8, 8, CLASSES, 0.5, 5);
        let run = || {
            let cfg = with_fault(
                PipelineConfig::new(128)
                    .with_iterations(2)
                    .with_seed(3)
                    .with_batches(8, 8),
                FaultConfig::default()
                    .with_seed(seed)
                    .with_transient_rate(transient)
                    .with_link_corruption_rate(link)
                    .with_weight_upset_rate(upset),
            )
            .with_supervision(Supervision::retries(10, 2e-3, 2.0))
            .with_quarantine_threshold(11);
            let pipeline = Pipeline::new(cfg);
            let outcome = pipeline
                .train(&features, &labels, CLASSES, ExecutionSetting::Tpu)
                .unwrap();
            let preds = pipeline
                .infer(&outcome.model, &features, ExecutionSetting::Tpu)
                .unwrap()
                .predictions;
            (fault_trace(&pipeline), outcome, preds)
        };
        let (trace_a, outcome_a, preds_a) = run();
        let (trace_b, outcome_b, preds_b) = run();
        prop_assert_eq!(&trace_a, &trace_b);
        prop_assert_eq!(&outcome_a.model, &outcome_b.model);
        prop_assert_eq!(&preds_a, &preds_b);
        prop_assert_eq!(&outcome_a.ledger, &outcome_b.ledger);
        // The ledger counts every trace record that was charged.
        prop_assert_eq!(
            outcome_a.ledger.faults_observed >= outcome_a.ledger.retries,
            true
        );
    }
}
