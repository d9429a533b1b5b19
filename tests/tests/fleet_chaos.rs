//! Fleet chaos suite: seeded and targeted fault injection through the
//! supervised two-device serve pipeline and the pooled stage graphs.
//!
//! The fleet layer promises one invariant above all: **faults never
//! change numbers**. A pooled device that faults is retried, then
//! quarantined and drained to a sibling holding the same compiled
//! model, then to the bit-exact host executor — so predictions are
//! always bit-exact with the fault-free run, and losing devices only
//! degrades the *report* (which ordinals were quarantined). This suite
//! holds the stack to that invariant three ways:
//!
//! * **every real fault kind** (transient, link CRC, weight upset,
//!   hang) injected at rate 1.0 into the whole pool: the serve drains
//!   to the host with bit-exact predictions and a typed `Degraded`
//!   outcome naming the quarantined ordinals, with the devices' own
//!   `FaultTrace` records threaded into the report,
//! * **every stage × every firing index × every fault kind**, injected
//!   deterministically through a supervised pooled graph: a
//!   once-faulting firing retries in place; a persistent fault
//!   quarantines the seat and re-binds to a sibling — bit-exact either
//!   way,
//! * **reproducibility** — the same fault seed replays the identical
//!   outcome, report, and fault traces across independent servers
//!   (property-tested over seeds and rates).

use proptest::prelude::*;

use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, FiringCtx, Supervised, SupervisedFn, Supervision,
};
use hd_dataflow::{Resource, SdfGraph};
use hd_tensor::{ops, Matrix};
use hdc::{HdcModel, TrainConfig};
use hyperedge::fleet::{DevicePool, StageSeat};
use hyperedge::{wide_model, FrameworkError, PipelineConfig, TwoDeviceServer};
use integration_tests::clustered_dataset;
use tpu_sim::{FaultConfig, LinkDirection, SimError};
use wide_nn::compile;

const CLASSES: usize = 3;

fn trained() -> (HdcModel, Matrix) {
    let (features, labels) = clustered_dataset(18, 10, CLASSES, 0.4, 91);
    let config = TrainConfig::new(256).with_iterations(3).with_seed(92);
    let (model, _) = HdcModel::fit(&features, &labels, CLASSES, &config).unwrap();
    (model, features)
}

fn serve_config() -> PipelineConfig {
    PipelineConfig::new(256).with_batches(256, 16)
}

/// The four injectable fault kinds, constructible both as a seeded
/// device `FaultConfig` and as a synthetic `SimError` for targeted
/// injection.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Transient,
    Link,
    WeightUpset,
    Hang,
}

const KINDS: [Kind; 4] = [Kind::Transient, Kind::Link, Kind::WeightUpset, Kind::Hang];

impl Kind {
    fn config(self, seed: u64, rate: f64) -> FaultConfig {
        let f = FaultConfig::default().with_seed(seed);
        match self {
            Kind::Transient => f.with_transient_rate(rate),
            Kind::Link => f.with_link_corruption_rate(rate),
            Kind::WeightUpset => f.with_weight_upset_rate(rate),
            Kind::Hang => f.with_hang(rate, 1.0),
        }
    }

    fn error(self) -> SimError {
        match self {
            Kind::Transient => SimError::TransientInvokeFailure,
            Kind::Link => SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: 64,
            },
            Kind::WeightUpset => SimError::WeightCorruption,
            Kind::Hang => SimError::DeviceHang {
                elapsed_s: 1.0,
                deadline_s: 0.5,
            },
        }
    }
}

/// A hang only terminates under a firing deadline; every faulted config
/// in this suite serves under one so all four kinds are survivable.
fn resilient(config: &mut PipelineConfig) {
    config.supervision = config.supervision.with_deadline(Some(0.5));
}

#[test]
fn every_fault_kind_drains_the_pool_with_bit_exact_predictions() {
    let (model, features) = trained();
    let reference = TwoDeviceServer::new(&model, &serve_config(), &features).unwrap();
    let expected = reference.predict_sequential(&features).unwrap();

    for kind in KINDS {
        for spares in [0usize, 1] {
            let mut config = serve_config();
            config.device.fault = kind.config(0xF1EE7, 1.0);
            resilient(&mut config);
            let server = TwoDeviceServer::with_spares(&model, &config, &features, spares).unwrap();
            let outcome = server.predict_supervised(&features).unwrap();
            assert!(
                outcome.is_degraded(),
                "{kind:?}/{spares}: a dead pool must be reported"
            );
            let report = outcome.into_report();
            assert_eq!(
                report.predictions, expected,
                "{kind:?}/{spares}: failover must stay bit-exact"
            );
            // The typed degradation names every lost ordinal: the whole
            // pool died, so all seats are quarantined.
            assert_eq!(
                report.quarantined,
                (0..2 + spares).collect::<Vec<_>>(),
                "{kind:?}/{spares}"
            );
            // Both stages drained off their devices.
            assert!(
                report.supervision.iter().all(|s| s.rebinds > 0),
                "{kind:?}/{spares}: {:?}",
                report.supervision
            );
            assert!(report.supervision.iter().all(|s| s.faults > 0));
            // Satellite: the devices' own fault traces are threaded
            // through the serve report, per ordinal.
            assert!(
                !report.device_faults.is_empty(),
                "{kind:?}/{spares}: fault traces must reach the report"
            );
            for d in &report.device_faults {
                assert!(!d.records.is_empty());
                assert!(d.ordinal < 2 + spares);
            }
        }
    }
}

/// Compiles the serve half-networks and registers them with a fresh
/// pool of `n` devices (fault-free — targeted injection happens in the
/// executors).
fn pooled_halves(model: &HdcModel, features: &Matrix, n: usize) -> (DevicePool, u64, u64, Matrix) {
    use hdc::Encoder as _;
    let config = serve_config();
    let encoded = model.encoder().encode(features).unwrap();
    let encoder_compiled = compile::compile(
        &wide_model::encoder_network(model.encoder()).unwrap(),
        features,
        &config.device.target,
    )
    .unwrap();
    let score_compiled = compile::compile(
        &wide_model::scoring_network(model).unwrap(),
        &encoded,
        &config.device.target,
    )
    .unwrap();
    let pool = DevicePool::new(&config.device, n, config.quarantine_threshold);
    pool.register(1, encoder_compiled);
    pool.register(2, score_compiled);
    (pool, 1, 2, encoded)
}

/// The two-stage pooled serve graph used for targeted injection.
fn pooled_graph() -> ExecutablePlan {
    let mut g = SdfGraph::new("fleet-chaos-serve");
    let encode = g.add_stage("encode", Resource::Device(0), 1e-6);
    let score = g.add_stage("score", Resource::Device(1), 1e-6);
    g.add_channel(encode, score, 1, 1, Some(2));
    ExecutablePlan::validate(g).unwrap()
}

/// Runs the pooled two-stage graph under supervision, injecting
/// `kind.error()` into `victim_stage` at firing `kill_at` for the first
/// `times` attempts, and returns `(predictions, quarantined, stats)`.
fn run_pooled_with_injection(
    model: &HdcModel,
    features: &Matrix,
    victim_stage: usize,
    kill_at: u64,
    kind: Kind,
    times: u32,
) -> (Vec<usize>, Vec<usize>, Vec<runtime::StageSupervision>) {
    let chunk = 8usize;
    let rows = features.rows();
    let (pool, encoder_key, score_key, _) = pooled_halves(model, features, 3);
    let pool = std::sync::Arc::new(pool);
    let plan = pooled_graph();
    let encode_seat = StageSeat::new(std::sync::Arc::clone(&pool), encoder_key).unwrap();
    let score_seat = StageSeat::new(std::sync::Arc::clone(&pool), score_key).unwrap();
    let predictions = std::sync::Mutex::new(Vec::new());
    let injected = std::sync::atomic::AtomicU32::new(0);

    let report = {
        let encode_seat = &encode_seat;
        let score_seat = &score_seat;
        let predictions = &predictions;
        let injected = &injected;
        let inject = move |stage: usize, firing: u64| -> Result<(), FrameworkError> {
            if stage == victim_stage
                && firing == kill_at
                && injected.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < times
            {
                return Err(kind.error().into());
            }
            Ok(())
        };
        let encode_exec = move || -> SupervisedFn<'_, Matrix, FrameworkError> {
            Box::new(move |ctx: FiringCtx, _inputs: &mut [Matrix]| {
                inject(0, ctx.firing)?;
                let start = (ctx.firing as usize) * chunk;
                let end = (start + chunk).min(rows);
                let part = features.slice_rows(start, end)?;
                Ok((
                    vec![encode_seat.invoke(&part, ctx.deadline_s)?],
                    Fire::Continue,
                ))
            })
        };
        let score_exec = move || -> SupervisedFn<'_, Matrix, FrameworkError> {
            Box::new(move |ctx: FiringCtx, tokens: &mut [Matrix]| {
                inject(1, ctx.firing)?;
                let scores = score_seat.invoke(&tokens[0], ctx.deadline_s)?;
                let mut out = predictions.lock().unwrap();
                for r in 0..scores.rows() {
                    out.push(ops::argmax(scores.row(r))?);
                }
                Ok((Vec::new(), Fire::Continue))
            })
        };
        let supervision = Supervision::retries(1, 1e-3, 2.0);
        let bindings: Vec<Binding<'_, Matrix, FrameworkError>> = vec![
            Supervised::map(supervision, encode_exec())
                .retry_when(|e: &FrameworkError| e.device_fault())
                .or_quarantine(move |_f, _a, e: &FrameworkError| {
                    if !e.device_fault() {
                        return None;
                    }
                    encode_seat.rebind();
                    Some(encode_exec())
                })
                .into_binding(),
            Supervised::map(supervision, score_exec())
                .retry_when(|e: &FrameworkError| e.device_fault())
                .or_quarantine(move |_f, _a, e: &FrameworkError| {
                    if !e.device_fault() {
                        return None;
                    }
                    score_seat.rebind();
                    Some(score_exec())
                })
                .into_binding(),
        ];
        let chunks = rows.div_ceil(chunk) as u64;
        runtime::run(&plan, chunks, bindings).unwrap()
    };
    encode_seat.release();
    score_seat.release();
    (
        predictions.into_inner().unwrap(),
        pool.quarantined(),
        report.supervision,
    )
}

#[test]
fn every_stage_firing_and_kind_recovers_bit_exact() {
    let (model, features) = trained();
    let chunks = features.rows().div_ceil(8) as u64;
    let (expected, clean_quarantine, _) =
        run_pooled_with_injection(&model, &features, 0, u64::MAX, Kind::Transient, 0);
    assert!(clean_quarantine.is_empty());
    assert_eq!(expected.len(), features.rows());

    for stage in 0..2usize {
        for kill_at in 0..chunks {
            for kind in KINDS {
                // One fault: the retry budget absorbs it in place.
                let (preds, quarantined, stats) =
                    run_pooled_with_injection(&model, &features, stage, kill_at, kind, 1);
                assert_eq!(preds, expected, "{stage}/{kill_at}/{kind:?} retried");
                assert!(quarantined.is_empty(), "{stage}/{kill_at}/{kind:?}");
                assert_eq!(stats[stage].faults, 1);
                assert_eq!(stats[stage].retries, 1);
                assert_eq!(stats[stage].rebinds, 0);
                assert!(stats[1 - stage].is_clean());

                // A persistent fault: the budget exhausts, the seat
                // quarantines its device and drains to a sibling.
                let (preds, quarantined, stats) =
                    run_pooled_with_injection(&model, &features, stage, kill_at, kind, 2);
                assert_eq!(preds, expected, "{stage}/{kill_at}/{kind:?} drained");
                assert_eq!(
                    quarantined,
                    vec![stage],
                    "{stage}/{kill_at}/{kind:?}: the victim stage's seat (ordinal \
                     {stage}) must be the one quarantined"
                );
                assert_eq!(stats[stage].faults, 2);
                assert_eq!(stats[stage].rebinds, 1);
                assert!(stats[1 - stage].is_clean());
            }
        }
    }
}

proptest! {
    // Each case builds four servers over a real device pool; keep the
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over the whole (seed, rates) space: pooled serving is *always*
    /// bit-exact with the fault-free run — degradation is a report —
    /// and the same chaos schedule replays the identical outcome,
    /// supervision counters, fault traces, and quarantine set.
    #[test]
    fn prop_pooled_serve_is_bit_exact_and_reproducible(
        seed in 0u64..1_000,
        transient in 0.0f64..0.5,
        link in 0.0f64..0.3,
        upset in 0.0f64..0.2,
    ) {
        let (model, features) = trained();
        let reference = TwoDeviceServer::new(&model, &serve_config(), &features).unwrap();
        let expected = reference.predict_sequential(&features).unwrap();

        let run = || {
            let mut config = serve_config();
            config.device.fault = FaultConfig::default()
                .with_seed(seed)
                .with_transient_rate(transient)
                .with_link_corruption_rate(link)
                .with_weight_upset_rate(upset);
            resilient(&mut config);
            let server =
                TwoDeviceServer::with_spares(&model, &config, &features, 1).unwrap();
            server.predict_supervised(&features).unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.report().predictions, &expected);
        prop_assert_eq!(a.report(), b.report(), "same seed must replay identically");
        prop_assert_eq!(a.is_degraded(), b.is_degraded());
        if a.is_degraded() {
            prop_assert!(!a.report().quarantined.is_empty());
        } else {
            prop_assert!(a.report().quarantined.is_empty());
        }
    }
}
