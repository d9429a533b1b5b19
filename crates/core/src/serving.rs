//! Two-device pipelined serving, executed purely from a declared SDF
//! graph with fleet-level failover.
//!
//! The paper's inference model `F -> tanh(F x B) x C` is usually merged
//! onto one accelerator. This module splits it across two simulated
//! devices — encoding (`tanh(F x B)`) on device 0, scoring (`H x C`) on
//! device 1 — so consecutive chunks overlap: while device 1 scores chunk
//! `i`, device 0 already encodes chunk `i+1`.
//!
//! Unlike the training schedules that were *migrated* onto the
//! SDF runtime, this one never had a hand-written implementation: it is
//! born as the declared [`schedule::encode_score_graph`], verified by the
//! same analyzer that backs `hyperedge verify --schedule`, and executed
//! by binding the pool's [`Device`] handles to its stages in a
//! [`runtime::Session`] that the server starts once, as the paper's edge
//! deployment compiles once and then invokes many times. The encode
//! stage runs on the caller's thread of each request, over the
//! request's rows; the score stage runs on the session's persistent
//! worker, which owns its seat in the pool and its prediction sink and
//! receives each request's encoded chunks as channel tokens.
//!
//! Every stage runs under the runtime's [`Supervision`]: device faults
//! retry with the configured backoff, and once a device accumulates
//! enough consecutive failures the [`DevicePool`] quarantines it and the
//! stage's remaining firings re-bind to a sibling holding (or loading)
//! the same compiled half-network — falling back to the pool's bit-exact
//! host executor only when the pool is exhausted. Predictions are
//! therefore **always bit-exact** with the fault-free run; losing
//! devices degrades the *report* ([`ServeOutcome::Degraded`] names the
//! quarantined ordinals), never the numbers.

use std::sync::Arc;

use parking_lot::Mutex;

use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, FiringCtx, RunError, StageSupervision, Supervised,
    SupervisedFn, Supervision,
};
use hd_tensor::{ops, Matrix};
use hdc::{Encoder, HdcModel};
use tpu_sim::timing::ModelDims;
use tpu_sim::{Device, DeviceConfig};
use wide_nn::compile;

use crate::backend::{fingerprint, CALIBRATION_ROWS};
use crate::config::PipelineConfig;
use crate::fleet::{DeviceFaultSummary, DevicePool, StageSeat};
use crate::schedule;
use crate::wide_model;

/// Fingerprint tags for the two serving half-networks (distinct from the
/// TPU backend's encoder/inference tags so pool keys never collide with
/// cache keys conceptually, even though the stores are separate).
const TAG_SERVE_ENCODER: u64 = 11;
const TAG_SERVE_SCORE: u64 = 12;

/// The encode stage's supervised executor: slice the firing's chunk out
/// of the batch (derived from `ctx.firing`, so retries are idempotent)
/// and encode it on whatever device the seat currently holds.
fn encode_executor<'env>(
    seat: &'env StageSeat,
    features: &'env Matrix,
    chunk: usize,
) -> SupervisedFn<'env, Matrix, crate::FrameworkError> {
    let rows = features.rows();
    Box::new(move |ctx: FiringCtx, _inputs: &mut [Matrix]| {
        let start = (ctx.firing as usize) * chunk;
        let end = (start + chunk).min(rows);
        let part = features.slice_rows(start, end)?;
        Ok((vec![seat.invoke(&part, ctx.deadline_s)?], Fire::Continue))
    })
}

/// The score stage's supervised executor: score the encoded chunk on the
/// seat's device and push per-row argmax predictions into the shared
/// sink. The push happens only after a fully successful invocation, so a
/// retried firing never double-counts.
fn score_executor(
    seat: Arc<StageSeat>,
    predictions: Arc<Mutex<Vec<usize>>>,
) -> SupervisedFn<'static, Matrix, crate::FrameworkError> {
    Box::new(move |ctx: FiringCtx, tokens: &mut [Matrix]| {
        let scores = seat.invoke(&tokens[0], ctx.deadline_s)?;
        let mut out = predictions.lock();
        for r in 0..scores.rows() {
            out.push(ops::argmax(scores.row(r))?);
        }
        Ok((Vec::new(), Fire::Continue))
    })
}

/// A serve stage under the server's supervision: device faults retry,
/// then `rebind` drains the stage's seat to a sibling (or the host) and
/// the failed firing — and every later one — re-runs on a fresh
/// `executor`, which dispatches through that seat.
fn supervised<'env>(
    supervision: Supervision,
    rebind: impl Fn() + Send + 'env,
    executor: impl Fn() -> SupervisedFn<'env, Matrix, crate::FrameworkError> + Send + 'env,
) -> Binding<'env, Matrix, crate::FrameworkError> {
    Supervised::map(supervision, executor())
        .retry_when(|e: &crate::FrameworkError| e.device_fault())
        .or_quarantine(move |_firing, _attempts, e: &crate::FrameworkError| {
            if !e.device_fault() {
                return None;
            }
            rebind();
            Some(executor())
        })
        .into_binding()
}

/// The declared serve schedule for chunks of `samples` rows, validated.
fn serve_plan(
    device: &DeviceConfig,
    encoder: &ModelDims,
    score: &ModelDims,
    samples: usize,
) -> crate::Result<ExecutablePlan> {
    Ok(ExecutablePlan::validate(schedule::encode_score_graph(
        device, encoder, score, samples,
    ))?)
}

/// The stage seats one request leased, released when the request ends
/// however it ends: a failed lease, a failed run or a panic.
struct Leases<'s>(Vec<&'s StageSeat>);

impl<'s> Leases<'s> {
    /// Leases `seats` in order, releasing those already leased if one
    /// fails.
    fn take(seats: [&'s StageSeat; 2]) -> crate::Result<Self> {
        let mut leases = Leases(Vec::with_capacity(seats.len()));
        for seat in seats {
            seat.lease()?;
            leases.0.push(seat);
        }
        Ok(leases)
    }
}

impl Drop for Leases<'_> {
    fn drop(&mut self) {
        for seat in &self.0 {
            seat.release();
        }
    }
}

/// What a supervised serve actually did: the predictions plus the
/// per-stage supervision counters and per-device fault traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Predicted class per input row, in batch order.
    pub predictions: Vec<usize>,
    /// Per-stage supervision counters and fault traces, in graph stage
    /// order (`encode`, `score`).
    pub supervision: Vec<StageSupervision>,
    /// Fault records each pooled device appended during this serve.
    pub device_faults: Vec<DeviceFaultSummary>,
    /// Pool ordinals quarantined as of the end of the serve, ascending.
    pub quarantined: Vec<usize>,
}

/// Outcome of a supervised serve. Both arms carry bit-exact
/// predictions — the sibling devices and the host executor run the same
/// int8 datapath — so `Degraded` reports *capacity* loss, not accuracy
/// loss.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Every firing completed on the originally seated devices.
    Clean(ServeReport),
    /// At least one device was quarantined; remaining firings drained
    /// to siblings or the host. The report names the lost ordinals.
    Degraded(ServeReport),
}

impl ServeOutcome {
    /// The report, whichever arm.
    #[must_use]
    pub fn report(&self) -> &ServeReport {
        match self {
            ServeOutcome::Clean(r) | ServeOutcome::Degraded(r) => r,
        }
    }

    /// Consumes the outcome into its report.
    #[must_use]
    pub fn into_report(self) -> ServeReport {
        match self {
            ServeOutcome::Clean(r) | ServeOutcome::Degraded(r) => r,
        }
    }

    /// True for the degraded arm.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServeOutcome::Degraded(_))
    }
}

/// A two-accelerator inference server over a health-tracked
/// [`DevicePool`]: the encoder half-network seated on device 0, the
/// scoring half-network on device 1, driven chunk by chunk through the
/// declared two-device serve schedule under per-stage supervision.
///
/// Both halves are compiled once at construction, registered with the
/// pool as pristine reload/fallback copies, and loaded onto their
/// devices, and the serve session's score worker starts then too, so
/// repeated [`predict`](TwoDeviceServer::predict) calls pay invocation
/// cost only. Each request leases the two stage seats and releases them
/// when it ends, so between requests no device is leased. Requests to
/// one server run one at a time. Extra pool members
/// ([`with_spares`](TwoDeviceServer::with_spares)) serve as failover
/// siblings: they hold no model until a quarantine drains a stage onto
/// them. Dropping the server stops and joins the score worker.
pub struct TwoDeviceServer {
    pool: Arc<DevicePool>,
    encode_seat: StageSeat,
    score_seat: Arc<StageSeat>,
    /// The score stage's prediction sink, emptied by each request.
    predictions: Arc<Mutex<Vec<usize>>>,
    session: Mutex<runtime::Session<Matrix, crate::FrameworkError>>,
    encoder_dims: ModelDims,
    score_dims: ModelDims,
    device_config: DeviceConfig,
    chunk: usize,
    supervision: Supervision,
}

impl TwoDeviceServer {
    /// Compiles the model's two half-networks onto a two-device pool
    /// (ordinals 0 and 1 — the resources the declared schedule's stages
    /// are pinned to). `calibration` rows calibrate the encoder half
    /// directly; the scoring half calibrates on their host-encoded
    /// image, since its inputs live in hypervector space.
    ///
    /// Both device ledgers are reset after the models load, so measured
    /// elapsed time covers invocations only — directly comparable to
    /// the schedule's analytic critical path.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::InvalidConfig`](crate::FrameworkError::InvalidConfig)
    /// if `config` fails [`PipelineConfig::validate`]; compilation or
    /// model-load failures (e.g. a parameter buffer too small for a
    /// half-network), or shape errors from calibration.
    pub fn new(
        model: &HdcModel,
        config: &PipelineConfig,
        calibration: &Matrix,
    ) -> crate::Result<Self> {
        Self::with_spares(model, config, calibration, 0)
    }

    /// [`TwoDeviceServer::new`] with `spares` extra pooled devices
    /// available as quarantine-failover siblings.
    ///
    /// # Errors
    ///
    /// Same as [`TwoDeviceServer::new`].
    pub fn with_spares(
        model: &HdcModel,
        config: &PipelineConfig,
        calibration: &Matrix,
        spares: usize,
    ) -> crate::Result<Self> {
        config.validate()?;
        let rows = calibration.rows().min(CALIBRATION_ROWS);
        let feature_cal = calibration.slice_rows(0, rows)?;
        let encoded_cal = model.encoder().encode(&feature_cal)?;
        let encoder_compiled = compile::compile(
            &wide_model::encoder_network(model.encoder())?,
            &feature_cal,
            &config.device.target,
        )?;
        let score_compiled = compile::compile(
            &wide_model::scoring_network(model)?,
            &encoded_cal,
            &config.device.target,
        )?;
        let encoder_dims = ModelDims::from_compiled(&encoder_compiled);
        let score_dims = ModelDims::from_compiled(&score_compiled);
        let encoder_key = fingerprint(TAG_SERVE_ENCODER, &[&feature_cal]);
        let score_key = fingerprint(TAG_SERVE_SCORE, &[&encoded_cal]);

        let pool = Arc::new(DevicePool::new(
            &config.device,
            2 + spares,
            config.quarantine_threshold,
        ));
        pool.register(encoder_key, encoder_compiled);
        pool.register(score_key, score_compiled);
        // Seat the halves on their schedule resources now (encoder →
        // device 0, score → device 1 by the pool's placement order) so
        // construction pays the load cost once, then release the leases
        // for predict-time seating.
        let encode_seat = StageSeat::new(Arc::clone(&pool), encoder_key)?;
        let score_seat = Arc::new(StageSeat::new(Arc::clone(&pool), score_key)?);
        debug_assert_eq!(
            (encode_seat.ordinal(), score_seat.ordinal()),
            (Some(0), Some(1))
        );
        encode_seat.release();
        score_seat.release();
        pool.device(0).reset_ledger();
        pool.device(1).reset_ledger();

        let chunk = config.infer_batch.max(1);
        let plan = serve_plan(&config.device, &encoder_dims, &score_dims, chunk)?;
        let predictions = Arc::new(Mutex::new(Vec::new()));
        let score = {
            let (seat, rebind_seat) = (Arc::clone(&score_seat), Arc::clone(&score_seat));
            let predictions = Arc::clone(&predictions);
            supervised(
                config.supervision,
                move || rebind_seat.rebind(),
                move || score_executor(Arc::clone(&seat), Arc::clone(&predictions)),
            )
        };
        // Stage order is (encode, score): encode reads the request's
        // rows, so it is the stage each request runs on its own thread.
        let session = runtime::Session::new(&plan, vec![None, Some(score)])
            .map_err(|e| crate::FrameworkError::InvalidConfig(e.to_string()))?;

        Ok(TwoDeviceServer {
            pool,
            encode_seat,
            score_seat,
            predictions,
            session: Mutex::new(session),
            encoder_dims,
            score_dims,
            device_config: config.device.clone(),
            chunk,
            supervision: config.supervision,
        })
    }

    /// The server's device pool.
    #[must_use]
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The device holding the encoder half (schedule resource
    /// `Device(0)`).
    pub fn encode_device(&self) -> &Device {
        self.pool.device(0)
    }

    /// The device holding the scoring half (schedule resource
    /// `Device(1)`).
    pub fn score_device(&self) -> &Device {
        self.pool.device(1)
    }

    /// The validated, executable plan for serving `rows` samples: the
    /// declared [`schedule::encode_score_graph`] sized for this server's
    /// chunk, run through the runtime's validator.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::InvalidConfig`](crate::FrameworkError::InvalidConfig)
    /// if the declaration fails validation (it cannot, by construction).
    pub fn plan(&self, rows: usize) -> crate::Result<ExecutablePlan> {
        serve_plan(
            &self.device_config,
            &self.encoder_dims,
            &self.score_dims,
            self.chunk.min(rows).max(1),
        )
    }

    /// Serves `features` through the pipelined two-device schedule under
    /// full stage supervision, returning the typed outcome: per-stage
    /// fault/retry/failover counters, per-device fault traces, and
    /// whether any device was quarantined along the way. Chunk results
    /// collect in firing order, so the output order is the batch order
    /// and the predictions are bit-exact with
    /// [`predict_sequential`](TwoDeviceServer::predict_sequential) —
    /// faults or no faults.
    ///
    /// # Errors
    ///
    /// Non-fault device errors (e.g. batch width mismatch) or shape
    /// errors; injected device faults are absorbed by supervision and
    /// the fleet's failover instead.
    pub fn predict_supervised(&self, features: &Matrix) -> crate::Result<ServeOutcome> {
        let rows = features.rows();
        let chunk = self.chunk;
        let plan = self.plan(rows)?;
        let mut session = self.session.lock();
        let leases = Leases::take([&self.encode_seat, &self.score_seat])?;
        let fault_snapshot = self.pool.fault_snapshot();
        let quarantined_before = self.pool.quarantined();
        *self.predictions.lock() = Vec::with_capacity(rows);
        let seat = &self.encode_seat;
        let encode = supervised(
            self.supervision,
            || seat.rebind(),
            || encode_executor(seat, features, chunk),
        );
        let chunks = rows.div_ceil(chunk) as u64;
        let run = session.run(&plan, chunks, encode);
        drop(leases);
        let predictions = std::mem::take(&mut *self.predictions.lock());
        let report = run.map_err(|e| match e {
            RunError::Stage { error, .. } => error,
            RunError::Protocol { stage, message } => crate::FrameworkError::InvalidConfig(format!(
                "serve schedule protocol violation at stage {stage}: {message}"
            )),
        })?;

        let quarantined = self.pool.quarantined();
        let degraded = quarantined != quarantined_before;
        let report = ServeReport {
            predictions,
            supervision: report.supervision,
            device_faults: self.pool.fault_delta(&fault_snapshot),
            quarantined,
        };
        Ok(if degraded {
            ServeOutcome::Degraded(report)
        } else {
            ServeOutcome::Clean(report)
        })
    }

    /// Serves `features` through the pipelined two-device schedule,
    /// returning the predicted class per row. This is
    /// [`predict_supervised`](TwoDeviceServer::predict_supervised) with
    /// the report dropped: faults on either device are absorbed by
    /// supervision and fleet failover, and the predictions are bit-exact
    /// either way.
    ///
    /// # Errors
    ///
    /// Same as [`predict_supervised`](TwoDeviceServer::predict_supervised).
    pub fn predict(&self, features: &Matrix) -> crate::Result<Vec<usize>> {
        Ok(self.predict_supervised(features)?.into_report().predictions)
    }

    /// The sequential reference: the same per-chunk device work as
    /// [`predict`](TwoDeviceServer::predict), executed as a plain loop
    /// with no overlap and no supervision. Identical outputs (same
    /// devices, same compiled halves, same chunking); simulated time
    /// accumulates identically per device, but wall-clock gains nothing
    /// from the second accelerator.
    ///
    /// # Errors
    ///
    /// Device errors (batch width mismatch, injected faults — this
    /// reference carries no resilience) or shape errors.
    pub fn predict_sequential(&self, features: &Matrix) -> crate::Result<Vec<usize>> {
        let encode_device = self.pool.device(0);
        let score_device = self.pool.device(1);
        let mut predictions = Vec::with_capacity(features.rows());
        let mut start = 0;
        while start < features.rows() {
            let end = (start + self.chunk).min(features.rows());
            let part = features.slice_rows(start, end)?;
            let (encoded, _) = encode_device.invoke_overlapped(&part)?;
            let (scores, _) = score_device.invoke_overlapped(&encoded)?;
            for r in 0..scores.rows() {
                predictions.push(ops::argmax(scores.row(r))?);
            }
            start = end;
        }
        Ok(predictions)
    }

    /// Measured pipelined elapsed seconds: the busiest pooled device's
    /// total ledger time. The stages run on disjoint accelerators, so
    /// the schedule's wall-clock is the bottleneck resource's busy time —
    /// exactly what [`schedule::predicted_serve_elapsed_s`] computes from
    /// the declared graph.
    pub fn measured_elapsed_s(&self) -> f64 {
        (0..self.pool.len())
            .map(|i| self.pool.device(i).ledger().total_s)
            .fold(0.0, f64::max)
    }

    /// The analytic prediction for serving `total_samples` rows, from the
    /// declared schedule alone.
    ///
    /// # Errors
    ///
    /// Same as [`schedule::predicted_serve_elapsed_s`].
    pub fn predicted_elapsed_s(&self, total_samples: usize) -> crate::Result<f64> {
        schedule::predicted_serve_elapsed_s(
            &self.device_config,
            &self.encoder_dims,
            &self.score_dims,
            total_samples,
            self.chunk,
        )
    }

    /// Resets every pooled device's ledger (keeps the resident models).
    pub fn reset_ledgers(&self) {
        for i in 0..self.pool.len() {
            self.pool.device(i).reset_ledger();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DeviceHealth;
    use hd_tensor::rng::DetRng;
    use hdc::TrainConfig;
    use tpu_sim::FaultConfig;

    fn trained() -> (HdcModel, Matrix) {
        let mut rng = DetRng::new(71);
        let mut features = Matrix::random_normal(70, 12, &mut rng);
        let labels: Vec<usize> = (0..70).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 3.0;
        }
        let config = TrainConfig::new(256).with_iterations(4).with_seed(72);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        (model, features)
    }

    #[test]
    fn construction_rejects_an_invalid_config() {
        let (model, features) = trained();
        let zero = PipelineConfig::new(256).with_quarantine_threshold(0);
        let nan = PipelineConfig::new(256).with_supervision(Supervision::retries(3, f64::NAN, 2.0));
        for config in [zero, nan] {
            let err = TwoDeviceServer::with_spares(&model, &config, &features, 1)
                .err()
                .expect("an invalid config must not build a server");
            assert!(
                matches!(err, crate::FrameworkError::InvalidConfig(_)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn devices_bind_distinct_schedule_resources() {
        let (model, features) = trained();
        let server = TwoDeviceServer::new(&model, &PipelineConfig::new(256), &features).unwrap();
        assert_eq!(
            server.encode_device().resource(),
            hd_dataflow::Resource::Device(0)
        );
        assert_eq!(
            server.score_device().resource(),
            hd_dataflow::Resource::Device(1)
        );
    }

    #[test]
    fn pipelined_serve_is_bit_exact_with_sequential_reference() {
        let (model, features) = trained();
        let config = PipelineConfig::new(256).with_batches(256, 16);
        let pipelined = TwoDeviceServer::new(&model, &config, &features).unwrap();
        let reference = TwoDeviceServer::new(&model, &config, &features).unwrap();
        // 70 rows / chunk 16: four full chunks plus a partial tail.
        let got = pipelined.predict(&features).unwrap();
        let expected = reference.predict_sequential(&features).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.len(), features.rows());
    }

    #[test]
    fn fault_free_serve_reports_clean_with_zero_counters() {
        let (model, features) = trained();
        let config = PipelineConfig::new(256).with_batches(256, 16);
        let server = TwoDeviceServer::new(&model, &config, &features).unwrap();
        let outcome = server.predict_supervised(&features).unwrap();
        assert!(!outcome.is_degraded());
        let report = outcome.report();
        assert_eq!(report.predictions.len(), features.rows());
        assert!(report.supervision.iter().all(|s| s.is_clean()));
        assert!(report.device_faults.is_empty());
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn a_failed_request_leaves_no_seat_leased() {
        let (model, features) = trained();
        let config = PipelineConfig::new(256).with_batches(256, 16);
        let server = TwoDeviceServer::new(&model, &config, &features).unwrap();
        let too_wide = Matrix::zeros(5, features.cols() + 1);
        let err = server.predict_supervised(&too_wide).unwrap_err();
        assert!(!err.device_fault(), "{err:?}");
        assert!(
            !format!("{:?}", server.pool()).contains("leased: true"),
            "{:?}",
            server.pool()
        );
        // The next request is seated on both devices again, not the host.
        server.reset_ledgers();
        assert!(!server.predict_supervised(&features).unwrap().is_degraded());
        assert!(server.encode_device().ledger().total_s > 0.0);
        assert!(server.score_device().ledger().total_s > 0.0);
    }

    #[test]
    fn measured_elapsed_matches_declared_prediction() {
        let (model, features) = trained();
        let config = PipelineConfig::new(256).with_batches(256, 16);
        let server = TwoDeviceServer::new(&model, &config, &features).unwrap();
        server.predict(&features).unwrap();
        let predicted = server.predicted_elapsed_s(features.rows()).unwrap();
        let measured = server.measured_elapsed_s();
        assert!(
            (measured - predicted).abs() < 1e-12,
            "measured {measured} vs predicted {predicted}"
        );
        assert!(predicted > 0.0);
    }

    #[test]
    fn serve_schedule_plan_is_verified_and_bounded() {
        let (model, features) = trained();
        let server = TwoDeviceServer::new(&model, &PipelineConfig::new(256), &features).unwrap();
        let plan = server.plan(features.rows()).unwrap();
        assert_eq!(plan.repetition(), &[1, 1]);
        assert_eq!(plan.capacities(), &[crate::schedule::INVOKE_BUFFERS]);
    }

    #[test]
    fn dead_encode_device_drains_to_spare_with_bit_exact_predictions() {
        let (model, features) = trained();
        let clean_config = PipelineConfig::new(256).with_batches(256, 16);
        let reference = TwoDeviceServer::new(&model, &clean_config, &features).unwrap();
        let expected = reference.predict_sequential(&features).unwrap();

        let mut config = clean_config.clone();
        config.device.fault = FaultConfig::default()
            .with_seed(2024)
            .with_transient_rate(1.0);
        let server = TwoDeviceServer::with_spares(&model, &config, &features, 1).unwrap();
        let outcome = server.predict_supervised(&features).unwrap();
        assert!(outcome.is_degraded(), "a dead device must be reported");
        let report = outcome.into_report();
        // Faults on a rate-1.0 device quarantine it and the firing
        // drains — first to the spare (also dead at rate 1.0), then to
        // the host, which is bit-exact with the device datapath.
        assert_eq!(report.predictions, expected);
        assert!(!report.quarantined.is_empty());
        assert!(report.supervision.iter().any(|s| s.rebinds > 0));
        assert!(!report.device_faults.is_empty());
        assert_eq!(server.pool.health(0), DeviceHealth::Quarantined);
    }
}
