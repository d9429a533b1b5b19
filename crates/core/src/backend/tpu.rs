//! The accelerator backend: one persistent simulated device, held in a
//! one-device [`DevicePool`].

use std::sync::Arc;

use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, FiringCtx, RunError, Supervised, Supervision,
};
use parking_lot::Mutex;

use cpu_model::{cost, PlatformSpec};
use hd_tensor::{ops, Matrix};
use hdc::{ClassHypervectors, Encoder, Executor, HdcError, HdcModel, TrainConfig, TrainStats};
use tpu_sim::timing::ModelDims;
use tpu_sim::{Device, DeviceConfig};
use wide_nn::{compile, Model};

use crate::backend::{fingerprint, BackendLedger, ExecutionBackend, CALIBRATION_ROWS};
use crate::config::PipelineConfig;
use crate::fleet::{DeviceHealth, DevicePool};
use crate::wide_model;

/// Network-identity tags mixed into the registry fingerprint so an
/// encoder network and an inference network over the same base matrix
/// never collide.
const TAG_ENCODER: u64 = 1;
const TAG_INFERENCE: u64 = 2;

/// The pool seat of the backend's one device.
const SEAT: usize = 0;

/// The simulated-Edge-TPU backend.
///
/// Owns **one** persistent [`Device`] for its whole lifetime, as a
/// one-device [`DevicePool`]. The pool's registry keys compiled models by
/// network identity (weight and calibration bits), so repeated encode
/// batches and bagging's `M` sub-models compile each distinct network
/// exactly once, and consecutive calls with the resident model skip the
/// parameter reload entirely — the one-model-resident-on-chip behaviour
/// the paper exploits. The pool also counts consecutive device failures,
/// reloads pristine weights after an upset, and quarantines the device
/// at [`PipelineConfig::quarantine_threshold`]; a quarantined device
/// degrades every later accelerator call to the host.
///
/// The update phase deliberately fails: compiling the class-update graph
/// for the accelerator target is rejected with
/// [`wide_nn::NnError::UnsupportedOp`], and [`TpuBackend::train_classes`]
/// surfaces that as a typed [`HdcError::Backend`]. Use
/// [`HybridBackend`](crate::backend::HybridBackend) for the paper's
/// placement.
pub struct TpuBackend {
    spec: PlatformSpec,
    encode_chunk: usize,
    infer_chunk: usize,
    supervision: Supervision,
    pool: DevicePool,
    /// Shared with the pool's load observer, which charges every model
    /// load the pool performs.
    ledger: Arc<Mutex<BackendLedger>>,
    /// Serializes schedule runs on the one device: residency must not
    /// change underneath an executing invoke schedule.
    run_lock: Mutex<()>,
}

impl TpuBackend {
    /// Builds the accelerator backend, constructing its one persistent
    /// device.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        let ledger = Arc::new(Mutex::new(BackendLedger {
            devices_created: 1,
            ..BackendLedger::default()
        }));
        let loads = Arc::clone(&ledger);
        let pool = DevicePool::new(&config.device, 1, config.quarantine_threshold).on_load(
            move |_ordinal, report| {
                let mut ledger = loads.lock();
                ledger.model_loads += 1;
                ledger.model_gen_s += report.total_s;
            },
        );
        TpuBackend {
            spec: config.platform.spec(),
            encode_chunk: config.encode_batch,
            infer_chunk: config.infer_batch,
            supervision: config.supervision,
            pool,
            ledger,
            run_lock: Mutex::new(()),
        }
    }

    /// The backend's persistent device.
    pub fn device(&self) -> &Device {
        self.pool.device(SEAT)
    }

    /// The device configuration this backend simulates under (used to
    /// parameterize declared schedule graphs with its cost model).
    fn device_config(&self) -> &DeviceConfig {
        self.device().config()
    }

    /// Whether the device is quarantined: it failed
    /// [`PipelineConfig::quarantine_threshold`] consecutive attempts and
    /// every later accelerator call degrades to the host CPU.
    pub fn breaker_open(&self) -> bool {
        self.pool.health(SEAT) == DeviceHealth::Quarantined
    }

    /// Number of compiled models in the pool's registry.
    pub fn cached_models(&self) -> usize {
        self.pool.model_count()
    }

    /// Injects silent weight faults into the *resident* model on the
    /// device and drops its residency (see
    /// [`DevicePool::inject_weight_faults`]), so the next accelerator
    /// call reloads the pristine compiled model. Returns flipped bits.
    ///
    /// # Errors
    ///
    /// Returns the device's error if no model is resident.
    pub fn inject_weight_faults(
        &self,
        rate: f64,
        rng: &mut hd_tensor::rng::DetRng,
    ) -> crate::Result<usize> {
        let _run = self.run_lock.lock();
        self.pool.inject_weight_faults(SEAT, rate, rng)
    }

    fn calibration(batch: &Matrix) -> crate::Result<Matrix> {
        let rows = batch.rows().min(CALIBRATION_ROWS);
        Ok(batch.slice_rows(0, rows)?)
    }

    /// Compiles (or fetches) the network for `key`, ensures it is
    /// resident on the device, and invokes it over `batch` in `chunk`-row
    /// pieces under the configured [`Supervision`]: each chunk gets up to
    /// `max_retries` retried attempts with deterministic exponential
    /// backoff charged to the simulated clock, the pool reloads the
    /// pristine model after detected weight corruption, and once the pool
    /// quarantines the device the whole batch is abandoned to the host
    /// fallback. Device invocations use the double-buffered
    /// [`Device::invoke_overlapped_with_deadline`] schedule, so each
    /// chunk's simulated time is the critical-path max of its transfer and
    /// compute legs.
    ///
    /// Returns `(None, wasted_s)` when degraded — the caller must rerun
    /// the batch on the host and still charge the wasted device seconds —
    /// or `(Some(output), device_s)` on success.
    fn run_cached(
        &self,
        key: u64,
        build: impl FnOnce() -> crate::Result<(Model, Matrix)>,
        batch: &Matrix,
        chunk: usize,
    ) -> crate::Result<(Option<Matrix>, f64)> {
        if self.breaker_open() {
            return Ok((None, 0.0));
        }
        // One schedule run at a time on the one device.
        let _run = self.run_lock.lock();
        let dims = match self.pool.model_dims(key) {
            Some(dims) => {
                self.ledger.lock().cache_hits += 1;
                dims
            }
            None => {
                let (network, calibration) = build()?;
                let compiled =
                    compile::compile(&network, &calibration, &self.device_config().target)?;
                let mut ledger = self.ledger.lock();
                ledger.compilations += 1;
                ledger.model_gen_s += cost::model_generation_s(compiled.param_bytes());
                drop(ledger);
                let dims = ModelDims::from_compiled(&compiled);
                self.pool.register(key, compiled);
                dims
            }
        };

        // Validate the declared overlapped-invoke SDF graph (rates, buffer
        // bounds, deadlock-freedom) into the executable plan the runtime
        // will drive.
        let samples = chunk.min(batch.rows()).max(1);
        let plan = ExecutablePlan::validate(crate::schedule::overlapped_invoke_graph(
            self.device_config(),
            &dims,
            samples,
        ))?;
        // The lease loads the model unless it is already resident.
        let Some(seat) = self.pool.lease(key)? else {
            return Ok((None, 0.0));
        };

        // Execute the verified plan through the generic SDF runtime:
        // dma_in slices chunks onto the link, compute runs the pooled
        // device invoke under the configured supervision (bounded retries
        // with deterministic backoff; the pool reloads pristine weights
        // after an upset, and a quarantined device escalates to a
        // graceful stop), dma_out stitches finished chunks into one
        // buffer. The bounded stage channels are the declared
        // INVOKE_BUFFERS double-buffer; the device serializes invocations
        // internally.
        let before = self.device().ledger();
        let mut backoff_total = 0.0f64;
        let mut degraded = false;
        // Allocated here, on the calling thread, rather than lazily on the
        // dma_out stage thread: a large buffer first touched by a
        // short-lived thread is served from (and kept in) that thread's
        // malloc arena, which raises peak RSS without holding more live
        // memory. An empty batch allocates nothing and keeps its error.
        let mut stitched = (batch.rows() > 0).then(|| Matrix::zeros(batch.rows(), dims.output_dim));
        {
            let backoff_total = &mut backoff_total;
            let degraded = &mut degraded;
            let stitched = &mut stitched;
            let rows = batch.rows();
            let bindings: Vec<Binding<'_, (usize, Matrix), crate::FrameworkError>> = vec![
                // dma_in derives its slice from the firing index, so a
                // replayed firing is idempotent by construction.
                Supervised::map(Supervision::none(), move |ctx: FiringCtx, _inputs| {
                    let start = (ctx.firing as usize) * chunk;
                    let end = (start + chunk).min(rows);
                    Ok((vec![(start, batch.slice_rows(start, end)?)], Fire::Continue))
                })
                .into_binding(),
                Supervised::map(self.supervision, move |ctx: FiringCtx, tokens: &mut [_]| {
                    if ctx.attempt > 0 {
                        // The supervisor granted a retry: charge its
                        // simulated backoff to the backend ledgers.
                        *backoff_total += ctx.backoff_s;
                        let mut ledger = self.ledger.lock();
                        ledger.retries += 1;
                        ledger.backoff_s += ctx.backoff_s;
                    }
                    let (start, part) = &tokens[0];
                    match self.pool.invoke(seat, key, part, ctx.deadline_s) {
                        Ok(out) => Ok((vec![(*start, out)], Fire::Continue)),
                        Err(e) => {
                            if e.device_fault() {
                                self.ledger.lock().faults_observed += 1;
                            }
                            Err(e)
                        }
                    }
                })
                .retry_when(move |e: &crate::FrameworkError| {
                    e.device_fault() && !self.breaker_open()
                })
                .or_quarantine(move |_firing, _attempts, e: &crate::FrameworkError| {
                    // The only in-run escape hatch is the quarantined
                    // device: re-bind the stage to a stop executor so the
                    // chunks already past dma_out stand and the caller
                    // degrades the remaining rows to the host. Any other
                    // exhaustion (hard fault before quarantine, non-fault
                    // error) aborts with the typed error.
                    if !(e.device_fault() && self.breaker_open()) {
                        return None;
                    }
                    *degraded = true;
                    Some(
                        Box::new(|_ctx: FiringCtx, _tokens: &mut [(usize, Matrix)]| {
                            Ok((Vec::new(), Fire::Stop))
                        })
                            as runtime::SupervisedFn<'_, (usize, Matrix), crate::FrameworkError>,
                    )
                })
                .into_binding(),
                Supervised::map(
                    Supervision::none(),
                    move |_ctx: FiringCtx, tokens: &mut [_]| {
                        let (start, out): &(usize, Matrix) = &tokens[0];
                        let Some(dest) = stitched.as_mut().filter(|d| d.cols() == out.cols())
                        else {
                            return Err(crate::FrameworkError::InvalidConfig(format!(
                                "device output is {} wide, the compiled model {}",
                                out.cols(),
                                dims.output_dim
                            )));
                        };
                        let cols = out.cols();
                        dest.as_mut_slice()[start * cols..start * cols + out.as_slice().len()]
                            .copy_from_slice(out.as_slice());
                        Ok((Vec::new(), Fire::Continue))
                    },
                )
                .into_binding(),
            ];
            let chunks = rows.div_ceil(chunk.max(1)) as u64;
            let run = runtime::run(&plan, chunks, bindings);
            self.pool.release(seat);
            run.map_err(|e| match e {
                RunError::Stage { error, .. } => error,
                RunError::Protocol { stage, message } => crate::FrameworkError::InvalidConfig(
                    format!("invoke schedule protocol violation at stage {stage}: {message}"),
                ),
            })?;
        }
        let after = self.device().ledger();
        {
            let mut ledger = self.ledger.lock();
            ledger.invocations += after.invocations.saturating_sub(before.invocations);
        }
        let device_s = (after.total_s - before.total_s).max(0.0) + backoff_total;
        if degraded {
            return Ok((None, device_s));
        }
        let stitched = match stitched {
            Some(m) => m,
            // Preserve the historical empty-batch error.
            None => Matrix::vstack(&[])?,
        };
        Ok((Some(stitched), device_s))
    }

    fn device_encode(&self, encoder: &dyn Encoder, batch: &Matrix) -> crate::Result<Matrix> {
        let calibration = Self::calibration(batch)?;
        let key = fingerprint(
            TAG_ENCODER
                .wrapping_add(u64::from(encoder.activation() == hdc::EncoderActivation::Tanh) << 8),
            &[encoder.base().as_matrix(), &calibration],
        );
        let (outcome, device_s) = self.run_cached(
            key,
            || Ok((wide_model::encoder_network(encoder)?, calibration.clone())),
            batch,
            self.encode_chunk,
        )?;
        match outcome {
            Some(encoded) => {
                let mut ledger = self.ledger.lock();
                ledger.encoded_samples += batch.rows() as u64;
                ledger.encode_s += device_s
                    + cost::quantize_s(&self.spec, batch.rows() * encoder.feature_count())
                    + cost::quantize_s(&self.spec, batch.rows() * encoder.dim());
                Ok(encoded)
            }
            None => {
                // Degraded: rerun the whole batch on the host in f32 —
                // bit-identical to CpuBackend — charging host encode cost
                // on top of whatever the dead device already wasted.
                let encoded = encoder.encode(batch)?;
                let mut ledger = self.ledger.lock();
                ledger.fallbacks += 1;
                ledger.encoded_samples += batch.rows() as u64;
                ledger.encode_s += device_s
                    + cost::encode_s(
                        &self.spec,
                        batch.rows(),
                        encoder.feature_count(),
                        encoder.dim(),
                    );
                Ok(encoded)
            }
        }
    }
}

impl Executor for TpuBackend {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
        self.device_encode(encoder, batch)
            .map_err(|e| HdcError::Backend(format!("device encoding failed: {e}")))
    }

    /// The typed proof of the paper's placement argument: lowering the
    /// class-update graph to the accelerator target fails compilation, so
    /// a pure device backend cannot train.
    fn train_classes(
        &self,
        _encoded: &Matrix,
        _labels: &[usize],
        _classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        let rejection = wide_model::update_graph(config.dim, config.learning_rate)
            .and_then(|graph| {
                compile::compile(
                    &graph,
                    &Matrix::zeros(1, config.dim),
                    &self.device_config().target,
                )
                .map_err(crate::FrameworkError::from)
            })
            .err()
            .map_or_else(
                || "update graph unexpectedly compiled for the accelerator".to_string(),
                |e| e.to_string(),
            );
        Err(HdcError::Backend(format!(
            "class-hypervector update cannot run on the accelerator: {rejection}"
        )))
    }
}

impl ExecutionBackend for TpuBackend {
    fn name(&self) -> &'static str {
        "tpu"
    }

    fn predict(&self, model: &HdcModel, features: &Matrix) -> crate::Result<Vec<usize>> {
        let calibration = Self::calibration(features)?;
        let key = fingerprint(
            TAG_INFERENCE,
            &[
                model.encoder().base().as_matrix(),
                model.classes().as_matrix(),
                &calibration,
            ],
        );
        let (outcome, device_s) = self.run_cached(
            key,
            || Ok((wide_model::inference_network(model)?, calibration.clone())),
            features,
            self.infer_chunk,
        )?;
        match outcome {
            Some(scores) => {
                let mut ledger = self.ledger.lock();
                ledger.predicted_samples += features.rows() as u64;
                ledger.infer_s += device_s
                    + cost::quantize_s(&self.spec, features.rows() * model.feature_count())
                    + cost::quantize_s(&self.spec, features.rows() * model.class_count());
                drop(ledger);
                (0..scores.rows())
                    .map(|r| ops::argmax(scores.row(r)).map_err(crate::FrameworkError::from))
                    .collect()
            }
            None => {
                // Degraded: host-side prediction, bit-identical to
                // CpuBackend's path and charged at its host cost.
                let kernels_before = hd_tensor::kernels::thread_stats();
                let predictions = model.predict(features)?;
                let kernel_delta = hd_tensor::kernels::thread_stats().delta_since(&kernels_before);
                let mut ledger = self.ledger.lock();
                ledger.absorb_kernel_stats(kernel_delta);
                ledger.fallbacks += 1;
                ledger.predicted_samples += features.rows() as u64;
                ledger.infer_s += device_s
                    + cost::encode_s(
                        &self.spec,
                        features.rows(),
                        model.feature_count(),
                        model.dim(),
                    )
                    + cost::similarity_s(
                        &self.spec,
                        features.rows(),
                        model.dim(),
                        model.class_count(),
                    );
                Ok(predictions)
            }
        }
    }

    fn ledger(&self) -> BackendLedger {
        *self.ledger.lock()
    }

    fn reset_ledger(&self) {
        let devices = self.ledger.lock().devices_created;
        *self.ledger.lock() = BackendLedger {
            devices_created: devices,
            ..BackendLedger::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;
    use hdc::{BaseHypervectors, NonlinearEncoder};

    fn backend() -> TpuBackend {
        TpuBackend::new(&PipelineConfig::new(256))
    }

    #[test]
    fn repeated_encodes_compile_once_and_stay_resident() {
        let b = backend();
        let mut rng = DetRng::new(41);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(40, 10, &mut rng);

        let first = b.encode_batch(&encoder, &batch).unwrap();
        let second = b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(first, second);

        let ledger = b.ledger();
        assert_eq!(ledger.compilations, 1, "second encode must hit the cache");
        assert_eq!(ledger.cache_hits, 1);
        assert_eq!(ledger.model_loads, 1, "resident model must not reload");
        assert_eq!(ledger.devices_created, 1);
        assert_eq!(ledger.encoded_samples, 80);
        assert!(ledger.encode_s > 0.0);
        assert!(ledger.model_gen_s > 0.0);
    }

    #[test]
    fn chunked_runs_stitch_the_one_chunk_output() {
        let b = backend();
        let mut rng = DetRng::new(47);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(40, 10, &mut rng);
        let build = || Ok((wide_model::encoder_network(&encoder)?, batch.clone()));
        let (whole, _) = b.run_cached(1, build, &batch, 64).unwrap();
        let whole = whole.unwrap();
        assert_eq!(whole.shape(), (40, 256));
        // 40 rows in chunks of 7 and of 16: a short last chunk each time.
        for chunk in [7, 16, 1] {
            let (stitched, _) = b.run_cached(1, build, &batch, chunk).unwrap();
            assert_eq!(stitched.as_ref(), Some(&whole), "chunk {chunk}");
        }
        // An empty batch keeps its historical error.
        let empty = Matrix::zeros(0, 10);
        assert!(matches!(
            b.run_cached(1, build, &empty, 7),
            Err(crate::FrameworkError::Tensor(
                hd_tensor::TensorError::EmptyDimension { op: "vstack" }
            ))
        ));
    }

    #[test]
    fn distinct_encoders_get_distinct_compilations() {
        let b = backend();
        let mut rng = DetRng::new(42);
        let batch = Matrix::random_normal(16, 6, &mut rng);
        for _ in 0..3 {
            let encoder = NonlinearEncoder::new(BaseHypervectors::generate(6, 64, &mut rng));
            b.encode_batch(&encoder, &batch).unwrap();
        }
        let ledger = b.ledger();
        assert_eq!(ledger.compilations, 3);
        assert_eq!(ledger.model_loads, 3);
        assert_eq!(ledger.devices_created, 1, "one device serves all models");
    }

    #[test]
    fn update_phase_is_rejected_with_typed_error() {
        let b = backend();
        let config = TrainConfig::new(64).with_iterations(2);
        let err = b
            .train_classes(&Matrix::zeros(4, 64), &[0, 1, 0, 1], 2, &config)
            .unwrap_err();
        match err {
            HdcError::Backend(msg) => {
                assert!(msg.contains("cannot run on the accelerator"), "{msg}");
                assert!(msg.contains("not supported"), "{msg}");
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
    }

    fn faulty_backend(fault: tpu_sim::FaultConfig, config: PipelineConfig) -> TpuBackend {
        // Small chunks so a single encode call makes several device
        // invocations — plenty of attempts for the fault schedule to hit.
        let mut config = config.with_batches(8, 8);
        config.device.fault = fault;
        TpuBackend::new(&config)
    }

    /// The default backoff schedule with a larger retry budget and a
    /// quarantine threshold one past it.
    fn retrying(max_retries: u32) -> PipelineConfig {
        PipelineConfig::new(256)
            .with_supervision(Supervision::retries(max_retries, 2e-3, 2.0))
            .with_quarantine_threshold(max_retries + 1)
    }

    #[test]
    fn transient_faults_retry_to_bit_exact_output() {
        let fault = tpu_sim::FaultConfig::default()
            .with_seed(909)
            .with_transient_rate(0.5);
        let b = faulty_backend(fault, retrying(6));
        let clean = backend();
        let mut rng = DetRng::new(46);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(40, 10, &mut rng);

        let faulty_out = b.encode_batch(&encoder, &batch).unwrap();
        let clean_out = clean.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(
            faulty_out, clean_out,
            "retried encode must converge to the fault-free output"
        );

        let ledger = b.ledger();
        assert!(ledger.faults_observed > 0, "rate 0.5 never fired");
        assert_eq!(ledger.retries, ledger.faults_observed);
        assert!(ledger.backoff_s > 0.0);
        assert_eq!(ledger.fallbacks, 0);
        assert!(!b.breaker_open());
        // Failed attempts and backoff are charged into the encode phase:
        // the faulty run costs strictly more simulated time.
        assert!(ledger.encode_s > clean.ledger().encode_s);
    }

    #[test]
    fn dead_device_opens_breaker_with_pinned_ledger() {
        // Transient rate 1.0: the device never answers. With the default
        // supervision (3 retries, 2 ms base doubling backoff, quarantine
        // at 4) the first chunk exhausts its budget exactly as the device
        // is quarantined: 4 faults, 3 retries, 2+4+8 ms of backoff, one
        // fallback.
        let fault = tpu_sim::FaultConfig::default().with_transient_rate(1.0);
        let b = faulty_backend(fault, PipelineConfig::new(256));
        let mut rng = DetRng::new(47);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(24, 10, &mut rng);

        let out = b.encode_batch(&encoder, &batch).unwrap();
        assert!(b.breaker_open());
        assert_eq!(
            out,
            encoder.encode(&batch).unwrap(),
            "fallback must be the host encode"
        );

        let ledger = b.ledger();
        assert_eq!(ledger.faults_observed, 4);
        assert_eq!(ledger.retries, 3);
        assert_eq!(ledger.fallbacks, 1);
        assert!(
            (ledger.backoff_s - 14e-3).abs() < 1e-12,
            "{}",
            ledger.backoff_s
        );
        assert_eq!(ledger.encoded_samples, 24);

        // Every later call degrades immediately, without new device work.
        let faults_before = ledger.faults_observed;
        let second = b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(second, encoder.encode(&batch).unwrap());
        let ledger = b.ledger();
        assert_eq!(ledger.faults_observed, faults_before);
        assert_eq!(ledger.fallbacks, 2);
    }

    #[test]
    fn hang_under_supervision_deadline_retries_to_bit_exact_output() {
        // The deadline comes only from the pipeline's supervision; every
        // hang stalls past it, so the device watchdog turns each hang
        // into a retried fault instead of a silent 1 s stall.
        let fault = tpu_sim::FaultConfig::default()
            .with_seed(913)
            .with_hang(0.5, 1.0);
        let config = retrying(6)
            .with_supervision(Supervision::retries(6, 2e-3, 2.0).with_deadline(Some(0.5)));
        let b = faulty_backend(fault, config);
        let clean = backend();
        let mut rng = DetRng::new(52);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(40, 10, &mut rng);

        let out = b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(out, clean.encode_batch(&encoder, &batch).unwrap());
        let hangs = b
            .device()
            .fault_trace()
            .records()
            .iter()
            .filter(|r| matches!(r.kind, tpu_sim::FaultKind::Hang { fatal: true, .. }))
            .count() as u64;
        let ledger = b.ledger();
        assert_eq!(ledger.faults_observed, hangs);
        // Seed 913 hangs twice on each of two of the five chunks: four
        // faults, each retried, with 2+4 ms of backoff per chunk.
        assert_eq!(ledger.faults_observed, 4);
        assert_eq!(ledger.retries, 4);
        assert!(
            (ledger.backoff_s - 12e-3).abs() < 1e-12,
            "{}",
            ledger.backoff_s
        );
        assert_eq!(ledger.invocations, 5);
        assert_eq!(ledger.fallbacks, 0);
        assert!(!b.breaker_open());
    }

    #[test]
    fn breaker_fallback_predictions_match_cpu_backend() {
        let fault = tpu_sim::FaultConfig::default().with_transient_rate(1.0);
        let b = faulty_backend(fault, PipelineConfig::new(256));
        let config = PipelineConfig::new(256);
        let cpu = crate::backend::CpuBackend::new(&config);

        let mut rng = DetRng::new(48);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(8, 256, &mut rng));
        let features = Matrix::random_normal(20, 8, &mut rng);
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let encoded = encoder.encode(&features).unwrap();
        let train = TrainConfig::new(256).with_iterations(2).with_seed(49);
        let (classes, _) = hdc::train_encoded(&encoded, &labels, 2, &train).unwrap();
        let model = HdcModel::from_parts(encoder, classes).unwrap();

        let degraded = b.predict(&model, &features).unwrap();
        let host = cpu.predict(&model, &features).unwrap();
        assert_eq!(degraded, host);
        assert!(b.breaker_open());
        let ledger = b.ledger();
        assert_eq!(ledger.fallbacks, 1);
        assert_eq!(ledger.predicted_samples, 20);
        // The degraded inference pays the wasted device attempts plus the
        // full host inference cost.
        assert!(ledger.infer_s > cpu.ledger().infer_s);
    }

    #[test]
    fn weight_upset_reloads_pristine_model_and_converges() {
        let fault = tpu_sim::FaultConfig::default()
            .with_seed(911)
            .with_weight_upset_rate(0.4);
        let b = faulty_backend(fault, retrying(8));
        let clean = backend();
        let mut rng = DetRng::new(50);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(48, 10, &mut rng);

        let faulty_out = b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(faulty_out, clean.encode_batch(&encoder, &batch).unwrap());
        let ledger = b.ledger();
        assert!(ledger.faults_observed > 0, "rate 0.4 never fired");
        assert!(
            ledger.model_loads > 1,
            "weight corruption must reload the pristine model"
        );
        assert_eq!(ledger.compilations, 1, "reloads must come from the cache");
        assert_eq!(ledger.fallbacks, 0);
    }

    #[test]
    fn inject_weight_faults_drops_residency() {
        let b = backend();
        let mut rng = DetRng::new(51);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(10, 256, &mut rng));
        let batch = Matrix::random_normal(16, 10, &mut rng);
        b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(b.ledger().model_loads, 1);

        let flipped = b.inject_weight_faults(0.05, &mut rng).unwrap();
        assert!(flipped > 0);
        // The faulted resident model no longer matches its fingerprint;
        // the next call must reload the pristine artifact, not reuse it.
        let out = b.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(out, backend().encode_batch(&encoder, &batch).unwrap());
        assert_eq!(b.ledger().model_loads, 2);
        assert_eq!(b.ledger().compilations, 1);
    }

    #[test]
    fn reset_keeps_device_count_but_clears_phases() {
        let b = backend();
        let mut rng = DetRng::new(43);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(4, 32, &mut rng));
        b.encode_batch(&encoder, &Matrix::zeros(4, 4)).unwrap();
        b.reset_ledger();
        let ledger = b.ledger();
        assert_eq!(ledger.devices_created, 1);
        assert_eq!(ledger.compilations, 0);
        assert_eq!(ledger.encode_s, 0.0);
        // The compiled model survives a telemetry reset.
        assert_eq!(b.cached_models(), 1);
    }
}
