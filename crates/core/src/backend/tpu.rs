//! The accelerator backend: a persistent simulated device plus a
//! compiled-model cache.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hd_dataflow::runtime::{self, Binding, Fire, FiringCtx, RunError, Supervised, Supervision};
use parking_lot::Mutex;

use cpu_model::{cost, PlatformSpec};
use hd_tensor::{ops, Matrix};
use hdc::{ClassHypervectors, Encoder, Executor, HdcError, HdcModel, TrainConfig, TrainStats};
use tpu_sim::{Device, DeviceConfig, SimError};
use wide_nn::{compile, CompiledModel, Model};

use crate::backend::{
    fingerprint, BackendLedger, ExecutionBackend, ResiliencePolicy, CALIBRATION_ROWS,
};
use crate::config::PipelineConfig;
use crate::wide_model;

/// Network-identity tags mixed into the cache fingerprint so an encoder
/// network and an inference network over the same base matrix never
/// collide.
const TAG_ENCODER: u64 = 1;
const TAG_INFERENCE: u64 = 2;

struct ModelCache {
    models: HashMap<u64, CompiledModel>,
    resident: Option<u64>,
}

/// Circuit-breaker state: consecutive failed device attempts, and whether
/// the breaker has (permanently) opened.
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open: bool,
}

/// The simulated-Edge-TPU backend.
///
/// Owns **one** persistent [`Device`] for its whole lifetime and a
/// compiled-model cache keyed by network identity (weight and calibration
/// bits), so repeated encode batches and bagging's `M` sub-models compile
/// each distinct network exactly once, and consecutive calls with the
/// resident model skip the parameter reload entirely — the
/// one-model-resident-on-chip behaviour the paper exploits.
///
/// The update phase deliberately fails: compiling the class-update graph
/// for the accelerator target is rejected with
/// [`wide_nn::NnError::UnsupportedOp`], and [`TpuBackend::train_classes`]
/// surfaces that as a typed [`HdcError::Backend`]. Use
/// [`HybridBackend`](crate::backend::HybridBackend) for the paper's
/// placement.
pub struct TpuBackend {
    device_config: DeviceConfig,
    spec: PlatformSpec,
    encode_chunk: usize,
    infer_chunk: usize,
    policy: ResiliencePolicy,
    device: Device,
    cache: Mutex<ModelCache>,
    breaker: Mutex<BreakerState>,
    ledger: Mutex<BackendLedger>,
    /// Serializes schedule runs on the one device: residency must not
    /// change underneath an executing invoke schedule, whose stage
    /// threads re-lock `cache` briefly for pristine reloads.
    run_lock: Mutex<()>,
}

impl TpuBackend {
    /// Builds the accelerator backend, constructing its one persistent
    /// device.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        TpuBackend {
            device_config: config.device.clone(),
            spec: config.platform.spec(),
            encode_chunk: config.encode_batch,
            infer_chunk: config.infer_batch,
            policy: config.resilience,
            device: Device::new(config.device.clone()),
            cache: Mutex::new(ModelCache {
                models: HashMap::new(),
                resident: None,
            }),
            breaker: Mutex::new(BreakerState::default()),
            ledger: Mutex::new(BackendLedger {
                devices_created: 1,
                ..BackendLedger::default()
            }),
            run_lock: Mutex::new(()),
        }
    }

    /// The backend's persistent device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The device configuration this backend simulates under (used to
    /// parameterize declared schedule graphs with its cost model).
    pub(crate) fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    /// The resilience policy this backend runs under.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// Whether the circuit breaker has opened: the device saw
    /// `breaker_threshold` consecutive failed attempts and every later
    /// accelerator call degrades to the host CPU.
    pub fn breaker_open(&self) -> bool {
        self.breaker.lock().open
    }

    /// Number of compiled models currently cached.
    pub fn cached_models(&self) -> usize {
        self.cache.lock().models.len()
    }

    /// Injects silent weight faults into the *resident* model on the
    /// device (see [`Device::inject_weight_faults`]) and drops the
    /// residency marker, so the next accelerator call reloads a pristine
    /// compiled model from the cache rather than trusting the faulted
    /// weights to still match their fingerprint. Returns flipped bits.
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
        let mut cache = self.cache.lock();
        let flipped = self.device.inject_weight_faults(rate, rng)?;
        cache.resident = None;
        Ok(flipped)
    }

    fn calibration(batch: &Matrix) -> crate::Result<Matrix> {
        let rows = batch.rows().min(CALIBRATION_ROWS);
        Ok(batch.slice_rows(0, rows)?)
    }

    /// Records a failed device attempt on the breaker; returns whether
    /// the breaker is (now) open.
    fn note_failure(&self) -> bool {
        let mut breaker = self.breaker.lock();
        breaker.consecutive_failures += 1;
        if breaker.consecutive_failures >= self.policy.breaker_threshold {
            breaker.open = true;
        }
        breaker.open
    }

    /// Reloads the pristine compiled model for `key` from the cache onto
    /// the device (recovery from a detected SRAM weight upset).
    fn reload_pristine(&self, cache: &mut ModelCache, key: u64) -> crate::Result<()> {
        let compiled = cache
            .models
            .get(&key)
            .cloned()
            .ok_or_else(|| crate::FrameworkError::InvalidConfig("model cache desync".into()))?;
        let report = self.device.load_model(compiled)?;
        cache.resident = Some(key);
        let mut ledger = self.ledger.lock();
        ledger.model_loads += 1;
        ledger.model_gen_s += report.total_s;
        Ok(())
    }

    /// Compiles (or fetches) the network for `key`, ensures it is
    /// resident on the device, and invokes it over `batch` in `chunk`-row
    /// pieces under the resilience policy: each chunk gets up to
    /// `max_retries` retried attempts with deterministic exponential
    /// backoff charged to the simulated clock, detected weight corruption
    /// reloads the pristine model from the cache, and once the circuit
    /// breaker opens the whole batch is abandoned to the host fallback.
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
        // Stitch into one preallocated buffer (width known after the first
        // chunk) instead of vstack-reallocating collected chunks.
        let mut stitched: Option<Matrix> = None;
        let rows = batch.rows();
        let (completed, device_s) =
            self.run_cached_with(key, build, batch, chunk, |start, out| {
                let cols = out.cols();
                let dest = stitched.get_or_insert_with(|| Matrix::zeros(rows, cols));
                dest.as_mut_slice()[start * cols..start * cols + out.as_slice().len()]
                    .copy_from_slice(out.as_slice());
            })?;
        if !completed {
            return Ok((None, device_s));
        }
        let stitched = match stitched {
            Some(m) => m,
            // Preserve the historical empty-batch error.
            None => Matrix::vstack(&[])?,
        };
        Ok((Some(stitched), device_s))
    }

    /// The streaming core of [`TpuBackend::run_cached`]: instead of
    /// returning the stitched output, hands each chunk's rows to
    /// `on_chunk(start_row, output)` as soon as the device produces them —
    /// the producer half of the pipelined encode→update schedule. Device
    /// invocations use the double-buffered
    /// [`Device::invoke_overlapped_with_deadline`] schedule, so each
    /// chunk's simulated time is the critical-path max of its transfer and
    /// compute legs. Fault handling is unchanged: each chunk retries under
    /// the resilience policy, weight corruption reloads the pristine
    /// model, and an opened breaker abandons the remaining chunks.
    ///
    /// Returns `(completed, device_s)`; when `completed` is false the
    /// stream degraded part-way and the caller owns the un-streamed rows.
    fn run_cached_with(
        &self,
        key: u64,
        build: impl FnOnce() -> crate::Result<(Model, Matrix)>,
        batch: &Matrix,
        chunk: usize,
        mut on_chunk: impl FnMut(usize, Matrix) + Send,
    ) -> crate::Result<(bool, f64)> {
        if self.breaker_open() {
            return Ok((false, 0.0));
        }
        // One schedule run at a time on the one device: the coarse
        // serialization the long-held cache lock used to provide now
        // lives here, because the runtime's compute stage re-locks the
        // cache briefly for pristine reloads.
        let _run = self.run_lock.lock();
        let mut cache = self.cache.lock();
        match cache.models.entry(key) {
            Entry::Occupied(_) => self.ledger.lock().cache_hits += 1,
            Entry::Vacant(slot) => {
                let (network, calibration) = build()?;
                let compiled =
                    compile::compile(&network, &calibration, &self.device_config.target)?;
                let mut ledger = self.ledger.lock();
                ledger.compilations += 1;
                ledger.model_gen_s += cost::model_generation_s(compiled.param_bytes());
                drop(ledger);
                slot.insert(compiled);
            }
        }
        if cache.resident != Some(key) {
            self.reload_pristine(&mut cache, key)?;
        }

        // Verify the declared overlapped-invoke SDF graph (rates, buffer
        // bounds, deadlock-freedom) and compile it into the executable
        // plan the runtime will drive.
        let plan = {
            let compiled = cache
                .models
                .get(&key)
                .ok_or_else(|| crate::FrameworkError::InvalidConfig("model cache desync".into()))?;
            let dims = tpu_sim::timing::ModelDims::from_compiled(compiled);
            let samples = chunk.min(batch.rows()).max(1);
            crate::schedule::SchedulePlan::declare(crate::schedule::overlapped_invoke_graph(
                &self.device_config,
                &dims,
                samples,
            ))?
            .executable()?
        };
        drop(cache);

        // Execute the verified plan through the generic SDF runtime:
        // dma_in slices chunks onto the link, compute runs the device
        // invoke under the runtime's stage supervision (the backend's
        // resilience policy lifted into a `Supervision`: bounded retries
        // with the same backoff schedule, pristine reloads on weight
        // upsets, and the opened breaker escalating to a graceful stop),
        // dma_out hands finished chunks to the caller. The bounded stage
        // channels are the declared INVOKE_BUFFERS double-buffer; the
        // device serializes invocations internally, so chunk timing is
        // charged exactly as the hand-rolled retry loop did.
        let before = self.device.ledger();
        let backoff_total = std::sync::atomic::AtomicU64::new(0.0f64.to_bits());
        let degraded = std::sync::atomic::AtomicBool::new(false);
        {
            let backoff_total = &backoff_total;
            let degraded = &degraded;
            let on_chunk = &mut on_chunk;
            let rows = batch.rows();
            let supervision = Supervision::retries(
                self.policy.max_retries,
                self.policy.backoff_base_s,
                self.policy.backoff_factor,
            )
            .with_deadline(self.policy.invoke_deadline_s);
            let bindings: Vec<Binding<'_, (usize, Matrix), crate::FrameworkError>> = vec![
                // dma_in derives its slice from the firing index, so a
                // replayed firing is idempotent by construction.
                Supervised::map(Supervision::none(), move |ctx: FiringCtx, _inputs| {
                    let start = (ctx.firing as usize) * chunk;
                    let end = (start + chunk).min(rows);
                    Ok((vec![(start, batch.slice_rows(start, end)?)], Fire::Continue))
                })
                .into_binding(),
                Supervised::map(supervision, move |ctx: FiringCtx, tokens: &[_]| {
                    if ctx.attempt > 0 {
                        // The supervisor granted a retry: charge its
                        // simulated backoff to the backend ledgers.
                        let mut bits = backoff_total.load(std::sync::atomic::Ordering::SeqCst);
                        bits = (f64::from_bits(bits) + ctx.backoff_s).to_bits();
                        backoff_total.store(bits, std::sync::atomic::Ordering::SeqCst);
                        let mut ledger = self.ledger.lock();
                        ledger.retries += 1;
                        ledger.backoff_s += ctx.backoff_s;
                    }
                    let (start, part) = &tokens[0];
                    match self
                        .device
                        .invoke_overlapped_with_deadline(part, ctx.deadline_s)
                    {
                        Ok((out, _stats)) => {
                            self.breaker.lock().consecutive_failures = 0;
                            Ok((vec![(*start, out)], Fire::Continue))
                        }
                        Err(e) if e.is_fault() => {
                            self.ledger.lock().faults_observed += 1;
                            let open = self.note_failure();
                            if e == SimError::WeightCorruption && !open {
                                // Detected upset: put pristine weights
                                // back before (or without) retrying.
                                self.reload_pristine(&mut self.cache.lock(), key)?;
                            }
                            Err(e.into())
                        }
                        Err(e) => Err(e.into()),
                    }
                })
                .retry_when(move |e: &crate::FrameworkError| {
                    e.device_fault() && !self.breaker_open()
                })
                .or_quarantine(move |_firing, _attempts, e: &crate::FrameworkError| {
                    // The only in-run escape hatch is the opened breaker:
                    // re-bind the stage to a stop executor so the chunks
                    // already past dma_out stand and the caller degrades
                    // the remaining rows to the host. Any other
                    // exhaustion (hard fault with the breaker closed,
                    // non-fault error) aborts with the typed error.
                    if !(e.device_fault() && self.breaker_open()) {
                        return None;
                    }
                    degraded.store(true, std::sync::atomic::Ordering::SeqCst);
                    Some(Box::new(|_ctx: FiringCtx, _tokens: &[(usize, Matrix)]| {
                        Ok((Vec::new(), Fire::Stop))
                    })
                        as runtime::SupervisedFn<
                            '_,
                            (usize, Matrix),
                            crate::FrameworkError,
                        >)
                })
                .into_binding(),
                Supervised::map(Supervision::none(), move |_ctx: FiringCtx, tokens: &[_]| {
                    let (start, out): &(usize, Matrix) = &tokens[0];
                    on_chunk(*start, out.clone());
                    Ok((Vec::new(), Fire::Continue))
                })
                .into_binding(),
            ];
            let chunks = rows.div_ceil(chunk.max(1)) as u64;
            runtime::run(&plan, chunks, bindings).map_err(|e| match e {
                RunError::Stage { error, .. } => error,
                RunError::Protocol { stage, message } => crate::FrameworkError::InvalidConfig(
                    format!("invoke schedule protocol violation at stage {stage}: {message}"),
                ),
            })?;
        }
        let after = self.device.ledger();
        {
            let mut ledger = self.ledger.lock();
            ledger.invocations += after.invocations.saturating_sub(before.invocations);
        }
        let backoff_total = f64::from_bits(backoff_total.load(std::sync::atomic::Ordering::SeqCst));
        let degraded = degraded.load(std::sync::atomic::Ordering::SeqCst);
        let device_s = (after.total_s - before.total_s).max(0.0) + backoff_total;
        Ok((!degraded, device_s))
    }

    /// Streams the device-encoded rows of `batch` into `sink` chunk by
    /// chunk — the producer side of the pipelined encode→update training
    /// schedule used by [`HybridBackend`](crate::backend::HybridBackend).
    ///
    /// The fingerprint and calibration slice cover the *full* batch, so
    /// the compiled network, its quantization, and therefore every emitted
    /// row are bit-identical to a monolithic
    /// [`encode_batch`](Executor::encode_batch) call. If the device
    /// degrades part-way, the rows already streamed stand (they cannot be
    /// retracted from a consumer) and the remaining rows are host-encoded —
    /// row-wise identical to the device-clean output only up to int8
    /// quantization, exactly like the non-streamed fallback.
    ///
    /// # Errors
    ///
    /// Shape/compile errors, or a hard device failure with the breaker
    /// still closed.
    pub(crate) fn encode_batch_streamed(
        &self,
        encoder: &dyn Encoder,
        batch: &Matrix,
        mut sink: impl FnMut(Matrix) + Send,
    ) -> crate::Result<()> {
        let calibration = Self::calibration(batch)?;
        let key = fingerprint(
            TAG_ENCODER
                .wrapping_add(u64::from(encoder.activation() == hdc::EncoderActivation::Tanh) << 8),
            &[encoder.base().as_matrix(), &calibration],
        );
        let mut device_rows = 0usize;
        let (completed, device_s) = self.run_cached_with(
            key,
            || Ok((wide_model::encoder_network(encoder)?, calibration.clone())),
            batch,
            self.encode_chunk,
            |_, out| {
                device_rows += out.rows();
                sink(out);
            },
        )?;
        if completed {
            let mut ledger = self.ledger.lock();
            ledger.encoded_samples += batch.rows() as u64;
            ledger.encode_s += device_s
                + cost::quantize_s(&self.spec, batch.rows() * encoder.feature_count())
                + cost::quantize_s(&self.spec, batch.rows() * encoder.dim());
            return Ok(());
        }
        // Degraded mid-stream: host-encode only the rows the device never
        // produced. The chunks already handed to the sink stand.
        let remaining = batch.slice_rows(device_rows, batch.rows())?;
        {
            let mut ledger = self.ledger.lock();
            ledger.fallbacks += 1;
            ledger.encoded_samples += batch.rows() as u64;
            ledger.encode_s += device_s
                + cost::quantize_s(&self.spec, device_rows * encoder.feature_count())
                + cost::quantize_s(&self.spec, device_rows * encoder.dim())
                + cost::encode_s(
                    &self.spec,
                    remaining.rows(),
                    encoder.feature_count(),
                    encoder.dim(),
                );
        }
        if remaining.rows() > 0 {
            sink(encoder.encode(&remaining)?);
        }
        Ok(())
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
                    &self.device_config.target,
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

    fn faulty_backend(fault: tpu_sim::FaultConfig, policy: ResiliencePolicy) -> TpuBackend {
        // Small chunks so a single encode call makes several device
        // invocations — plenty of attempts for the fault schedule to hit.
        let mut config = PipelineConfig::new(256)
            .with_resilience(policy)
            .with_batches(8, 8);
        config.device.fault = fault;
        TpuBackend::new(&config)
    }

    #[test]
    fn transient_faults_retry_to_bit_exact_output() {
        let fault = tpu_sim::FaultConfig::default()
            .with_seed(909)
            .with_transient_rate(0.5);
        let policy = ResiliencePolicy::default()
            .with_max_retries(6)
            .with_breaker_threshold(7);
        let b = faulty_backend(fault, policy);
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
        // policy (3 retries, 2 ms base doubling backoff, breaker at 4)
        // the first chunk exhausts its budget exactly as the breaker
        // opens: 4 faults, 3 retries, 2+4+8 ms of backoff, one fallback.
        let fault = tpu_sim::FaultConfig::default().with_transient_rate(1.0);
        let b = faulty_backend(fault, ResiliencePolicy::default());
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
    fn breaker_fallback_predictions_match_cpu_backend() {
        let fault = tpu_sim::FaultConfig::default().with_transient_rate(1.0);
        let b = faulty_backend(fault, ResiliencePolicy::default());
        let config = PipelineConfig::new(256);
        let cpu = crate::backend::CpuBackend::new(&config);

        let mut rng = DetRng::new(48);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(8, 256, &mut rng));
        let features = Matrix::random_normal(20, 8, &mut rng);
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let encoded = encoder.encode(&features).unwrap();
        let train = TrainConfig::new(256).with_iterations(2).with_seed(49);
        let (classes, _) = hdc::train_encoded(&encoded, &labels, 2, &train).unwrap();
        let model = HdcModel::from_parts(encoder, classes, hdc::Similarity::Dot).unwrap();

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
        let policy = ResiliencePolicy::default()
            .with_max_retries(8)
            .with_breaker_threshold(9);
        let b = faulty_backend(fault, policy);
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
