use std::sync::Arc;

use parking_lot::Mutex;

use hd_quant::lut::ActivationLut;
use hd_quant::per_channel::PackedChannelMatrix;
use hd_quant::{PackedQuantizedMatrix, QuantParams};
use hd_tensor::Matrix;
use wide_nn::{CompiledModel, QuantStage, QuantizedModel};

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, FaultTrace, LinkDirection};
use crate::systolic::SystolicArray;
use crate::timing::{self, InvokeStats, LoadReport, ModelDims};
use crate::Result;

/// Accumulated device activity since construction or the last reset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingLedger {
    /// Number of invocations served.
    pub invocations: u64,
    /// Total samples processed.
    pub samples: u64,
    /// Total compute seconds.
    pub compute_s: f64,
    /// Total transfer seconds (both directions).
    pub transfer_s: f64,
    /// Total dispatch-overhead seconds.
    pub overhead_s: f64,
    /// Total model-load seconds.
    pub load_s: f64,
    /// Invocation attempts that failed with an injected fault (or a
    /// watchdog-deadline overrun).
    pub faulted_invocations: u64,
    /// Seconds consumed by failed attempts plus injected hang stalls.
    /// Failed-attempt seconds are counted here and in `total_s`, never in
    /// the per-phase success buckets.
    pub fault_s: f64,
    /// Transfer seconds hidden behind compute by the double-buffered
    /// schedule: per invocation, the shorter of the transfer and compute
    /// legs.
    pub overlapped_s: f64,
    /// Grand total (loads + invocations + failed attempts).
    pub total_s: f64,
}

impl TimingLedger {
    /// Transfer seconds left on the critical path: `transfer_s` minus
    /// `overlapped_s`. The successful invocations' share of `total_s`
    /// decomposes as `overhead_s + compute_s + exposed_transfer_s()`.
    #[must_use]
    pub fn exposed_transfer_s(&self) -> f64 {
        self.transfer_s - self.overlapped_s
    }

    fn record_invoke(&mut self, stats: &InvokeStats) {
        self.invocations += 1;
        self.samples += stats.samples as u64;
        self.compute_s += stats.compute_s;
        let transfer_s = stats.input_transfer_s + stats.output_transfer_s;
        self.transfer_s += transfer_s;
        self.overhead_s += stats.overhead_s;
        self.overlapped_s += transfer_s.min(stats.compute_s);
        self.total_s += stats.total_s;
    }

    fn record_load(&mut self, report: &LoadReport) {
        self.load_s += report.total_s;
        self.total_s += report.total_s;
    }

    fn record_failed_attempt(&mut self, charged_s: f64) {
        self.faulted_invocations += 1;
        self.fault_s += charged_s;
        self.total_s += charged_s;
    }
}

/// The resident model: as compiled, its shape, which prices every
/// invocation, and its stages as the array holds them.
struct Resident {
    /// Shared with the caller's copy until a fault changes it.
    model: Arc<CompiledModel>,
    dims: ModelDims,
    /// The stages the device runs, with each fully-connected stage's
    /// weights packed for the int8 kernel once per load (and again after
    /// fault injection changes them).
    stages: Vec<ResidentStage>,
}

/// One stage of the resident model, ready to run.
enum ResidentStage {
    FullyConnected {
        weights: PackedQuantizedMatrix,
        out_params: QuantParams,
    },
    FullyConnectedPerChannel {
        weights: PackedChannelMatrix,
        out_params: QuantParams,
    },
    Lut(ActivationLut),
}

impl Resident {
    fn new(model: Arc<CompiledModel>, dims: ModelDims) -> Self {
        let stages = resident_stages(model.quantized());
        Resident {
            model,
            dims,
            stages,
        }
    }
}

/// Lays out every stage of `quantized` for the array, packing each
/// fully-connected stage's weights.
fn resident_stages(quantized: &QuantizedModel) -> Vec<ResidentStage> {
    quantized
        .stages()
        .iter()
        .map(|stage| match stage {
            QuantStage::FullyConnected {
                weights,
                out_params,
            } => ResidentStage::FullyConnected {
                weights: weights.packed(),
                out_params: *out_params,
            },
            QuantStage::FullyConnectedPerChannel {
                weights,
                out_params,
            } => ResidentStage::FullyConnectedPerChannel {
                weights: weights.packed(),
                out_params: *out_params,
            },
            QuantStage::Lut(lut) => ResidentStage::Lut(lut.clone()),
        })
        .collect()
}

struct DeviceState {
    model: Option<Resident>,
    ledger: TimingLedger,
    faults: FaultPlan,
    weights_corrupt: bool,
}

/// A simulated edge accelerator.
///
/// The device holds at most one model at a time ("Most Edge TPU only take
/// one model at a time, and the weights have to be loaded to the on-chip
/// buffer every time" — paper, Section III-B); loading a new model evicts
/// the previous one and pays the full parameter-transfer cost again. This
/// is exactly the overhead that motivates the paper's merged single
/// inference model for bagging.
///
/// Every invocation runs under double-buffered DMA and is charged
/// [`timing::stage_costs`] on the resident model's [`ModelDims`].
///
/// The device is `Send + Sync`; invocations serialize on an internal lock,
/// like a real single-queue accelerator.
pub struct Device {
    config: DeviceConfig,
    array: SystolicArray,
    ordinal: usize,
    state: Mutex<DeviceState>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Device")
            .field("config", &self.config)
            .field("model_loaded", &state.model.is_some())
            .finish()
    }
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the link or fault configuration is invalid (see
    /// [`crate::HostLinkConfig::validate`] and
    /// [`crate::FaultConfig::validate`]).
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_ordinal(config, 0)
    }

    /// Creates a device bound to the given schedule-resource ordinal:
    /// stage graphs refer to this handle as
    /// [`Resource::Device(ordinal)`](hd_dataflow::Resource), so a
    /// multi-device schedule can pin each stage to a concrete simulated
    /// accelerator. [`Device::new`] binds ordinal 0, the classic
    /// single-device resource.
    ///
    /// # Panics
    ///
    /// Same as [`Device::new`].
    #[must_use]
    pub fn with_ordinal(config: DeviceConfig, ordinal: usize) -> Self {
        let array = SystolicArray::new(config.target.array_rows, config.target.array_cols);
        if let Err(e) = config.link.validate().and(config.fault.validate()) {
            panic!("{e}");
        }
        let faults = FaultPlan::new(config.fault);
        Device {
            config,
            array,
            ordinal,
            state: Mutex::new(DeviceState {
                model: None,
                ledger: TimingLedger::default(),
                faults,
                weights_corrupt: false,
            }),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The SDF-schedule resource this device handle is bindable as:
    /// a stage tagged with this resource executes on this device.
    pub fn resource(&self) -> hd_dataflow::Resource {
        hd_dataflow::Resource::Device(self.ordinal)
    }

    /// Whether a model is currently resident.
    pub fn model_loaded(&self) -> bool {
        self.state.lock().model.is_some()
    }

    /// Loads a compiled model, evicting any previous one, and returns the
    /// one-time cost report.
    ///
    /// Like the weight-stationary array, the device lays each
    /// fully-connected stage's weights out for its int8 kernel once, here,
    /// and every invocation reads that resident copy. The simulated clock
    /// charges the load on the model's parameter bytes. A model passed as
    /// an `Arc` is shared with the caller, not copied;
    /// [`Device::inject_weight_faults`] copies it before flipping bits.
    ///
    /// # Errors
    ///
    /// * [`SimError::BufferOverflow`] — the model's parameters do not fit
    ///   the on-chip buffer.
    /// * [`SimError::AccumulatorDepth`] — a fully-connected stage is
    ///   deeper than [`hd_quant::gemm::MAX_EXACT_DEPTH`], so its `i32`
    ///   accumulator could overflow.
    ///
    /// The previous model remains loaded in either case.
    pub fn load_model(&self, compiled: impl Into<Arc<CompiledModel>>) -> Result<LoadReport> {
        let compiled = compiled.into();
        let dims = ModelDims::from_compiled(&compiled);
        let report = timing::load_cost(&self.config, &dims);
        let capacity = self.config.target.param_buffer_bytes;
        if report.param_bytes > capacity {
            return Err(SimError::BufferOverflow {
                required: report.param_bytes,
                available: capacity,
            });
        }

        let max = hd_quant::gemm::MAX_EXACT_DEPTH;
        if let Some(&(depth, _)) = dims.fc_layers.iter().find(|&&(k, _)| k > max) {
            return Err(SimError::AccumulatorDepth { depth, max });
        }

        // Pack before taking the lock: invocations and ledger reads on this
        // device need not wait for it.
        let resident = Resident::new(compiled, dims);
        let mut state = self.state.lock();
        state.model = Some(resident);
        state.weights_corrupt = false;
        state.ledger.record_load(&report);
        Ok(report)
    }

    /// Unloads the resident model, freeing the parameter buffer.
    pub fn unload_model(&self) {
        self.state.lock().model = None;
    }

    /// Runs the resident model on a batch of `f32` samples (one per row),
    /// returning the dequantized outputs and the timing breakdown of this
    /// single invocation.
    ///
    /// The numeric path is: quantize inputs with the model's calibrated
    /// input parameters, run every stage in int8 through the systolic
    /// array and activation LUTs, dequantize the outputs. This matches
    /// [`wide_nn::QuantizedModel::forward`] bit-for-bit, and because rows
    /// are independent, splitting a batch across invocations does not
    /// change a single output.
    ///
    /// The clock runs the double-buffered DMA schedule: the input DMA of
    /// the next tile and the output DMA of the previous tile both run
    /// while the MXU computes, so the returned [`InvokeStats`] carries the
    /// raw legs of [`timing::stage_costs`] and a `total_s` of
    /// `overhead + max(transfer, compute)`. The hidden transfer seconds
    /// land in the ledger's `overlapped_s` bucket. Host-side costs (the
    /// quantize/dequantize themselves) are *not* charged here — they
    /// belong to the host CPU model, exactly as in the paper's co-design
    /// accounting.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoModelLoaded`] — no model resident.
    /// * [`SimError::BatchWidth`] — batch width mismatch.
    /// * Any fault error of [`Device::invoke_overlapped_with_deadline`]
    ///   when the device's [`crate::FaultConfig`] is armed.
    pub fn invoke_overlapped(&self, batch: &Matrix) -> Result<(Matrix, InvokeStats)> {
        self.invoke_overlapped_with_deadline(batch, None)
    }

    /// Like [`Device::invoke_overlapped`], but with an optional
    /// per-invocation watchdog deadline.
    ///
    /// When the device's [`crate::FaultConfig`] is armed, each attempt may
    /// fail with a typed, *detected* fault; the failed attempt's simulated
    /// seconds are charged to the ledger (`fault_s`) but never to the
    /// success buckets, and the fault is appended to the
    /// [`Device::fault_trace`]. A retried attempt that succeeds returns
    /// output bit-identical to the fault-free run.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoModelLoaded`] / [`SimError::BatchWidth`] — caller
    ///   bugs; these never consume a fault-schedule attempt.
    /// * [`SimError::TransientInvokeFailure`] — dispatch failed before any
    ///   payload moved; only the dispatch overhead is charged.
    /// * [`SimError::LinkCorruption`] — a payload failed its CRC. A bad
    ///   input charges the overhead plus the input transfer; a bad output
    ///   charges the invocation's full elapsed time.
    /// * [`SimError::WeightCorruption`] — the resident weights failed
    ///   parity (a new or earlier SRAM upset); every invocation fails
    ///   until a pristine model is reloaded via [`Device::load_model`].
    /// * [`SimError::DeviceHang`] — the invocation exceeded `deadline_s`
    ///   (an injected stall or a naturally slow invocation); exactly the
    ///   deadline is charged, as the watchdog kills the attempt there.
    pub fn invoke_overlapped_with_deadline(
        &self,
        batch: &Matrix,
        deadline_s: Option<f64>,
    ) -> Result<(Matrix, InvokeStats)> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let resident = state.model.as_ref().ok_or(SimError::NoModelLoaded)?;
        let (quantized, dims) = (resident.model.quantized(), &resident.dims);
        if batch.cols() != quantized.input_dim() {
            return Err(SimError::BatchWidth {
                expected: quantized.input_dim(),
                actual: batch.cols(),
            });
        }

        let samples = batch.rows();
        let (attempt, faults) = state.faults.begin_attempt();
        let costs = timing::stage_costs(&self.config, dims, samples);
        let input_bytes = samples * quantized.input_dim();

        if faults.transient {
            state
                .faults
                .record(attempt, FaultKind::TransientInvokeFailure, costs.overhead_s);
            state.ledger.record_failed_attempt(costs.overhead_s);
            return Err(SimError::TransientInvokeFailure);
        }
        // What an attempt has consumed once its input payload landed.
        let landed_s = costs.overhead_s + costs.input_transfer_s;
        if faults.corrupt_input {
            state.faults.record(
                attempt,
                FaultKind::LinkCorruption {
                    direction: LinkDirection::HostToDevice,
                    bytes: input_bytes,
                },
                landed_s,
            );
            state.ledger.record_failed_attempt(landed_s);
            return Err(SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: input_bytes,
            });
        }
        if faults.weight_upset {
            // Parity trips as the weights stream into the array, after the
            // input payload already landed.
            state.weights_corrupt = true;
            state
                .faults
                .record(attempt, FaultKind::WeightUpset, landed_s);
        }
        if state.weights_corrupt {
            state.ledger.record_failed_attempt(landed_s);
            return Err(SimError::WeightCorruption);
        }
        let output = self.run_stages(quantized, &resident.stages, batch)?;

        let output_bytes = samples * quantized.output_dim();
        let stall_s = if faults.hang {
            state.faults.config().hang_stall_s
        } else {
            0.0
        };
        let elapsed_s = costs.total_s + stall_s;

        if let Some(deadline) = deadline_s {
            if elapsed_s > deadline {
                // The watchdog kills the attempt at the deadline, so that
                // is all the simulated time the attempt can consume.
                if faults.hang {
                    state.faults.record(
                        attempt,
                        FaultKind::Hang {
                            stall_s,
                            fatal: true,
                        },
                        deadline,
                    );
                }
                state.ledger.record_failed_attempt(deadline);
                return Err(SimError::DeviceHang {
                    elapsed_s,
                    deadline_s: deadline,
                });
            }
        }
        if faults.hang {
            // Survivable stall: the invocation completes, just late. The
            // stall rides in the overhead bucket so `total_s` stays on the
            // critical path of the parts.
            state.faults.record(
                attempt,
                FaultKind::Hang {
                    stall_s,
                    fatal: false,
                },
                stall_s,
            );
        }
        if faults.corrupt_output {
            state.faults.record(
                attempt,
                FaultKind::LinkCorruption {
                    direction: LinkDirection::DeviceToHost,
                    bytes: output_bytes,
                },
                elapsed_s,
            );
            state.ledger.record_failed_attempt(elapsed_s);
            return Err(SimError::LinkCorruption {
                direction: LinkDirection::DeviceToHost,
                bytes: output_bytes,
            });
        }

        let stats = InvokeStats {
            overhead_s: costs.overhead_s + stall_s,
            total_s: elapsed_s,
            ..costs
        };
        state.ledger.record_invoke(&stats);
        state.ledger.fault_s += stall_s;
        Ok((output, stats))
    }

    /// The functional int8 datapath: quantize, run every resident stage,
    /// dequantize.
    fn run_stages(
        &self,
        quantized: &QuantizedModel,
        stages: &[ResidentStage],
        batch: &Matrix,
    ) -> Result<Matrix> {
        let mut current = quantized.quantize_input(batch)?;
        for stage in stages {
            current = match stage {
                ResidentStage::FullyConnected {
                    weights,
                    out_params,
                } => self.array.execute_fc(&current, weights, *out_params)?,
                ResidentStage::FullyConnectedPerChannel {
                    weights,
                    out_params,
                } => {
                    // Per-channel requantization shares the MXU datapath;
                    // the per-column scale multiply happens in the output
                    // stage.
                    let real = weights
                        .matmul_dequantized(&current)
                        .map_err(wide_nn::NnError::from)?;
                    hd_quant::QuantizedMatrix::quantize(&real, *out_params)
                }
                ResidentStage::Lut(lut) => {
                    let mut data = current.as_slice().to_vec();
                    lut.apply_slice(&mut data);
                    hd_quant::QuantizedMatrix::from_raw(
                        current.rows(),
                        current.cols(),
                        data,
                        lut.output_params(),
                    )
                }
            };
        }
        Ok(current.dequantize())
    }

    /// Injects random bit flips into the resident model's weights — a
    /// fault-injection hook modeling on-chip SRAM upsets, for the
    /// robustness experiments the paper's "hardware failure" motivation
    /// implies. Returns the number of bits flipped. The faulted weights
    /// are packed again, so the next invocation computes with them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoModelLoaded`] if no model is resident.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn inject_weight_faults(
        &self,
        rate: f64,
        rng: &mut hd_tensor::rng::DetRng,
    ) -> Result<usize> {
        let mut state = self.state.lock();
        let resident = state.model.as_mut().ok_or(SimError::NoModelLoaded)?;
        let flipped = Arc::make_mut(&mut resident.model).inject_weight_faults(rate, rng);
        if flipped > 0 {
            resident.stages = resident_stages(resident.model.quantized());
        }
        Ok(flipped)
    }

    /// A snapshot of the ordered record of every injected fault since
    /// device construction.
    pub fn fault_trace(&self) -> FaultTrace {
        self.state.lock().faults.trace().clone()
    }

    /// Whether the resident weights are currently parity-failed. Cleared
    /// by reloading a pristine model via [`Device::load_model`].
    pub fn weights_corrupt(&self) -> bool {
        self.state.lock().weights_corrupt
    }

    /// A snapshot of accumulated device activity.
    pub fn ledger(&self) -> TimingLedger {
        self.state.lock().ledger
    }

    /// Clears the activity ledger (models stay loaded).
    pub fn reset_ledger(&self) {
        self.state.lock().ledger = TimingLedger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;
    use wide_nn::{compile, Activation, ModelBuilder, QuantizedModel, TargetSpec};

    fn compiled_model(n: usize, d: usize, k: usize, seed: u64) -> (CompiledModel, Matrix) {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(24, n, &mut rng);
        let compiled = compile::compile(&model, &calib, &TargetSpec::default()).unwrap();
        (compiled, calib)
    }

    /// Runs `batch` through `device` in invocations of at most `chunk`
    /// rows, returning the stitched outputs and per-chunk stats.
    fn invoke_in_chunks(
        device: &Device,
        batch: &Matrix,
        chunk: usize,
    ) -> (Matrix, Vec<InvokeStats>) {
        let (outs, stats): (Vec<Matrix>, Vec<InvokeStats>) = (0..batch.rows())
            .step_by(chunk)
            .map(|start| {
                let part = batch
                    .slice_rows(start, (start + chunk).min(batch.rows()))
                    .unwrap();
                device.invoke_overlapped(&part).unwrap()
            })
            .unzip();
        (
            Matrix::vstack(&outs.iter().collect::<Vec<_>>()).unwrap(),
            stats,
        )
    }

    #[test]
    fn invoke_without_model_fails() {
        let device = Device::new(DeviceConfig::default());
        assert_eq!(
            device.invoke_overlapped(&Matrix::zeros(1, 4)).unwrap_err(),
            SimError::NoModelLoaded
        );
    }

    #[test]
    fn device_output_matches_reference_executor_bit_exact() {
        let (compiled, calib) = compiled_model(20, 96, 5, 1);
        let reference = compiled.quantized().clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (device_out, _) = device.invoke_overlapped(&calib).unwrap();
        let ref_out = reference.forward(&calib).unwrap();
        assert_eq!(
            device_out, ref_out,
            "device datapath diverged from reference"
        );
    }

    #[test]
    fn batch_width_is_checked() {
        let (compiled, _) = compiled_model(20, 64, 4, 2);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        assert!(matches!(
            device.invoke_overlapped(&Matrix::zeros(1, 21)).unwrap_err(),
            SimError::BatchWidth {
                expected: 20,
                actual: 21
            }
        ));
    }

    #[test]
    fn invoke_stats_match_analytic_estimate() {
        let (compiled, calib) = compiled_model(20, 96, 5, 3);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        let (_, stats) = device.invoke_overlapped(&calib).unwrap();
        assert_eq!(stats, timing::stage_costs(&cfg, &dims, calib.rows()));
    }

    #[test]
    fn oversized_model_rejected_at_load() {
        let mut cfg = DeviceConfig::default();
        cfg.target.param_buffer_bytes = 64;
        // compile() against a permissive target, load against the tiny one.
        let (compiled, _) = compiled_model(20, 64, 4, 4);
        let device = Device::new(cfg);
        assert!(matches!(
            device.load_model(compiled).unwrap_err(),
            SimError::BufferOverflow { .. }
        ));
        assert!(!device.model_loaded());
    }

    #[test]
    fn loading_second_model_evicts_first() {
        let (first, calib1) = compiled_model(20, 64, 4, 5);
        let (second, _) = compiled_model(30, 64, 4, 6);
        let device = Device::new(DeviceConfig::default());
        device.load_model(first).unwrap();
        device.load_model(second).unwrap();
        // Old 20-wide batches no longer fit; new model expects 30.
        assert!(matches!(
            device.invoke_overlapped(&calib1).unwrap_err(),
            SimError::BatchWidth { expected: 30, .. }
        ));
    }

    #[test]
    fn unload_frees_buffer() {
        let (compiled, _) = compiled_model(20, 64, 4, 7);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        assert!(device.model_loaded());
        device.unload_model();
        assert!(!device.model_loaded());
    }

    #[test]
    fn ledger_accumulates() {
        let (compiled, calib) = compiled_model(20, 64, 4, 8);
        let device = Device::new(DeviceConfig::default());
        let report = device.load_model(compiled).unwrap();
        device.invoke_overlapped(&calib).unwrap();
        device.invoke_overlapped(&calib).unwrap();
        let ledger = device.ledger();
        assert_eq!(ledger.invocations, 2);
        assert_eq!(ledger.samples, 2 * calib.rows() as u64);
        assert!(ledger.load_s > 0.0);
        assert!((ledger.load_s - report.total_s).abs() < 1e-12);
        device.reset_ledger();
        assert_eq!(device.ledger().invocations, 0);
    }

    #[test]
    fn chunked_invoke_matches_single_invoke_functionally() {
        let (compiled, calib) = compiled_model(20, 96, 5, 9);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (single, _) = device.invoke_overlapped(&calib).unwrap();
        let (chunked, stats) = invoke_in_chunks(&device, &calib, 7);
        assert_eq!(single, chunked);
        assert_eq!(stats.len(), calib.rows().div_ceil(7));
    }

    #[test]
    fn chunked_invoke_pays_overhead_per_chunk() {
        let (compiled, calib) = compiled_model(20, 96, 5, 10);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = invoke_in_chunks(&device, &calib, 6);
        let total_overhead: f64 = stats.iter().map(|s| s.overhead_s).sum();
        let expected = stats.len() as f64 * DeviceConfig::default().link.per_invoke_latency_s;
        assert!((total_overhead - expected).abs() < 1e-12);
    }

    #[test]
    fn device_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }

    #[test]
    fn load_report_charges_transfer_and_cycles() {
        let (compiled, _) = compiled_model(64, 128, 8, 11);
        let bytes = compiled.param_bytes();
        let device = Device::new(DeviceConfig::default());
        let report = device.load_model(compiled).unwrap();
        assert_eq!(report.param_bytes, bytes);
        assert!(report.transfer_s > 0.0);
        assert!(report.weight_load_cycles > 0);
        assert!(report.total_s >= report.transfer_s);
    }

    #[test]
    fn load_charge_matches_the_prediction_for_a_per_channel_model() {
        let mut rng = DetRng::new(13);
        let model = ModelBuilder::new(20)
            .fully_connected(Matrix::random_normal(20, 64, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(64, 4, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(24, 20, &mut rng);
        let compiled =
            compile::compile_per_channel(&model, &calib, &TargetSpec::default()).unwrap();
        let dims = ModelDims::from_compiled(&compiled);
        assert_eq!(dims.channel_scales, 64 + 4);
        assert_eq!(dims.param_bytes(), compiled.param_bytes());
        let cfg = DeviceConfig::default();
        let predicted = timing::load_cost(&cfg, &dims);
        let charged = Device::new(cfg).load_model(compiled).unwrap();
        assert_eq!(charged, predicted);
    }

    #[test]
    fn second_load_keeps_previous_model_on_failure() {
        let (good, calib) = compiled_model(20, 64, 4, 12);
        let device = Device::new(DeviceConfig::default());
        device.load_model(good).unwrap();

        // Build a model too big for the default 8 MiB buffer.
        let mut rng = DetRng::new(13);
        let model = ModelBuilder::new(1000)
            .fully_connected(Matrix::random_normal(1000, 9000, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let big_calib = Matrix::random_normal(4, 1000, &mut rng);
        let big_target = TargetSpec::new("big", 64, 64, 32 * 1024 * 1024);
        let big = compile::compile(&model, &big_calib, &big_target).unwrap();
        assert!(device.load_model(big).is_err());
        // Original model still answers.
        assert!(device.invoke_overlapped(&calib).is_ok());
    }

    fn fault_device(fault: crate::FaultConfig) -> (Device, Matrix) {
        let (compiled, calib) = compiled_model(20, 96, 5, 21);
        let device = Device::new(DeviceConfig {
            fault,
            ..DeviceConfig::default()
        });
        device.load_model(compiled).unwrap();
        (device, calib)
    }

    #[test]
    fn transient_fault_retry_converges_bit_exact() {
        let fault = crate::FaultConfig::default()
            .with_seed(77)
            .with_transient_rate(0.5);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (want, _) = clean.invoke_overlapped(&calib).unwrap();

        let mut failures = 0;
        let got = loop {
            match device.invoke_overlapped(&calib) {
                Ok((out, _)) => break out,
                Err(e) => {
                    assert_eq!(e, SimError::TransientInvokeFailure);
                    failures += 1;
                    assert!(failures < 64, "transient faults never cleared");
                }
            }
        };
        assert!(failures > 0, "rate 0.5 never fired in 64 attempts");
        assert_eq!(got, want, "retried invoke diverged from fault-free run");
        let ledger = device.ledger();
        assert_eq!(ledger.faulted_invocations, failures);
        assert_eq!(device.fault_trace().len() as u64, failures);
        // Each transient failure charges exactly the dispatch overhead.
        let overhead = DeviceConfig::default().link.per_invoke_latency_s;
        assert!((ledger.fault_s - failures as f64 * overhead).abs() < 1e-12);
        // Success buckets saw exactly one invocation.
        assert_eq!(ledger.invocations, 1);
    }

    #[test]
    fn weight_upset_rejects_until_reload() {
        let fault = crate::FaultConfig::default().with_weight_upset_rate(1.0);
        let (device, calib) = fault_device(fault);
        assert_eq!(
            device.invoke_overlapped(&calib).unwrap_err(),
            SimError::WeightCorruption
        );
        assert!(device.weights_corrupt());
        // Still corrupt on the next attempt, independent of new draws.
        assert_eq!(
            device.invoke_overlapped(&calib).unwrap_err(),
            SimError::WeightCorruption
        );
        let (pristine, _) = compiled_model(20, 96, 5, 21);
        device.load_model(pristine).unwrap();
        assert!(!device.weights_corrupt());
        assert_eq!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::WeightUpset)),
            2
        );
    }

    #[test]
    fn output_link_corruption_charges_the_overlapped_elapsed_time() {
        let fault = crate::FaultConfig::default()
            .with_seed(31)
            .with_link_corruption_rate(0.5);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (_, clean_stats) = clean.invoke_overlapped(&calib).unwrap();
        let output_side = (0..64)
            .map(|_| device.invoke_overlapped(&calib))
            .position(|r| {
                r.err()
                    == Some(SimError::LinkCorruption {
                        direction: LinkDirection::DeviceToHost,
                        bytes: calib.rows() * 5,
                    })
            });
        assert!(output_side.is_some(), "no device-to-host corruption drawn");
        let record = device
            .fault_trace()
            .records()
            .iter()
            .find(|r| {
                matches!(
                    r.kind,
                    FaultKind::LinkCorruption {
                        direction: LinkDirection::DeviceToHost,
                        ..
                    }
                )
            })
            .copied()
            .unwrap();
        let transfer = clean_stats.input_transfer_s + clean_stats.output_transfer_s;
        let expected = clean_stats.overhead_s + transfer.max(clean_stats.compute_s);
        assert_eq!(record.charged_s, expected);
        assert_eq!(record.charged_s, clean_stats.total_s);
    }

    #[test]
    fn link_corruption_charges_overhead_plus_transfer() {
        let fault = crate::FaultConfig::default().with_link_corruption_rate(1.0);
        let (device, calib) = fault_device(fault);
        let err = device.invoke_overlapped(&calib).unwrap_err();
        assert_eq!(
            err,
            SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: calib.rows() * calib.cols(),
            }
        );
        let cfg = DeviceConfig::default();
        let expected = cfg.link.per_invoke_latency_s
            + calib.rows() as f64 * calib.cols() as f64 / cfg.link.bandwidth_bytes_per_sec;
        let ledger = device.ledger();
        assert!((ledger.fault_s - expected).abs() < 1e-12);
        assert_eq!(device.fault_trace().records()[0].charged_s, expected);
    }

    #[test]
    fn fatal_hang_charges_exactly_the_deadline() {
        let fault = crate::FaultConfig::default().with_hang(1.0, 2.0);
        let (device, calib) = fault_device(fault);
        let deadline = 1e-3;
        let err = device
            .invoke_overlapped_with_deadline(&calib, Some(deadline))
            .unwrap_err();
        match err {
            SimError::DeviceHang {
                elapsed_s,
                deadline_s,
            } => {
                assert!(elapsed_s > 2.0, "stall not included in elapsed");
                assert_eq!(deadline_s, deadline);
            }
            other => panic!("expected DeviceHang, got {other}"),
        }
        let ledger = device.ledger();
        assert_eq!(ledger.faulted_invocations, 1);
        assert!((ledger.fault_s - deadline).abs() < 1e-15);
        assert!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::Hang { fatal: true, .. }))
                == 1
        );
    }

    #[test]
    fn survivable_hang_slows_but_succeeds() {
        let stall = 0.25;
        let fault = crate::FaultConfig::default().with_hang(1.0, stall);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        let (want, clean_stats) = clean.invoke_overlapped(&calib).unwrap();
        let (got, stats) = device.invoke_overlapped(&calib).unwrap();
        assert_eq!(got, want);
        assert!((stats.total_s - (clean_stats.total_s + stall)).abs() < 1e-12);
        assert_eq!(
            device
                .fault_trace()
                .count_kind(|k| matches!(k, FaultKind::Hang { fatal: false, .. })),
            1
        );
        assert!((device.ledger().fault_s - stall).abs() < 1e-15);
    }

    #[test]
    fn natural_deadline_overrun_hangs_without_trace() {
        let (device, calib) = fault_device(crate::FaultConfig::default());
        let err = device
            .invoke_overlapped_with_deadline(&calib, Some(0.0))
            .unwrap_err();
        assert!(matches!(err, SimError::DeviceHang { .. }));
        assert!(device.fault_trace().is_empty());
        assert_eq!(device.ledger().faulted_invocations, 1);
    }

    #[test]
    fn same_seed_reproduces_identical_fault_trace() {
        let fault = crate::FaultConfig::default()
            .with_seed(5150)
            .with_transient_rate(0.2)
            .with_link_corruption_rate(0.1)
            .with_hang(0.1, 0.01);
        let (a, calib) = fault_device(fault);
        let (b, _) = fault_device(fault);
        for _ in 0..32 {
            let ra = a.invoke_overlapped(&calib);
            let rb = b.invoke_overlapped(&calib);
            assert_eq!(ra.is_ok(), rb.is_ok());
        }
        assert_eq!(a.fault_trace(), b.fault_trace());
        assert!(!a.fault_trace().is_empty(), "rates too low to exercise");
    }

    #[test]
    fn weight_faults_reach_the_packed_resident_copy() {
        // The device computes from weights it packed at load; a fault must
        // change what it computes exactly as it changes the model.
        let (compiled, calib) = compiled_model(20, 96, 5, 21);
        let mut faulted = compiled.clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (pristine, _) = device.invoke_overlapped(&calib).unwrap();
        let rate = 0.05;
        let flipped = device
            .inject_weight_faults(rate, &mut DetRng::new(7))
            .unwrap();
        assert_eq!(
            faulted.inject_weight_faults(rate, &mut DetRng::new(7)),
            flipped
        );
        assert!(flipped > 0);
        let (out, _) = device.invoke_overlapped(&calib).unwrap();
        assert_eq!(out, faulted.quantized().forward(&calib).unwrap());
        assert_ne!(out, pristine, "the faults never reached the computation");
    }

    #[test]
    fn pipelined_outputs_bit_exact_with_chunked() {
        let (compiled, calib) = compiled_model(20, 96, 5, 15);
        let reference = compiled.quantized().forward(&calib).unwrap();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        for chunk in [1, 7, calib.rows() + 3] {
            let (chunked, stats) = invoke_in_chunks(&device, &calib, chunk);
            assert_eq!(chunked, reference, "chunk {chunk} changed the datapath");
            assert_eq!(stats.len(), calib.rows().div_ceil(chunk));
        }
    }

    #[test]
    fn overlapped_stats_match_analytic_pipelined_estimate() {
        let (compiled, calib) = compiled_model(20, 96, 5, 16);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        let (_, stats) = device.invoke_overlapped(&calib).unwrap();
        let costs = timing::stage_costs(&cfg, &dims, calib.rows());
        let transfer = costs.input_transfer_s + costs.output_transfer_s;
        assert_eq!(
            stats.total_s,
            costs.overhead_s + transfer.max(costs.compute_s)
        );
        assert!(stats.total_s <= costs.serial_elapsed_s());
    }

    #[test]
    fn pipelined_ledger_matches_batched_pipelined_formula() {
        let (compiled, calib) = compiled_model(20, 96, 5, 17);
        let dims = ModelDims::from_compiled(&compiled);
        let cfg = DeviceConfig::default();
        let device = Device::new(cfg.clone());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = invoke_in_chunks(&device, &calib, 7);
        let total: f64 = stats.iter().map(|s| s.total_s).sum();
        let expected = timing::chunked_s(calib.rows(), 7, |rows| {
            timing::stage_costs(&cfg, &dims, rows).total_s
        });
        assert!((total - expected).abs() < 1e-12);
        let ledger = device.ledger();
        assert!((ledger.total_s - expected).abs() < 1e-12);
        assert!(ledger.overlapped_s > 0.0, "nothing overlapped");
        // The pipelined total decomposes along the critical path.
        let critical = ledger.overhead_s + ledger.compute_s + ledger.exposed_transfer_s();
        assert!((ledger.total_s - critical).abs() < 1e-12);
    }

    #[test]
    fn serial_invocations_expose_their_full_transfer() {
        let (compiled, calib) = compiled_model(20, 96, 5, 18);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = invoke_in_chunks(&device, &calib, 7);
        // Run back to back, the legs expose every transfer second; the
        // double-buffered schedule saves exactly what the ledger hides.
        let serial: f64 = stats.iter().map(InvokeStats::serial_elapsed_s).sum();
        let ledger = device.ledger();
        let exposed_serially = serial - ledger.overhead_s - ledger.compute_s;
        assert!((exposed_serially - ledger.transfer_s).abs() < 1e-15);
        assert!((serial - ledger.total_s - ledger.overlapped_s).abs() < 1e-15);
    }

    #[test]
    fn compute_bound_invocation_hides_its_whole_transfer() {
        // 20 -> 512 -> 2: a few hundred bytes on the link, eight MXU
        // tiles per layer.
        let (compiled, calib) = compiled_model(20, 512, 2, 18);
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        device.reset_ledger();
        let (_, stats) = device.invoke_overlapped(&calib).unwrap();
        assert!(stats.input_transfer_s + stats.output_transfer_s < stats.compute_s);
        let ledger = device.ledger();
        assert_eq!(ledger.overlapped_s, ledger.transfer_s);
        assert_eq!(ledger.exposed_transfer_s(), 0.0);
        assert_eq!(ledger.total_s, ledger.overhead_s + ledger.compute_s);
    }

    #[test]
    fn pipelined_survivable_hang_charges_stall() {
        let stall = 0.25;
        let fault = crate::FaultConfig::default().with_hang(1.0, stall);
        let (device, calib) = fault_device(fault);
        let (clean, _) = fault_device(crate::FaultConfig::default());
        device.reset_ledger();
        clean.reset_ledger();
        device.invoke_overlapped(&calib).unwrap();
        clean.invoke_overlapped(&calib).unwrap();
        let (hung, clean) = (device.ledger(), clean.ledger());
        // The stall rides in the overhead bucket on the critical path:
        // double buffering hides none of it.
        assert!((hung.overhead_s - (clean.overhead_s + stall)).abs() < 1e-15);
        assert_eq!(hung.overlapped_s, clean.overlapped_s);
        assert!((hung.total_s - (clean.total_s + stall)).abs() < 1e-12);
        assert!((hung.fault_s - stall).abs() < 1e-15);
        assert_eq!(hung.faulted_invocations, 0);
    }

    #[test]
    fn quantized_model_reference_and_device_agree_on_argmax() {
        let (compiled, calib) = compiled_model(16, 80, 6, 14);
        let reference: QuantizedModel = compiled.quantized().clone();
        let device = Device::new(DeviceConfig::default());
        device.load_model(compiled).unwrap();
        let (out, _) = device.invoke_overlapped(&calib).unwrap();
        let ref_out = reference.forward(&calib).unwrap();
        for r in 0..calib.rows() {
            assert_eq!(
                hd_tensor::ops::argmax(out.row(r)).unwrap(),
                hd_tensor::ops::argmax(ref_out.row(r)).unwrap()
            );
        }
    }
}
