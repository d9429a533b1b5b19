//! Closed-form runtime models for every phase of the co-designed
//! pipeline, at any workload scale.
//!
//! The benchmark harness reproduces the paper's runtime figures (Figs. 5,
//! 6, 8, 9, 10 and Table II) by evaluating these functions at the paper's
//! full Table I scale, while the *accuracy* figures come from functional
//! runs at reduced scale. The per-iteration update fractions that the
//! update-cost model needs (how many samples were misclassified and hence
//! triggered a bundling + detaching sweep) are measured from the
//! functional runs and extrapolated — the same quantity at any dataset
//! size for a given difficulty.

use cpu_model::{cost, PlatformSpec};
use hd_bagging::BaggingConfig;
use tpu_sim::timing::{self, ModelDims};
use tpu_sim::DeviceConfig;

use crate::config::PipelineConfig;

/// Shape of a workload: everything the runtime models need to know about
/// a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Training samples.
    pub train_samples: usize,
    /// Test samples.
    pub test_samples: usize,
    /// Input features `n`.
    pub features: usize,
    /// Classes `k`.
    pub classes: usize,
}

impl WorkloadSpec {
    /// Builds a workload from a dataset spec's paper-scale counts.
    #[must_use]
    pub fn from_dataset(spec: &hd_datasets::DatasetSpec) -> Self {
        WorkloadSpec {
            train_samples: spec.train_samples,
            test_samples: spec.test_samples,
            features: spec.features,
            classes: spec.classes,
        }
    }
}

/// Per-iteration fraction of training samples that triggered a
/// class-hypervector update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateProfile {
    fractions: Vec<f64>,
}

impl UpdateProfile {
    /// Builds a profile from measured per-iteration fractions, rejecting
    /// any value outside `[0, 1]` — including `NaN` — with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`](crate::FrameworkError)
    /// naming the first offending iteration and value.
    pub fn try_from_fractions(fractions: Vec<f64>) -> crate::Result<Self> {
        if let Some((i, &f)) = fractions
            .iter()
            .enumerate()
            .find(|(_, f)| !(0.0..=1.0).contains(*f))
        {
            return Err(crate::FrameworkError::InvalidConfig(format!(
                "update fractions must lie in [0, 1]: iteration {i} has {f}"
            )));
        }
        Ok(UpdateProfile { fractions })
    }

    /// Builds a profile from measured per-iteration fractions.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`. Use
    /// [`UpdateProfile::try_from_fractions`] to handle that case as an
    /// error instead.
    #[must_use]
    pub fn from_fractions(fractions: Vec<f64>) -> Self {
        match Self::try_from_fractions(fractions) {
            Ok(profile) => profile,
            Err(e) => panic!("{e}"),
        }
    }

    /// Extracts the profile from functional training telemetry.
    #[must_use]
    pub fn from_train_stats(stats: &hdc::TrainStats, samples: usize) -> Self {
        let fractions = stats
            .iterations
            .iter()
            .map(|i| i.updates as f64 / samples.max(1) as f64)
            .collect();
        UpdateProfile { fractions }
    }

    /// A generic decaying profile: iteration `i` updates
    /// `start * decay^i` of the samples. `start = 0.5`, `decay = 0.75`
    /// approximates the convergence curves of Fig. 4 when no measured
    /// profile is available.
    #[must_use]
    pub fn geometric(iterations: usize, start: f64, decay: f64) -> Self {
        let fractions = (0..iterations)
            .map(|i| (start * decay.powi(i as i32)).clamp(0.0, 1.0))
            .collect();
        UpdateProfile { fractions }
    }

    /// Number of iterations covered.
    pub fn iterations(&self) -> usize {
        self.fractions.len()
    }

    /// Fraction for iteration `i` (the last known fraction is reused past
    /// the end, `0.5` if empty).
    pub fn fraction(&self, i: usize) -> f64 {
        self.fractions
            .get(i)
            .or_else(|| self.fractions.last())
            .copied()
            .unwrap_or(0.5)
    }

    /// Truncates or extends (by repetition of the last value) to exactly
    /// `iterations` entries.
    pub fn resized(&self, iterations: usize) -> UpdateProfile {
        let fractions = (0..iterations).map(|i| self.fraction(i)).collect();
        UpdateProfile { fractions }
    }
}

/// Per-phase training runtime, in seconds — one bar group of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeBreakdown {
    /// Training-set encoding (accelerator or host, per setting).
    pub encode_s: f64,
    /// Class-hypervector update on the host CPU (similarity search plus
    /// bundling/detaching sweeps).
    pub update_s: f64,
    /// One-time accelerator model generation: serializing/compiling model
    /// files on the host plus loading parameters onto the device.
    pub model_gen_s: f64,
}

impl RuntimeBreakdown {
    /// Sum of all phases.
    pub fn total_s(&self) -> f64 {
        self.encode_s + self.update_s + self.model_gen_s
    }
}

/// Host-side class-hypervector update cost for one full training run:
/// per pass, a similarity search of every sample against all classes
/// plus the update sweeps for the misclassified fraction.
pub fn update_cost_s(
    spec: &PlatformSpec,
    samples: usize,
    d: usize,
    k: usize,
    iterations: usize,
    profile: &UpdateProfile,
) -> f64 {
    let mut total = 0.0;
    for i in 0..iterations {
        let updates = (profile.fraction(i) * samples as f64).round() as usize;
        total += cost::similarity_s(spec, samples, d, k) + cost::class_update_s(spec, updates, d);
    }
    total
}

/// Training breakdown for the **CPU baseline**: encode once on the host,
/// then iterate updates on the host. No accelerator models are generated.
pub fn cpu_training(
    spec: &PlatformSpec,
    workload: &WorkloadSpec,
    d: usize,
    iterations: usize,
    profile: &UpdateProfile,
) -> RuntimeBreakdown {
    RuntimeBreakdown {
        encode_s: cost::encode_s(spec, workload.train_samples, workload.features, d),
        update_s: update_cost_s(
            spec,
            workload.train_samples,
            d,
            workload.classes,
            iterations,
            profile,
        ),
        model_gen_s: 0.0,
    }
}

/// Device seconds to run `samples` rows through a model of shape `dims`
/// in invocations of at most `batch` rows, each invocation's legs run
/// back to back (the serial driver the paper-scale figures model).
#[must_use]
pub fn serial_device_s(
    device: &DeviceConfig,
    dims: &ModelDims,
    samples: usize,
    batch: usize,
) -> f64 {
    timing::chunked_s(samples, batch, |rows| {
        timing::stage_costs(device, dims, rows).serial_elapsed_s()
    })
}

/// Host seconds to run `rows` rows through a compiled int8 model of
/// shape `dims` on the pool's host executor
/// ([`DevicePool::host_forward`](crate::DevicePool::host_forward)), the
/// fallback of a quarantined device: a GEMM per fully-connected layer, a
/// `tanh` per activation layer, and the input quantize and output
/// dequantize a device invocation is charged too.
#[must_use]
pub(crate) fn host_forward_s(spec: &PlatformSpec, dims: &ModelDims, rows: usize) -> f64 {
    let gemms: f64 = dims
        .fc_layers
        .iter()
        .map(|&(k, n)| cost::gemm_s(spec, rows, k, n))
        .sum();
    let activations: f64 = dims
        .lut_widths
        .iter()
        .map(|&width| cost::tanh_s(spec, rows * width))
        .sum();
    gemms
        + activations
        + cost::quantize_s(spec, rows * dims.input_dim)
        + cost::quantize_s(spec, rows * dims.output_dim)
}

/// Training breakdown for the **TPU setting**: the training set encodes
/// on the accelerator (plus host-side int8 quantize/dequantize around the
/// invocations), updates stay on the host, and the one-time costs cover
/// generating + loading the encoder model and generating the final
/// inference model.
pub fn tpu_training(
    device: &DeviceConfig,
    spec: &PlatformSpec,
    workload: &WorkloadSpec,
    d: usize,
    iterations: usize,
    profile: &UpdateProfile,
    encode_batch: usize,
) -> RuntimeBreakdown {
    let enc = ModelDims::encoder(workload.features, d);
    let inf = ModelDims::inference(workload.features, d, workload.classes);
    let s = workload.train_samples;

    let encode_s = serial_device_s(device, &enc, s, encode_batch)
        + cost::quantize_s(spec, s * workload.features)
        + cost::quantize_s(spec, s * d);
    let update_s = update_cost_s(spec, s, d, workload.classes, iterations, profile);
    let model_gen_s = cost::model_generation_s(enc.param_bytes())
        + timing::load_cost(device, &enc).total_s
        + cost::model_generation_s(inf.param_bytes());
    RuntimeBreakdown {
        encode_s,
        update_s,
        model_gen_s,
    }
}

/// Training breakdown for the **TPU + bagging** setting: each of the `M`
/// sub-models encodes its bootstrap sample (`alpha x` the training set)
/// through its own narrow encoder model on the accelerator and trains for
/// `I'` iterations on the host; the one-time costs cover every
/// sub-encoder plus the merged full-width inference model.
pub fn tpu_bagging_training(
    device: &DeviceConfig,
    spec: &PlatformSpec,
    workload: &WorkloadSpec,
    bagging: &BaggingConfig,
    profile: &UpdateProfile,
    encode_batch: usize,
) -> RuntimeBreakdown {
    let d_sub = bagging.sub_dim;
    let d_full = bagging.merged_dim();
    let sub_samples =
        ((workload.train_samples as f64 * bagging.dataset_ratio).round() as usize).max(1);
    let enc = ModelDims::encoder(workload.features, d_sub);
    let inf = ModelDims::inference(workload.features, d_full, workload.classes);
    let sub_profile = profile.resized(bagging.iterations);

    let mut encode_s = 0.0;
    let mut update_s = 0.0;
    let mut model_gen_s = cost::model_generation_s(inf.param_bytes());
    for _ in 0..bagging.sub_models {
        encode_s += serial_device_s(device, &enc, sub_samples, encode_batch)
            + cost::quantize_s(spec, sub_samples * workload.features)
            + cost::quantize_s(spec, sub_samples * d_sub);
        update_s += update_cost_s(
            spec,
            sub_samples,
            d_sub,
            workload.classes,
            bagging.iterations,
            &sub_profile,
        );
        model_gen_s +=
            cost::model_generation_s(enc.param_bytes()) + timing::load_cost(device, &enc).total_s;
    }
    RuntimeBreakdown {
        encode_s,
        update_s,
        model_gen_s,
    }
}

/// Host-only inference time: encode the test set and run the similarity
/// search on the CPU.
pub fn cpu_inference(spec: &PlatformSpec, workload: &WorkloadSpec, d: usize) -> f64 {
    cost::encode_s(spec, workload.test_samples, workload.features, d)
        + cost::similarity_s(spec, workload.test_samples, d, workload.classes)
}

/// Accelerator inference time: the full three-layer model runs on the
/// device in latency-oriented batches (model load is a one-time cost the
/// paper excludes from inference, and so do we). Host quantize of inputs
/// and dequantize of the `k`-wide outputs is included.
pub fn tpu_inference(
    device: &DeviceConfig,
    spec: &PlatformSpec,
    workload: &WorkloadSpec,
    d: usize,
    infer_batch: usize,
) -> f64 {
    let inf = ModelDims::inference(workload.features, d, workload.classes);
    serial_device_s(device, &inf, workload.test_samples, infer_batch)
        + cost::quantize_s(spec, workload.test_samples * workload.features)
        + cost::quantize_s(spec, workload.test_samples * workload.classes)
}

/// Training breakdown for the TPU setting with `devices` accelerators
/// sharing the encoding work (each gets its own copy of the encoder
/// model) and an optionally double-buffered driver that overlaps
/// transfers with compute.
///
/// The host-side phases (quantize/dequantize, class update) do not scale
/// with device count — Amdahl applies, which the `scaling` experiment
/// binary quantifies.
///
/// # Panics
///
/// Panics if `devices == 0`.
// Mirrors tpu_training's parameter list plus the scaling knobs; callers
// are experiment binaries that pass everything explicitly.
#[allow(clippy::too_many_arguments)]
pub fn tpu_training_scaled(
    device: &DeviceConfig,
    spec: &PlatformSpec,
    workload: &WorkloadSpec,
    d: usize,
    iterations: usize,
    profile: &UpdateProfile,
    encode_batch: usize,
    devices: usize,
    pipelined: bool,
) -> RuntimeBreakdown {
    assert!(devices > 0, "need at least one device");
    let enc = ModelDims::encoder(workload.features, d);
    let inf = ModelDims::inference(workload.features, d, workload.classes);
    let s = workload.train_samples;

    // Samples split evenly; the slowest device bounds the phase.
    let per_device = s.div_ceil(devices);
    let device_time = timing::chunked_s(per_device, encode_batch, |rows| {
        let costs = timing::stage_costs(device, &enc, rows);
        if pipelined {
            costs.total_s
        } else {
            costs.serial_elapsed_s()
        }
    });
    let encode_s =
        device_time + cost::quantize_s(spec, s * workload.features) + cost::quantize_s(spec, s * d);
    let update_s = update_cost_s(spec, s, d, workload.classes, iterations, profile);
    let model_gen_s = cost::model_generation_s(enc.param_bytes())
        + devices as f64 * timing::load_cost(device, &enc).total_s
        + cost::model_generation_s(inf.param_bytes());
    RuntimeBreakdown {
        encode_s,
        update_s,
        model_gen_s,
    }
}

/// Energy attribution for one run, in joules: each phase is charged at
/// its executor's average active power (host CPU phases at the platform's
/// power, accelerator phases at the device's). The paper motivates
/// Table II with power parity ("embedded ARM CPU ... that consumes
/// similar power consumption"); these models make the comparison
/// explicit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Joules consumed by host-CPU phases.
    pub host_j: f64,
    /// Joules consumed by the accelerator.
    pub device_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.host_j + self.device_j
    }
}

/// Training energy under a given setting.
///
/// Host-side phases (update, model generation, quantize/dequantize around
/// accelerator invocations, or everything in the CPU baseline) burn the
/// platform's active power; accelerator encoding burns the device's.
pub fn training_energy_j(
    config: &PipelineConfig,
    workload: &WorkloadSpec,
    setting: crate::config::ExecutionSetting,
    profile: &UpdateProfile,
) -> EnergyBreakdown {
    let spec = config.platform.spec();
    let breakdown = training_breakdown(config, workload, setting, profile);
    match setting {
        crate::config::ExecutionSetting::CpuBaseline => EnergyBreakdown {
            host_j: breakdown.total_s() * spec.active_power_w,
            device_j: 0.0,
        },
        crate::config::ExecutionSetting::Tpu => {
            let s = workload.train_samples;
            let host_quant = cost::quantize_s(&spec, s * workload.features)
                + cost::quantize_s(&spec, s * config.dim);
            let device_encode = (breakdown.encode_s - host_quant).max(0.0);
            EnergyBreakdown {
                host_j: (host_quant + breakdown.update_s + breakdown.model_gen_s)
                    * spec.active_power_w,
                device_j: device_encode * config.device.active_power_w,
            }
        }
        crate::config::ExecutionSetting::TpuBagging => {
            let sub_samples = ((workload.train_samples as f64 * config.bagging.dataset_ratio)
                .round() as usize)
                .max(1);
            let host_quant = config.bagging.sub_models as f64
                * (cost::quantize_s(&spec, sub_samples * workload.features)
                    + cost::quantize_s(&spec, sub_samples * config.bagging.sub_dim));
            let device_encode = (breakdown.encode_s - host_quant).max(0.0);
            EnergyBreakdown {
                host_j: (host_quant + breakdown.update_s + breakdown.model_gen_s)
                    * spec.active_power_w,
                device_j: device_encode * config.device.active_power_w,
            }
        }
    }
}

/// Inference energy under a given setting.
pub fn inference_energy_j(
    config: &PipelineConfig,
    workload: &WorkloadSpec,
    setting: crate::config::ExecutionSetting,
) -> EnergyBreakdown {
    let spec = config.platform.spec();
    let total = inference_time_s(config, workload, setting);
    match setting {
        crate::config::ExecutionSetting::CpuBaseline => EnergyBreakdown {
            host_j: total * spec.active_power_w,
            device_j: 0.0,
        },
        crate::config::ExecutionSetting::Tpu | crate::config::ExecutionSetting::TpuBagging => {
            let host_quant = cost::quantize_s(&spec, workload.test_samples * workload.features)
                + cost::quantize_s(&spec, workload.test_samples * workload.classes);
            let device = (total - host_quant).max(0.0);
            EnergyBreakdown {
                host_j: host_quant * spec.active_power_w,
                device_j: device * config.device.active_power_w,
            }
        }
    }
}

/// The per-phase view of **measured** backend telemetry, in the same
/// shape as the closed-form models — the single interface through which
/// runtime analysis consumes what a backend actually executed (at the
/// simulated clocks), as opposed to what the models predict at an
/// arbitrary scale.
#[must_use]
pub fn measured_breakdown(ledger: &crate::backend::BackendLedger) -> RuntimeBreakdown {
    ledger.breakdown()
}

/// Convenience: the full training breakdown for a pipeline configuration
/// under a given setting.
pub fn training_breakdown(
    config: &PipelineConfig,
    workload: &WorkloadSpec,
    setting: crate::config::ExecutionSetting,
    profile: &UpdateProfile,
) -> RuntimeBreakdown {
    let spec = config.platform.spec();
    match setting {
        crate::config::ExecutionSetting::CpuBaseline => {
            cpu_training(&spec, workload, config.dim, config.iterations, profile)
        }
        crate::config::ExecutionSetting::Tpu => tpu_training(
            &config.device,
            &spec,
            workload,
            config.dim,
            config.iterations,
            profile,
            config.encode_batch,
        ),
        crate::config::ExecutionSetting::TpuBagging => tpu_bagging_training(
            &config.device,
            &spec,
            workload,
            &config.bagging,
            profile,
            config.encode_batch,
        ),
    }
}

/// Convenience: inference time for a pipeline configuration under a given
/// setting (bagging shares the plain TPU path thanks to the merged
/// model — the zero-overhead property).
pub fn inference_time_s(
    config: &PipelineConfig,
    workload: &WorkloadSpec,
    setting: crate::config::ExecutionSetting,
) -> f64 {
    let spec = config.platform.spec();
    match setting {
        crate::config::ExecutionSetting::CpuBaseline => cpu_inference(&spec, workload, config.dim),
        crate::config::ExecutionSetting::Tpu | crate::config::ExecutionSetting::TpuBagging => {
            tpu_inference(
                &config.device,
                &spec,
                workload,
                config.dim,
                config.infer_batch,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionSetting;
    use cpu_model::Platform;

    fn mnist_like() -> WorkloadSpec {
        WorkloadSpec {
            train_samples: 60_000,
            test_samples: 10_000,
            features: 784,
            classes: 10,
        }
    }

    fn pamap2_like() -> WorkloadSpec {
        WorkloadSpec {
            train_samples: 32_768,
            test_samples: 6_553,
            features: 27,
            classes: 5,
        }
    }

    fn default_profile() -> UpdateProfile {
        UpdateProfile::geometric(20, 0.5, 0.75)
    }

    #[test]
    fn host_forward_is_the_host_inference_plus_the_device_quantize_terms() {
        let spec = Platform::MobileI5.spec();
        let (rows, n, d, k) = (40, 617, 2048, 26);
        let quantize = cost::quantize_s(&spec, rows * n) + cost::quantize_s(&spec, rows * k);
        let expected =
            cost::encode_s(&spec, rows, n, d) + cost::similarity_s(&spec, rows, d, k) + quantize;
        let got = host_forward_s(&spec, &ModelDims::inference(n, d, k), rows);
        assert!(
            (got - expected).abs() <= 1e-12 * expected,
            "{got} vs {expected}"
        );
        assert_eq!(host_forward_s(&spec, &ModelDims::encoder(n, d), 0), 0.0);
    }

    #[test]
    fn mnist_training_speedup_in_paper_regime() {
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let p = default_profile();
        let cpu = training_breakdown(&config, &w, ExecutionSetting::CpuBaseline, &p).total_s();
        let tpu = training_breakdown(&config, &w, ExecutionSetting::Tpu, &p).total_s();
        let tpu_b = training_breakdown(&config, &w, ExecutionSetting::TpuBagging, &p).total_s();
        let speedup_tpu = cpu / tpu;
        let speedup_b = cpu / tpu_b;
        assert!(speedup_tpu > 1.2, "TPU training speedup {speedup_tpu}");
        assert!(
            speedup_b > speedup_tpu,
            "bagging ({speedup_b}) must beat plain TPU ({speedup_tpu})"
        );
        assert!(
            (2.0..12.0).contains(&speedup_b),
            "TPU_B total-training speedup {speedup_b} outside the paper's regime"
        );
    }

    #[test]
    fn mnist_encode_speedup_near_paper_value() {
        // Paper: 9.37x encode speedup on MNIST.
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let p = default_profile();
        let cpu = training_breakdown(&config, &w, ExecutionSetting::CpuBaseline, &p);
        let tpu = training_breakdown(&config, &w, ExecutionSetting::Tpu, &p);
        let speedup = cpu.encode_s / tpu.encode_s;
        assert!((5.0..18.0).contains(&speedup), "encode speedup {speedup}");
    }

    #[test]
    fn pamap2_encoding_does_not_benefit() {
        // Paper Fig. 5: PAMAP2 is the counterexample.
        let config = PipelineConfig::new(10_000);
        let w = pamap2_like();
        let p = default_profile();
        let cpu = training_breakdown(&config, &w, ExecutionSetting::CpuBaseline, &p);
        let tpu = training_breakdown(&config, &w, ExecutionSetting::Tpu, &p);
        assert!(
            tpu.encode_s > cpu.encode_s,
            "PAMAP2-like encode should be slower on the accelerator"
        );
    }

    #[test]
    fn bagging_cuts_update_cost_by_paper_factor() {
        // Paper: up to 4.74x faster update. The analytic factor is
        // M (d'/d) (I'/I) alpha = 0.18, i.e. ~5.5x, before the profile's
        // shape effects.
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let p = default_profile();
        let cpu = training_breakdown(&config, &w, ExecutionSetting::CpuBaseline, &p);
        let tpu_b = training_breakdown(&config, &w, ExecutionSetting::TpuBagging, &p);
        let factor = cpu.update_s / tpu_b.update_s;
        assert!((3.0..8.0).contains(&factor), "update speedup {factor}");
    }

    #[test]
    fn inference_speedup_in_paper_regime() {
        // Paper: 4.19x on MNIST, PAMAP2 slower.
        let config = PipelineConfig::new(10_000);
        let p_mnist = inference_time_s(&config, &mnist_like(), ExecutionSetting::CpuBaseline)
            / inference_time_s(&config, &mnist_like(), ExecutionSetting::Tpu);
        assert!(
            (2.0..12.0).contains(&p_mnist),
            "MNIST inference speedup {p_mnist}"
        );
        let p_pamap = inference_time_s(&config, &pamap2_like(), ExecutionSetting::CpuBaseline)
            / inference_time_s(&config, &pamap2_like(), ExecutionSetting::Tpu);
        assert!(
            p_pamap < 1.2,
            "PAMAP2 inference speedup {p_pamap} should be near/below 1"
        );
    }

    #[test]
    fn bagging_inference_has_zero_overhead() {
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        assert_eq!(
            inference_time_s(&config, &w, ExecutionSetting::Tpu),
            inference_time_s(&config, &w, ExecutionSetting::TpuBagging)
        );
    }

    #[test]
    fn cortex_a53_uniformly_slower() {
        let i5 = PipelineConfig::new(10_000);
        let pi = PipelineConfig::new(10_000).with_platform(Platform::CortexA53);
        let w = mnist_like();
        let p = default_profile();
        let i5_t = training_breakdown(&i5, &w, ExecutionSetting::CpuBaseline, &p).total_s();
        let pi_t = training_breakdown(&pi, &w, ExecutionSetting::CpuBaseline, &p).total_s();
        assert!(pi_t > 2.0 * i5_t);
    }

    #[test]
    fn profile_resizing_and_defaults() {
        let p = UpdateProfile::from_fractions(vec![0.5, 0.25]);
        assert_eq!(p.fraction(0), 0.5);
        assert_eq!(p.fraction(5), 0.25); // reuses last
        let r = p.resized(4);
        assert_eq!(r.iterations(), 4);
        assert_eq!(r.fraction(3), 0.25);
        let empty = UpdateProfile::from_fractions(vec![]);
        assert_eq!(empty.fraction(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn bad_fraction_panics() {
        let _ = UpdateProfile::from_fractions(vec![1.5]);
    }

    #[test]
    fn try_from_fractions_rejects_out_of_range_and_nan() {
        assert!(UpdateProfile::try_from_fractions(vec![0.0, 1.0, 0.3]).is_ok());
        let err = UpdateProfile::try_from_fractions(vec![0.2, 1.5]).unwrap_err();
        assert!(err.to_string().contains("iteration 1"));
        let err = UpdateProfile::try_from_fractions(vec![f64::NAN]).unwrap_err();
        assert!(err.to_string().contains("NaN"));
    }

    #[test]
    fn geometric_profile_decays() {
        let p = UpdateProfile::geometric(5, 0.6, 0.5);
        assert!(p.fraction(0) > p.fraction(4));
        assert_eq!(p.iterations(), 5);
    }

    #[test]
    fn breakdown_total_sums_phases() {
        let b = RuntimeBreakdown {
            encode_s: 1.0,
            update_s: 2.0,
            model_gen_s: 0.5,
        };
        assert_eq!(b.total_s(), 3.5);
    }

    #[test]
    fn multi_device_scales_encode_but_not_update() {
        let config = PipelineConfig::new(10_000);
        let spec = config.platform.spec();
        let w = mnist_like();
        let p = default_profile();
        let one = tpu_training_scaled(
            &config.device,
            &spec,
            &w,
            10_000,
            20,
            &p,
            config.encode_batch,
            1,
            false,
        );
        let four = tpu_training_scaled(
            &config.device,
            &spec,
            &w,
            10_000,
            20,
            &p,
            config.encode_batch,
            4,
            false,
        );
        assert!(
            four.encode_s < one.encode_s,
            "encode must shrink with devices"
        );
        assert_eq!(four.update_s, one.update_s, "host update cannot scale");
        assert!(
            four.model_gen_s > one.model_gen_s,
            "each device pays a load"
        );
        // Single-device unscaled path matches the plain model.
        let plain = tpu_training(
            &config.device,
            &spec,
            &w,
            10_000,
            20,
            &p,
            config.encode_batch,
        );
        assert!((one.total_s() - plain.total_s()).abs() < 1e-9);
    }

    #[test]
    fn pipelining_helps_transfer_bound_encoding() {
        let config = PipelineConfig::new(10_000);
        let spec = config.platform.spec();
        let w = mnist_like();
        let p = default_profile();
        let serial = tpu_training_scaled(
            &config.device,
            &spec,
            &w,
            10_000,
            20,
            &p,
            config.encode_batch,
            1,
            false,
        );
        let piped = tpu_training_scaled(
            &config.device,
            &spec,
            &w,
            10_000,
            20,
            &p,
            config.encode_batch,
            1,
            true,
        );
        assert!(piped.encode_s < serial.encode_s);
    }

    #[test]
    fn tpu_energy_beats_cpu_energy_on_wide_features() {
        // The efficiency story behind Table II: the 2 W accelerator does
        // the heavy encoding work, so total energy drops even more than
        // runtime.
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let p = default_profile();
        let cpu = training_energy_j(&config, &w, ExecutionSetting::CpuBaseline, &p);
        let tpu = training_energy_j(&config, &w, ExecutionSetting::Tpu, &p);
        assert!(tpu.total_j() < cpu.total_j());
        assert!(tpu.device_j > 0.0);
        assert_eq!(cpu.device_j, 0.0);
    }

    #[test]
    fn inference_energy_components_sum_consistently() {
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let e = inference_energy_j(&config, &w, ExecutionSetting::Tpu);
        assert!(e.host_j > 0.0 && e.device_j > 0.0);
        assert_eq!(e.total_j(), e.host_j + e.device_j);
        let cpu = inference_energy_j(&config, &w, ExecutionSetting::CpuBaseline);
        assert!(cpu.total_j() > e.total_j());
    }

    #[test]
    fn bagging_energy_below_plain_tpu_energy() {
        let config = PipelineConfig::new(10_000);
        let w = mnist_like();
        let p = default_profile();
        let tpu = training_energy_j(&config, &w, ExecutionSetting::Tpu, &p);
        let bag = training_energy_j(&config, &w, ExecutionSetting::TpuBagging, &p);
        assert!(bag.total_j() < tpu.total_j());
    }

    #[test]
    fn update_profile_from_train_stats() {
        let stats = hdc::TrainStats {
            iterations: vec![
                hdc::IterationStats {
                    iteration: 0,
                    updates: 50,
                    train_accuracy: 0.5,
                    validation_accuracy: None,
                },
                hdc::IterationStats {
                    iteration: 1,
                    updates: 10,
                    train_accuracy: 0.9,
                    validation_accuracy: None,
                },
            ],
        };
        let p = UpdateProfile::from_train_stats(&stats, 100);
        assert_eq!(p.fraction(0), 0.5);
        assert_eq!(p.fraction(1), 0.1);
    }
}
