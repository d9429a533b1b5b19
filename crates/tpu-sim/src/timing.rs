//! Analytic timing formulas shared by the functional device and the
//! paper-scale benchmark harness.
//!
//! The accuracy experiments execute reduced-size workloads functionally,
//! but the *runtime* figures (paper Figs. 5, 6, 8, 9, 10 and Table II) are
//! computed from these closed-form models at the paper's full scale — the
//! same separation the paper itself relies on when normalizing runtimes.
//! The simulated [`Device`](crate::Device) calls [`stage_costs`] for every
//! invocation, so functional runs and paper-scale models charge one cost
//! law; [`InvokeStats`] composes its legs serially or double-buffered, and
//! [`chunks`] is the one rule for splitting a batch into invocations.

use wide_nn::CompiledModel;

use crate::config::DeviceConfig;
use crate::systolic::SystolicArray;

/// Shape summary of a model: everything the timing model needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDims {
    /// Feature width consumed per sample.
    pub input_dim: usize,
    /// `(k, n)` of each fully-connected layer, in order.
    pub fc_layers: Vec<(usize, usize)>,
    /// Output width of each activation (LUT) layer, in order.
    pub lut_widths: Vec<usize>,
    /// Width produced per sample.
    pub output_dim: usize,
    /// `f32` scales loaded with per-channel FC layers, one per output
    /// column.
    pub channel_scales: usize,
}

impl ModelDims {
    /// Dimensions of the paper's encoder half: `n -> d` with a `tanh`.
    #[must_use]
    pub fn encoder(n: usize, d: usize) -> Self {
        ModelDims {
            input_dim: n,
            fc_layers: vec![(n, d)],
            lut_widths: vec![d],
            output_dim: d,
            channel_scales: 0,
        }
    }

    /// Dimensions of the paper's full three-layer inference network:
    /// `n -> d -> k` with a `tanh` in the middle.
    #[must_use]
    pub fn inference(n: usize, d: usize, k: usize) -> Self {
        ModelDims {
            input_dim: n,
            fc_layers: vec![(n, d), (d, k)],
            lut_widths: vec![d],
            output_dim: k,
            channel_scales: 0,
        }
    }

    /// Extracts dimensions from a compiled model.
    #[must_use]
    pub fn from_compiled(compiled: &CompiledModel) -> Self {
        let mut dims = ModelDims {
            input_dim: compiled.input_dim(),
            fc_layers: Vec::new(),
            lut_widths: Vec::new(),
            output_dim: compiled.output_dim(),
            channel_scales: 0,
        };
        let mut width = compiled.input_dim();
        for stage in compiled.quantized().stages() {
            match stage {
                wide_nn::QuantStage::FullyConnected { weights, .. } => {
                    dims.fc_layers.push(weights.shape());
                    width = weights.cols();
                }
                wide_nn::QuantStage::FullyConnectedPerChannel { weights, .. } => {
                    dims.fc_layers.push((weights.rows(), weights.cols()));
                    dims.channel_scales += weights.cols();
                    width = weights.cols();
                }
                wide_nn::QuantStage::Lut(_) => dims.lut_widths.push(width),
            }
        }
        dims
    }

    /// Total quantized parameter bytes: `i8` weights, 256-byte LUTs and
    /// 4-byte per-channel scales. For a compiled model this equals
    /// [`CompiledModel::param_bytes`].
    pub fn param_bytes(&self) -> usize {
        self.fc_layers.iter().map(|(k, n)| k * n).sum::<usize>()
            + 256 * self.lut_widths.len()
            + 4 * self.channel_scales
    }
}

/// The cost of one invocation, leg by leg, in seconds: what
/// [`stage_costs`] predicts and what [`Device::invoke_overlapped`]
/// charges and returns.
///
/// [`Device::invoke_overlapped`]: crate::Device::invoke_overlapped
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvokeStats {
    /// Samples in the invocation.
    pub samples: usize,
    /// Fixed per-invocation dispatch overhead (cannot be hidden). A
    /// survivable device hang adds its stall here.
    pub overhead_s: f64,
    /// Host-to-device input DMA time on the link.
    pub input_transfer_s: f64,
    /// MXU + activation-unit time on the device.
    pub compute_s: f64,
    /// Device-to-host output DMA time on the link.
    pub output_transfer_s: f64,
    /// Total MXU/activation cycles behind `compute_s`.
    pub compute_cycles: u64,
    /// Elapsed time under the device's double-buffered schedule,
    /// [`InvokeStats::overlapped_elapsed_s`] (a hang stall enters once,
    /// through `overhead_s`).
    pub total_s: f64,
}

impl InvokeStats {
    /// Elapsed time if the legs ran one after another:
    /// `overhead + in + compute + out`.
    #[must_use]
    pub fn serial_elapsed_s(&self) -> f64 {
        self.overhead_s + self.input_transfer_s + self.compute_s + self.output_transfer_s
    }

    /// Elapsed time under double-buffered DMA: the input DMA of the next
    /// tile and the output DMA of the previous one run while the MXU
    /// computes, so only the longer of the link and compute legs is on
    /// the critical path: `overhead + max(in + out, compute)`.
    #[must_use]
    pub fn overlapped_elapsed_s(&self) -> f64 {
        self.overhead_s + (self.input_transfer_s + self.output_transfer_s).max(self.compute_s)
    }
}

/// Costs of invoking a model with the given dimensions on `samples`
/// rows. This is the one place an invocation's legs are computed: the
/// simulated device charges it, declared SDF schedule graphs take their
/// stage costs from it, and every serial, overlapped or chunked
/// prediction composes it.
///
/// # Examples
///
/// ```
/// use tpu_sim::{timing, DeviceConfig};
///
/// let cfg = DeviceConfig::default();
/// let dims = timing::ModelDims::encoder(784, 10_000);
/// let costs = timing::stage_costs(&cfg, &dims, 256);
/// assert!(costs.total_s > 0.0);
/// // Output transfer (256 x 10000 bytes) dominates the input transfer.
/// assert!(costs.output_transfer_s > costs.input_transfer_s);
/// // Double buffering never loses to running the legs back to back.
/// assert!(costs.total_s <= costs.serial_elapsed_s());
/// ```
pub fn stage_costs(cfg: &DeviceConfig, dims: &ModelDims, samples: usize) -> InvokeStats {
    let array = SystolicArray::new(cfg.target.array_rows, cfg.target.array_cols);
    let bw = cfg.link.bandwidth_bytes_per_sec;

    let mut cycles: u64 = 0;
    for &(k, n) in &dims.fc_layers {
        cycles += array.stream_cycles(samples, k, n);
    }
    for &w in &dims.lut_widths {
        cycles += array.activation_cycles(samples * w);
    }

    let mut costs = InvokeStats {
        samples,
        overhead_s: cfg.link.per_invoke_latency_s,
        input_transfer_s: (samples * dims.input_dim) as f64 / bw,
        compute_s: cycles as f64 / cfg.clock_hz,
        output_transfer_s: (samples * dims.output_dim) as f64 / bw,
        compute_cycles: cycles,
        total_s: 0.0,
    };
    costs.total_s = costs.overlapped_elapsed_s();
    costs
}

/// Splits `total_samples` rows into invocations of at most `batch` rows
/// as `(rows, count)` segments: `count` full chunks of `batch` rows, then
/// one partial chunk of the remainder. Segments with no rows or no
/// chunks are skipped.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn chunks(total_samples: usize, batch: usize) -> impl Iterator<Item = (usize, usize)> {
    assert!(batch > 0, "batch must be positive");
    [(batch, total_samples / batch), (total_samples % batch, 1)]
        .into_iter()
        .filter(|&(rows, count)| rows > 0 && count > 0)
}

/// Seconds to process `total_samples` rows in invocations of at most
/// `batch` rows, where `cost(rows)` is the time of one `rows`-row
/// invocation — for example `|rows| stage_costs(cfg, dims, rows).total_s`
/// for the device's double-buffered schedule.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn chunked_s(total_samples: usize, batch: usize, mut cost: impl FnMut(usize) -> f64) -> f64 {
    chunks(total_samples, batch).fold(0.0, |t, (rows, count)| t + count as f64 * cost(rows))
}

/// One-time cost of loading a model, from [`load_cost`]: what the
/// paper-scale predictors charge and what
/// [`Device::load_model`](crate::Device::load_model) charges and returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Parameter bytes moved onto the device, [`ModelDims::param_bytes`].
    pub param_bytes: usize,
    /// Link time for the parameter transfer.
    pub transfer_s: f64,
    /// Cycles spent shifting weights into the array.
    pub weight_load_cycles: u64,
    /// Total load time.
    pub total_s: f64,
}

/// The one-time model load: parameter transfer over the link plus
/// shifting the weights into the array.
pub fn load_cost(cfg: &DeviceConfig, dims: &ModelDims) -> LoadReport {
    let array = SystolicArray::new(cfg.target.array_rows, cfg.target.array_cols);
    let param_bytes = dims.param_bytes();
    let transfer_s = param_bytes as f64 / cfg.link.bandwidth_bytes_per_sec;
    let weight_load_cycles: u64 = dims
        .fc_layers
        .iter()
        .map(|&(k, n)| array.weight_load_cycles(k, n))
        .sum();
    LoadReport {
        param_bytes,
        transfer_s,
        weight_load_cycles,
        total_s: transfer_s + weight_load_cycles as f64 / cfg.clock_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_and_inference_dims() {
        let e = ModelDims::encoder(784, 10_000);
        assert_eq!(e.fc_layers, vec![(784, 10_000)]);
        assert_eq!(e.output_dim, 10_000);
        let i = ModelDims::inference(784, 10_000, 10);
        assert_eq!(i.fc_layers, vec![(784, 10_000), (10_000, 10)]);
        assert_eq!(i.output_dim, 10);
    }

    #[test]
    fn serial_composition_sums_the_legs() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::inference(128, 1024, 8);
        let costs = stage_costs(&cfg, &dims, 16);
        let sum =
            costs.overhead_s + costs.input_transfer_s + costs.compute_s + costs.output_transfer_s;
        assert_eq!(costs.serial_elapsed_s(), sum);
    }

    #[test]
    fn stage_costs_legs_follow_the_link_and_array_formulas() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::inference(128, 1024, 8);
        let array = SystolicArray::new(cfg.target.array_rows, cfg.target.array_cols);
        let bw = cfg.link.bandwidth_bytes_per_sec;
        for samples in [1usize, 7, 64] {
            let costs = stage_costs(&cfg, &dims, samples);
            let cycles = array.stream_cycles(samples, 128, 1024)
                + array.stream_cycles(samples, 1024, 8)
                + array.activation_cycles(samples * 1024);
            assert_eq!(costs.samples, samples);
            assert_eq!(costs.overhead_s, cfg.link.per_invoke_latency_s);
            assert_eq!(costs.input_transfer_s, (samples * 128) as f64 / bw);
            assert_eq!(costs.output_transfer_s, (samples * 8) as f64 / bw);
            assert_eq!(costs.compute_cycles, cycles);
            assert_eq!(costs.compute_s, cycles as f64 / cfg.clock_hz);
            assert_eq!(costs.total_s, costs.overlapped_elapsed_s());
        }
    }

    #[test]
    fn larger_batch_amortizes_overhead() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        let per_sample_small = stage_costs(&cfg, &dims, 8).serial_elapsed_s() / 8.0;
        let per_sample_big = stage_costs(&cfg, &dims, 256).serial_elapsed_s() / 256.0;
        assert!(per_sample_big < per_sample_small);
    }

    #[test]
    fn batched_time_handles_remainder() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 256);
        let serial = |rows| stage_costs(&cfg, &dims, rows).serial_elapsed_s();
        assert_eq!(chunks(100, 32).collect::<Vec<_>>(), [(32, 3), (4, 1)]);
        assert_eq!(chunks(96, 32).collect::<Vec<_>>(), [(32, 3)]);
        assert_eq!(chunks(5, 32).collect::<Vec<_>>(), [(5, 1)]);
        assert_eq!(chunks(0, 32).count(), 0);
        let t_exact = chunked_s(100, 32, serial);
        let expected = 3.0 * serial(32) + serial(4);
        assert!((t_exact - expected).abs() < 1e-12);
        assert_eq!(chunked_s(0, 32, serial), 0.0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let _ = chunked_s(10, 0, |_| 1.0);
    }

    #[test]
    fn pipelined_is_never_slower_and_hides_the_smaller_term() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        for samples in [1usize, 16, 256] {
            let costs = stage_costs(&cfg, &dims, samples);
            assert!(costs.overlapped_elapsed_s() <= costs.serial_elapsed_s() + 1e-15);
            let transfer = costs.input_transfer_s + costs.output_transfer_s;
            let expected = costs.overhead_s + transfer.max(costs.compute_s);
            assert!((costs.overlapped_elapsed_s() - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn pipelined_chunked_time_sums_chunks() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 512);
        let piped = |rows| stage_costs(&cfg, &dims, rows).total_s;
        let t = chunked_s(70, 32, piped);
        let expected = 2.0 * piped(32) + piped(6);
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn load_time_scales_with_params() {
        let cfg = DeviceConfig::default();
        let small = load_cost(&cfg, &ModelDims::encoder(64, 256)).total_s;
        let big = load_cost(&cfg, &ModelDims::encoder(784, 10_000)).total_s;
        assert!(big > small * 10.0);
    }

    #[test]
    fn paper_scale_encode_speedup_shape() {
        // The headline calibration: MNIST-like encoding (784 features,
        // d = 10000) on the accelerator at batch 256 lands in the high
        // single digits of speedup against a 35 GFLOP/s host — Fig. 10's
        // upper end and Fig. 5's MNIST bar.
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(784, 10_000);
        let tpu_per_sample = stage_costs(&cfg, &dims, 256).serial_elapsed_s() / 256.0;
        let cpu_per_sample = 2.0 * 784.0 * 10_000.0 / 35.0e9;
        let speedup = cpu_per_sample / tpu_per_sample;
        assert!(
            (5.0..20.0).contains(&speedup),
            "encode speedup {speedup} outside the paper's regime"
        );
    }

    #[test]
    fn few_feature_encode_loses_to_cpu() {
        // The PAMAP2 effect: with 27 features the fixed output transfer
        // dominates and the accelerator stops paying off (paper Fig. 5's
        // counterexample dataset).
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(27, 10_000);
        let tpu_per_sample = stage_costs(&cfg, &dims, 256).serial_elapsed_s() / 256.0;
        let cpu_per_sample = 2.0 * 27.0 * 10_000.0 / 35.0e9;
        assert!(
            tpu_per_sample > cpu_per_sample,
            "PAMAP2-like encode should not speed up"
        );
    }

    #[test]
    fn param_bytes_counts_luts() {
        let dims = ModelDims::inference(10, 20, 3);
        assert_eq!(dims.param_bytes(), 10 * 20 + 20 * 3 + 256);
    }
}
