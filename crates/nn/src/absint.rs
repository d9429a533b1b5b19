//! Interval abstract interpretation over the quantized model graph.
//!
//! The paper's speedup rests on the accelerator's int8 MAC datapath: int8
//! operands, `i32` accumulators, requantization back to int8. A silent
//! accumulator overflow or a saturation collapse in that datapath corrupts
//! accuracy results without failing any test. This pass *proves* numeric
//! safety before anything runs: starting from the calibrated input range,
//! it propagates an integer interval through every quantized stage and
//! checks the worst case against the datapath widths of
//! `tpu_sim::SystolicArray` (i32 accumulators, int8 operands).
//!
//! The abstract domain is the lattice of integer intervals `[lo, hi]`;
//! every transfer function returns a *sound overapproximation* of the
//! concrete int8 executor in [`crate::QuantizedModel::run_quantized`]:
//!
//! * **Fully connected** — weights are compile-time constants, so for
//!   output column `j` the accumulator is bounded per column by
//!   `sum_p min/max(av_lo * w[p][j], av_hi * w[p][j])` with
//!   `av = q - zero_point` the centred input. The *running* prefix sums
//!   are tracked too, so an intermediate wrap that a final-sum bound would
//!   miss is still caught. The kernel sums raw `qa * qb` products and
//!   corrects for zero points afterwards, so this is more conservative
//!   than the kernel needs.
//!   Requantization is monotone in the accumulator, so the output interval
//!   is the image of the accumulator endpoints under the same `f32`
//!   arithmetic the executor uses.
//! * **Per-channel fully connected** — identical, with one scale per
//!   output column and a zero weight zero-point.
//! * **Lookup-table activation** — the output interval is the min/max of
//!   the 256-entry table over the reachable index range.
//!
//! Checks emitted as [`Diagnostic`]s:
//!
//! * `range/accumulator-overflow` (**error**) — some reachable input can
//!   push an accumulator outside the datapath's `i32` range.
//! * `range/output-saturation` (warning) — at least a configurable
//!   fraction of a stage's output columns can clip at the int8 rails,
//!   i.e. calibration under-covers the worst case.
//! * `range/dead-range` (warning) — a stage's output is provably constant
//!   over the whole input range; its quantization range is dead.
//!
//! Soundness is pinned by a proptest suite (`tests/absint_soundness.rs`):
//! random models and inputs inside the declared calibration ranges never
//! produce a concrete accumulator or output outside the static interval.

use std::fmt;

use hd_quant::lut::ActivationLut;
use hd_quant::QuantParams;

use crate::diag::{Diagnostic, Severity};
use crate::quantized::{QuantStage, QuantizedModel};

/// A closed integer interval `[lo, hi]` — one element of the abstract
/// domain. Kept in `i64` so worst-case int8 GEMM accumulators (which may
/// exceed `i32`) are represented exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The full quantized int8 range `[-128, 127]`.
    pub const I8: Interval = Interval { lo: -128, hi: 127 };

    /// The degenerate zero interval.
    pub const ZERO: Interval = Interval { lo: 0, hi: 0 };

    /// Creates `[lo, hi]`, swapping the bounds if given in reverse.
    #[must_use]
    pub fn new(lo: i64, hi: i64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval holds exactly one value.
    #[must_use]
    pub fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }

    /// The least interval containing both `self` and `other` (lattice
    /// join).
    #[must_use]
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::ZERO
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Tunable thresholds for the range analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeConfig {
    /// Fraction of a stage's output columns that may saturate before a
    /// `range/output-saturation` warning fires.
    pub saturation_warn_fraction: f64,
    /// Accumulator width of the target datapath in bits. The default (32)
    /// matches the `i32` MAC accumulators of `tpu_sim::SystolicArray` and
    /// the reference kernels in `hd_quant::gemm`.
    pub accumulator_bits: u32,
}

impl Default for RangeConfig {
    fn default() -> Self {
        RangeConfig {
            saturation_warn_fraction: 0.25,
            accumulator_bits: 32,
        }
    }
}

impl RangeConfig {
    /// The accumulator interval representable at
    /// [`RangeConfig::accumulator_bits`].
    #[must_use]
    pub fn accumulator_range(&self) -> Interval {
        if self.accumulator_bits >= 64 {
            return Interval::new(i64::MIN, i64::MAX);
        }
        let bits = self.accumulator_bits.max(2);
        let hi = (1i64 << (bits - 1)) - 1;
        Interval::new(-hi - 1, hi)
    }
}

/// The inferred value ranges of one quantized stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRange {
    /// Index of the stage in execution order.
    pub stage_index: usize,
    /// Stable stage name (`"fully-connected"`,
    /// `"fully-connected-per-channel"` or `"lut"`).
    pub name: String,
    /// Quantized values entering the stage.
    pub input: Interval,
    /// Worst-case integer accumulator envelope (covering every prefix of
    /// the reduction) for GEMM stages; `None` for table lookups.
    pub accumulator: Option<Interval>,
    /// Quantized values leaving the stage.
    pub output: Interval,
    /// Fraction of output columns whose requantization can clip at the
    /// int8 rails for some reachable input (0.0 for table lookups).
    pub saturation_fraction: f64,
}

/// The outcome of a range-analysis pass: per-stage intervals plus every
/// finding, mirroring the shape of [`crate::verify::VerifyReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeReport {
    input: Interval,
    stages: Vec<StageRange>,
    diagnostics: Vec<Diagnostic>,
}

impl RangeReport {
    /// Quantized values entering the model (post input quantization,
    /// which saturates into the int8 range).
    pub fn input(&self) -> Interval {
        self.input
    }

    /// Per-stage inferred ranges, in execution order.
    pub fn stages(&self) -> &[StageRange] {
        &self.stages
    }

    /// All findings, in stage order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the model passed (warnings and notes allowed).
    pub fn is_ok(&self) -> bool {
        !self.has_errors()
    }
}

impl fmt::Display for RangeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(f, "ranges: input q in {}", self.input)?;
        for s in &self.stages {
            write!(f, "ranges: stage {} {}: ", s.stage_index, s.name)?;
            if let Some(acc) = s.accumulator {
                write!(f, "acc in {acc}, ")?;
            }
            write!(f, "out q in {}", s.output)?;
            if s.saturation_fraction > 0.0 {
                write!(
                    f,
                    " ({:.0}% of columns can saturate)",
                    s.saturation_fraction * 100.0
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Per-output-column accumulator bounds: the final-sum interval plus the
/// envelope of every reduction prefix.
struct ColumnBound {
    lo: i64,
    hi: i64,
    env_lo: i64,
    env_hi: i64,
}

fn column_bounds<'a>(
    rows: usize,
    cols: usize,
    weight_row: impl Fn(usize) -> &'a [i8],
    weight_zp: i64,
    av: Interval,
) -> Vec<ColumnBound> {
    let mut bounds: Vec<ColumnBound> = (0..cols)
        .map(|_| ColumnBound {
            lo: 0,
            hi: 0,
            env_lo: 0,
            env_hi: 0,
        })
        .collect();
    for p in 0..rows {
        let row = weight_row(p);
        for (b, &wq) in bounds.iter_mut().zip(row) {
            let w = i64::from(wq) - weight_zp;
            let x = av.lo * w;
            let y = av.hi * w;
            b.lo += x.min(y);
            b.hi += x.max(y);
            b.env_lo = b.env_lo.min(b.lo);
            b.env_hi = b.env_hi.max(b.hi);
        }
    }
    bounds
}

/// Whether requantizing the accumulator interval `[lo, hi]` at the real
/// scale `acc_scale` into `out` can clip at (or past) the int8 rails.
fn can_saturate(lo: i64, hi: i64, acc_scale: f64, out: QuantParams) -> bool {
    let raw = |acc: i64| {
        (acc_scale * acc as f64 / f64::from(out.scale())).round() + f64::from(out.zero_point())
    };
    raw(hi) > f64::from(QuantParams::QMAX) || raw(lo) < f64::from(QuantParams::QMIN)
}

fn lut_output(lut: &ActivationLut, input: Interval) -> Interval {
    // `apply` indexes `table[q - i8::MIN]`; the reachable indices are the
    // input interval shifted by 128, clamped defensively to the table.
    let lo_idx = (input.lo + 128).clamp(0, 255) as usize;
    let hi_idx = (input.hi + 128).clamp(lo_idx as i64, 255) as usize;
    let mut out_lo = i64::from(i8::MAX);
    let mut out_hi = i64::from(i8::MIN);
    for &v in &lut.table()[lo_idx..=hi_idx] {
        out_lo = out_lo.min(i64::from(v));
        out_hi = out_hi.max(i64::from(v));
    }
    Interval::new(out_lo, out_hi)
}

fn overflow_diag(index: usize, name: &str, env: Interval, config: &RangeConfig) -> Diagnostic {
    let datapath = config.accumulator_range();
    Diagnostic::error(
        "range/accumulator-overflow",
        format!(
            "stage {index} ({name}): worst-case accumulator range {env} exceeds the \
             {}-bit datapath accumulator {datapath}",
            config.accumulator_bits
        ),
    )
    .at_layer(index, name)
    .with_help(
        "narrow the calibration range, shrink the weights, or split the \
         reduction dimension so every partial sum fits the accumulator",
    )
}

fn saturation_diag(index: usize, name: &str, fraction: f64, config: &RangeConfig) -> Diagnostic {
    Diagnostic::warning(
        "range/output-saturation",
        format!(
            "stage {index} ({name}): {:.0}% of output columns can saturate int8 \
             requantization (warn threshold {:.0}%)",
            fraction * 100.0,
            config.saturation_warn_fraction * 100.0
        ),
    )
    .at_layer(index, name)
    .with_help(
        "the calibrated output range under-covers the worst case; widen the \
         calibration batch or rescale the layer's weights",
    )
}

fn dead_range_diag(index: usize, name: &str, output: Interval) -> Diagnostic {
    Diagnostic::warning(
        "range/dead-range",
        format!(
            "stage {index} ({name}): output is provably constant (q = {}) over the \
             whole input range; its quantization range is dead",
            output.lo
        ),
    )
    .at_layer(index, name)
    .with_help(
        "the stage contributes nothing at int8 precision — remove it or \
         increase its weight/output scales",
    )
}

/// One GEMM stage's transfer function, shared by the per-tensor and
/// per-channel variants. `scale_of` gives the per-column real accumulator
/// scale and `requant` maps `(column, accumulator)` through the concrete
/// executor's requantization path.
#[allow(clippy::too_many_arguments)]
fn gemm_stage(
    index: usize,
    name: &str,
    input: Interval,
    bounds: &[ColumnBound],
    out_params: QuantParams,
    scale_of: impl Fn(usize) -> f64,
    requant: impl Fn(usize, i64) -> i8,
    config: &RangeConfig,
    diags: &mut Vec<Diagnostic>,
) -> StageRange {
    let mut acc = Interval::ZERO;
    let mut out: Option<Interval> = None;
    let mut saturating = 0usize;
    for (j, b) in bounds.iter().enumerate() {
        acc = acc.join(&Interval::new(b.env_lo, b.env_hi));
        // Requantization is monotone in the accumulator, so the image of
        // the endpoints (evaluated with the executor's own f32 path)
        // bounds every concrete output.
        let col = Interval::new(i64::from(requant(j, b.lo)), i64::from(requant(j, b.hi)));
        out = Some(out.map_or(col, |o| o.join(&col)));
        if can_saturate(b.lo, b.hi, scale_of(j), out_params) {
            saturating += 1;
        }
    }
    let output = out.unwrap_or(Interval::ZERO);
    let fraction = if bounds.is_empty() {
        0.0
    } else {
        saturating as f64 / bounds.len() as f64
    };

    let datapath = config.accumulator_range();
    if acc.lo < datapath.lo || acc.hi > datapath.hi {
        diags.push(overflow_diag(index, name, acc, config));
    }
    if fraction >= config.saturation_warn_fraction && fraction > 0.0 {
        diags.push(saturation_diag(index, name, fraction, config));
    }
    if !bounds.is_empty() && output.is_singleton() && !input.is_singleton() {
        diags.push(dead_range_diag(index, name, output));
    }

    StageRange {
        stage_index: index,
        name: name.to_owned(),
        input,
        accumulator: Some(acc),
        output,
        saturation_fraction: fraction,
    }
}

/// Propagates value intervals through every stage of a quantized model
/// and reports numeric-safety findings.
///
/// The initial interval is the full int8 range: input quantization
/// saturates, so *every* real input lands inside it — the analysis is
/// sound for arbitrary inputs, not just calibration-shaped ones.
#[must_use]
pub fn analyze_ranges(model: &QuantizedModel, config: &RangeConfig) -> RangeReport {
    let input = Interval::I8;
    let mut cur = input;
    let mut cur_params = model.input_params();
    let mut stages = Vec::with_capacity(model.stages().len());
    let mut diagnostics = Vec::new();

    for (i, stage) in model.stages().iter().enumerate() {
        let sr = match stage {
            QuantStage::FullyConnected {
                weights,
                out_params,
            } => {
                let za = i64::from(cur_params.zero_point());
                let av = Interval::new(cur.lo - za, cur.hi - za);
                let zb = i64::from(weights.params().zero_point());
                let bounds =
                    column_bounds(weights.rows(), weights.cols(), |p| weights.row(p), zb, av);
                // Same combined scale the kernel computes.
                let acc_scale = cur_params.scale() * weights.params().scale();
                let sr = gemm_stage(
                    i,
                    "fully-connected",
                    cur,
                    &bounds,
                    *out_params,
                    |_| f64::from(acc_scale),
                    |_, a| requant_saturating(*out_params, a, acc_scale),
                    config,
                    &mut diagnostics,
                );
                cur_params = *out_params;
                sr
            }
            QuantStage::FullyConnectedPerChannel {
                weights,
                out_params,
            } => {
                let za = i64::from(cur_params.zero_point());
                let av = Interval::new(cur.lo - za, cur.hi - za);
                let sa = cur_params.scale();
                let scales = weights.scales().to_vec();
                let bounds =
                    column_bounds(weights.rows(), weights.cols(), |p| weights.row(p), 0, av);
                let sr = gemm_stage(
                    i,
                    "fully-connected-per-channel",
                    cur,
                    &bounds,
                    *out_params,
                    |j| f64::from(sa) * f64::from(scales[j]),
                    // Mirror `ChannelQuantizedMatrix::matmul_dequantized`
                    // followed by `QuantizedMatrix::quantize`.
                    |j, a| out_params.quantize(sa * scales[j] * clamp_to_f32(a)),
                    config,
                    &mut diagnostics,
                );
                cur_params = *out_params;
                sr
            }
            QuantStage::Lut(lut) => {
                let output = lut_output(lut, cur);
                if output.is_singleton() && !cur.is_singleton() {
                    diagnostics.push(dead_range_diag(i, "lut", output));
                }
                cur_params = lut.output_params();
                StageRange {
                    stage_index: i,
                    name: "lut".to_owned(),
                    input: cur,
                    accumulator: None,
                    output,
                    saturation_fraction: 0.0,
                }
            }
        };
        cur = sr.output;
        stages.push(sr);
    }

    RangeReport {
        input,
        stages,
        diagnostics,
    }
}

/// The executor's requantization applied to a (possibly out-of-`i32`)
/// static bound: saturate into the accumulator range first, then follow
/// the concrete f32 path.
/// For models that pass the overflow check the saturation never engages,
/// so this is bit-identical to `requantize_accumulator`.
fn requant_saturating(out: QuantParams, acc: i64, acc_scale: f32) -> i8 {
    let acc32 = hd_quant::narrow::saturate_i64_to_i32(acc);
    out.requantize_accumulator(acc32, acc_scale)
}

/// `i64 -> f32` via the same monotone conversion the executor performs on
/// its `i32` accumulators (identical for all in-range values).
fn clamp_to_f32(acc: i64) -> f32 {
    hd_quant::narrow::saturate_i64_to_i32(acc) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::layer::Activation;
    use hd_tensor::rng::DetRng;
    use hd_tensor::Matrix;

    fn quantized(n: usize, d: usize, k: usize, seed: u64) -> QuantizedModel {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calibration = Matrix::random_normal(16, n, &mut rng);
        QuantizedModel::quantize(&model, &calibration).unwrap()
    }

    #[test]
    fn interval_ops() {
        let a = Interval::new(3, -2);
        assert_eq!(a, Interval::new(-2, 3));
        assert!(a.contains(0));
        assert!(!a.contains(4));
        assert!(!a.is_singleton());
        assert!(Interval::ZERO.is_singleton());
        assert_eq!(a.join(&Interval::new(5, 7)), Interval::new(-2, 7));
        assert_eq!(Interval::new(-2, 3).to_string(), "[-2, 3]");
    }

    #[test]
    fn accumulator_range_matches_i32() {
        let c = RangeConfig::default();
        let r = c.accumulator_range();
        assert_eq!(r.lo, i64::from(i32::MIN));
        assert_eq!(r.hi, i64::from(i32::MAX));
    }

    #[test]
    fn small_model_is_clean_and_fully_ranged() {
        let q = quantized(8, 16, 4, 7);
        let report = analyze_ranges(&q, &RangeConfig::default());
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.stages().len(), 3);
        assert_eq!(report.input(), Interval::I8);
        // FC stages carry accumulator envelopes, the LUT does not.
        assert!(report.stages()[0].accumulator.is_some());
        assert!(report.stages()[1].accumulator.is_none());
        assert!(report.stages()[2].accumulator.is_some());
        for s in report.stages() {
            assert!(s.output.lo >= -128 && s.output.hi <= 127, "{s:?}");
        }
    }

    #[test]
    fn intervals_thread_between_stages() {
        let q = quantized(8, 16, 4, 9);
        let report = analyze_ranges(&q, &RangeConfig::default());
        for pair in report.stages().windows(2) {
            assert_eq!(pair[1].input, pair[0].output);
        }
    }

    #[test]
    fn narrow_accumulator_budget_triggers_overflow() {
        let q = quantized(32, 16, 4, 11);
        let tight = RangeConfig {
            accumulator_bits: 16,
            ..RangeConfig::default()
        };
        let report = analyze_ranges(&q, &tight);
        assert!(report.has_errors());
        assert!(report
            .errors()
            .all(|d| d.code == "range/accumulator-overflow"));
    }

    #[test]
    fn report_renders_stage_lines() {
        let q = quantized(4, 8, 2, 13);
        let report = analyze_ranges(&q, &RangeConfig::default());
        let text = report.to_string();
        assert!(text.contains("ranges: input q in [-128, 127]"), "{text}");
        assert!(text.contains("stage 0 fully-connected"), "{text}");
        assert!(text.contains("stage 1 lut"), "{text}");
    }
}
