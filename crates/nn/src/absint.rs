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
//! * `range/output-saturation` (warning) — at least a quarter of a
//!   stage's output columns can clip at the int8 rails, i.e. calibration
//!   under-covers the worst case.
//! * `range/dead-range` (warning) — a stage's output is provably constant
//!   over the whole input range; its quantization range is dead.
//!
//! Soundness is pinned by a proptest suite (`tests/absint_soundness.rs`):
//! random models and inputs inside the declared calibration ranges never
//! produce a concrete accumulator or output outside the static interval.

use std::fmt;

use hd_quant::gemm::MAX_EXACT_DEPTH;
use hd_quant::lut::ActivationLut;
use hd_quant::QuantParams;
use hd_tensor::gemm::PackedI8;

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

/// Fraction of a stage's output columns that may saturate before a
/// `range/output-saturation` warning fires.
const SATURATION_WARN_FRACTION: f64 = 0.25;

/// The accumulator interval of the target datapath: the 32-bit MAC
/// accumulators of `tpu_sim::SystolicArray` and the reference kernels in
/// `hd_quant::gemm`.
const ACCUMULATOR_RANGE: Interval = Interval {
    lo: i32::MIN as i64,
    hi: i32::MAX as i64,
};

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ColumnBound {
    lo: i64,
    hi: i64,
    env_lo: i64,
    env_hi: i64,
}

/// Each column's prefixes run over its rows in ascending order, the
/// order the kernel's reduction is specified in. The weights are read a
/// packed panel at a time, one lane per column.
///
/// Centred activations and weights lie in `[-255, 255]`, so a row's term
/// is at most `255^2` and a block of up to [`MAX_EXACT_DEPTH`] rows sums
/// exactly in `i32`, which vectorizes. Each block's sums and envelopes
/// are flushed into the `i64` totals. The loop runs compiled for the
/// widest vector width the host has
/// ([`hd_tensor::kernels::at_widest_width`]): the baseline x86-64 width
/// has no `i32` multiply, min or max per lane. Integer arithmetic gives
/// the same bounds at every width.
///
/// # Panics
///
/// If `av` or `weight_zp` lets a centred value leave `[-255, 255]`: the
/// stage intervals are `i8` ranges and zero points are `i8`, so that
/// would be a bug in the analysis.
fn column_bounds(weights: &PackedI8, weight_zp: i32, av: Interval) -> Vec<ColumnBound> {
    let centred = |v: i64| i32::try_from(v).ok().filter(|v| v.abs() <= 255);
    let (Some(a_lo), Some(a_hi)) = (centred(av.lo), centred(av.hi)) else {
        panic!("centred activations {av} outside [-255, 255]");
    };
    assert!(
        (-128..=127).contains(&weight_zp),
        "weight zero point {weight_zp} outside i8"
    );
    let mut bounds = hd_tensor::kernels::at_widest_width(
        #[inline(always)]
        || panel_bounds(weights, weight_zp, a_lo, a_hi),
    );
    // The last panel's zero padding is not a column.
    bounds.truncate(weights.cols());
    bounds
}

/// [`column_bounds`] of every panel of `weights`, padding included, for
/// centred activations in `[a_lo, a_hi]`.
#[inline(always)]
fn panel_bounds(weights: &PackedI8, weight_zp: i32, a_lo: i32, a_hi: i32) -> Vec<ColumnBound> {
    const LANES: usize = PackedI8::PANEL_COLS;
    let mut bounds = Vec::with_capacity(weights.cols().next_multiple_of(LANES));
    for mut panel in weights.panel_rows() {
        let mut total = [ColumnBound::default(); LANES];
        loop {
            let (mut lo, mut hi) = ([0i32; LANES], [0i32; LANES]);
            let (mut env_lo, mut env_hi) = ([0i32; LANES], [0i32; LANES]);
            let mut rows = 0usize;
            for row in panel.by_ref().take(MAX_EXACT_DEPTH) {
                for c in 0..LANES {
                    let w = i32::from(row[c]) - weight_zp;
                    let x = a_lo * w;
                    let y = a_hi * w;
                    lo[c] += x.min(y);
                    hi[c] += x.max(y);
                    env_lo[c] = env_lo[c].min(lo[c]);
                    env_hi[c] = env_hi[c].max(hi[c]);
                }
                rows += 1;
            }
            if rows == 0 {
                break;
            }
            for (c, t) in total.iter_mut().enumerate() {
                t.env_lo = t.env_lo.min(t.lo + i64::from(env_lo[c]));
                t.env_hi = t.env_hi.max(t.hi + i64::from(env_hi[c]));
                t.lo += i64::from(lo[c]);
                t.hi += i64::from(hi[c]);
            }
        }
        bounds.extend(total);
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

fn overflow_diag(index: usize, name: &str, env: Interval) -> Diagnostic {
    Diagnostic::error(
        "range/accumulator-overflow",
        format!(
            "stage {index} ({name}): worst-case accumulator range {env} exceeds the \
             {}-bit datapath accumulator {ACCUMULATOR_RANGE}",
            i32::BITS
        ),
    )
    .at_layer(index, name)
    .with_help(
        "narrow the calibration range, shrink the weights, or split the \
         reduction dimension so every partial sum fits the accumulator",
    )
}

fn saturation_diag(index: usize, name: &str, fraction: f64) -> Diagnostic {
    Diagnostic::warning(
        "range/output-saturation",
        format!(
            "stage {index} ({name}): {:.0}% of output columns can saturate int8 \
             requantization (warn threshold {:.0}%)",
            fraction * 100.0,
            SATURATION_WARN_FRACTION * 100.0
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

    if acc.lo < ACCUMULATOR_RANGE.lo || acc.hi > ACCUMULATOR_RANGE.hi {
        diags.push(overflow_diag(index, name, acc));
    }
    if fraction >= SATURATION_WARN_FRACTION {
        diags.push(saturation_diag(index, name, fraction));
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
pub fn analyze_ranges(model: &QuantizedModel) -> RangeReport {
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
                let zb = weights.params().zero_point();
                let bounds = column_bounds(weights.packed(), zb, av);
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
                let bounds = column_bounds(weights.packed(), 0, av);
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

    /// The `i64` walk of every value that `column_bounds` replaces.
    fn walk(
        value: impl Fn(usize, usize) -> i8,
        rows: usize,
        cols: usize,
        zp: i32,
        av: Interval,
    ) -> Vec<ColumnBound> {
        (0..cols)
            .map(|j| {
                let mut b = ColumnBound::default();
                for p in 0..rows {
                    let w = i64::from(value(p, j)) - i64::from(zp);
                    b.lo += (av.lo * w).min(av.hi * w);
                    b.hi += (av.lo * w).max(av.hi * w);
                    b.env_lo = b.env_lo.min(b.lo);
                    b.env_hi = b.env_hi.max(b.hi);
                }
                b
            })
            .collect()
    }

    #[test]
    fn panel_column_bounds_match_a_walk_of_every_value() {
        // 37 columns: two whole panels and a padded one.
        let (rows, cols) = (23, 37);
        let mut rng = DetRng::new(5);
        let values: Vec<i8> = (0..rows * cols)
            .map(|_| i8::try_from(rng.next_index(256) as i64 - 128).unwrap())
            .collect();
        let packed = PackedI8::pack(&values, rows, cols).unwrap();
        let av = Interval::new(-200, 55);
        let bounds = column_bounds(&packed, 3, av);
        assert_eq!(bounds, walk(|p, j| values[p * cols + j], rows, cols, 3, av));
    }

    #[test]
    fn column_bounds_stay_exact_past_an_i32_block() {
        // Every term at the 255^2 extreme, one sign per column, at depths
        // up to, just past and two blocks past `MAX_EXACT_DEPTH`: the
        // block sums reach the edge of `i32` and the totals leave it.
        let av = Interval::new(-255, 255);
        for rows in [
            MAX_EXACT_DEPTH,
            MAX_EXACT_DEPTH + 1,
            2 * MAX_EXACT_DEPTH + 7,
        ] {
            let cols = 3;
            let values: Vec<i8> = (0..rows * cols)
                .map(|i| if i % cols == 1 { i8::MAX } else { i8::MIN })
                .collect();
            let packed = PackedI8::pack(&values, rows, cols).unwrap();
            let bounds = column_bounds(&packed, 127, av);
            let expected = walk(|p, j| values[p * cols + j], rows, cols, 127, av);
            assert_eq!(bounds, expected, "depth {rows}");
            assert_eq!(bounds[0].lo, -65_025 * rows as i64, "depth {rows}");
        }
    }

    #[test]
    fn column_bounds_of_bit_flipped_weights_match_the_walk() {
        let mut rng = DetRng::new(6);
        let (rows, cols) = (MAX_EXACT_DEPTH + 40, 19);
        let real = Matrix::random_normal(rows, cols, &mut rng);
        let params = QuantParams::from_raw(0.01, -5).unwrap();
        let mut weights = hd_quant::PackedQuantizedMatrix::quantize(&real, params);
        assert!(weights.apply_bit_flips(0.05, &mut rng) > 0);
        for av in [
            Interval::new(-255, 255),
            Interval::new(-3, 200),
            Interval::new(0, 0),
        ] {
            let bounds = column_bounds(weights.packed(), -5, av);
            assert_eq!(
                bounds,
                walk(|p, j| weights.get(p, j), rows, cols, -5, av),
                "{av}"
            );
        }
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
        assert_eq!(ACCUMULATOR_RANGE.lo, i64::from(i32::MIN));
        assert_eq!(ACCUMULATOR_RANGE.hi, i64::from(i32::MAX));
    }

    #[test]
    fn small_model_is_clean_and_fully_ranged() {
        let q = quantized(8, 16, 4, 7);
        let report = analyze_ranges(&q);
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
        let report = analyze_ranges(&q);
        for pair in report.stages().windows(2) {
            assert_eq!(pair[1].input, pair[0].output);
        }
    }

    #[test]
    fn report_renders_stage_lines() {
        let q = quantized(4, 8, 2, 13);
        let report = analyze_ranges(&q);
        let text = report.to_string();
        assert!(text.contains("ranges: input q in [-128, 127]"), "{text}");
        assert!(text.contains("stage 0 fully-connected"), "{text}");
        assert!(text.contains("stage 1 lut"), "{text}");
    }
}
