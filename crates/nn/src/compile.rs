//! Lowering a wide-NN model to an accelerator tile program.
//!
//! The Edge TPU compiler takes a quantized TFLite model, verifies every op
//! is supported, checks the parameters fit the on-chip buffer, and emits a
//! device executable. [`compile`] plays that role for the simulated
//! accelerator: it quantizes, validates the op set (rejecting the
//! element-wise training ops, which is how the framework learns to keep
//! class-hypervector update on the host CPU), computes a per-layer
//! [`TilePlan`] for the systolic array, and enforces the parameter-buffer
//! capacity.

use hd_tensor::Matrix;

use crate::error::NnError;
use crate::layer::Layer;
use crate::model::Model;
use crate::quantized::{QuantStage, QuantizedModel};
use crate::Result;

/// Static description of a compilation target.
///
/// The default models the Google Edge TPU: a 64x64 systolic MXU and an
/// 8 MiB on-chip parameter buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpec {
    /// Human-readable target name used in diagnostics.
    pub name: String,
    /// Systolic array height (rows of processing elements).
    pub array_rows: usize,
    /// Systolic array width (columns of processing elements).
    pub array_cols: usize,
    /// On-chip parameter buffer capacity in bytes.
    pub param_buffer_bytes: usize,
}

impl Default for TargetSpec {
    fn default() -> Self {
        TargetSpec {
            name: "edge-tpu-sim".to_owned(),
            array_rows: 64,
            array_cols: 64,
            param_buffer_bytes: 8 * 1024 * 1024,
        }
    }
}

impl TargetSpec {
    /// Creates a target with explicit parameters, rejecting invalid ones.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTarget`] if any array dimension or the
    /// parameter buffer size is zero.
    pub fn try_new(
        name: impl Into<String>,
        array_rows: usize,
        array_cols: usize,
        param_buffer_bytes: usize,
    ) -> Result<Self> {
        if array_rows == 0 || array_cols == 0 {
            return Err(NnError::InvalidTarget(format!(
                "array dims must be positive (got {array_rows}x{array_cols})"
            )));
        }
        if param_buffer_bytes == 0 {
            return Err(NnError::InvalidTarget("buffer must be positive".to_owned()));
        }
        Ok(TargetSpec {
            name: name.into(),
            array_rows,
            array_cols,
            param_buffer_bytes,
        })
    }

    /// Creates a target with explicit parameters.
    ///
    /// Thin wrapper over [`TargetSpec::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        array_rows: usize,
        array_cols: usize,
        param_buffer_bytes: usize,
    ) -> Self {
        match Self::try_new(name, array_rows, array_cols, param_buffer_bytes) {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Tile decomposition of one fully-connected layer onto the systolic
/// array.
///
/// A weight-stationary array of `R x C` processing elements holds an
/// `R x C` weight tile; an `in x out` layer therefore needs
/// `ceil(in / R) * ceil(out / C)` tiles, and every input row streams
/// through each tile pair once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Index of the stage in the quantized model.
    pub stage_index: usize,
    /// Tiles along the reduction (input) dimension.
    pub tiles_k: usize,
    /// Tiles along the output dimension.
    pub tiles_n: usize,
    /// Quantized weight bytes resident for this layer.
    pub weight_bytes: usize,
}

impl TilePlan {
    /// Total number of weight tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles_k * self.tiles_n
    }
}

/// A model lowered for a specific accelerator target: quantized stages
/// plus the tile program and buffer accounting the simulator executes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    target: TargetSpec,
    quantized: QuantizedModel,
    tile_plans: Vec<TilePlan>,
    range_report: crate::absint::RangeReport,
}

impl CompiledModel {
    /// Lowers an already-quantized model for `target`: plans its tiles and
    /// attaches its range report. [`compile`] ends here; calling it
    /// directly serves hand-built or deserialized stages, which skip the
    /// quantize-time overflow check, so the report may carry errors.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ModelTooLarge`] if the quantized parameters
    /// exceed the target's buffer.
    pub fn lower(quantized: QuantizedModel, target: &TargetSpec) -> Result<Self> {
        let required = quantized.param_bytes();
        if required > target.param_buffer_bytes {
            return Err(NnError::ModelTooLarge {
                required,
                available: target.param_buffer_bytes,
            });
        }

        let mut tile_plans = Vec::new();
        for (i, stage) in quantized.stages().iter().enumerate() {
            let (rows, cols, bytes) = match stage {
                QuantStage::FullyConnected { weights, .. } => {
                    (weights.rows(), weights.cols(), weights.byte_size())
                }
                QuantStage::FullyConnectedPerChannel { weights, .. } => (
                    weights.rows(),
                    weights.cols(),
                    weights.byte_size() + 4 * weights.cols(),
                ),
                QuantStage::Lut(_) => continue,
            };
            tile_plans.push(TilePlan {
                stage_index: i,
                tiles_k: rows.div_ceil(target.array_rows),
                tiles_n: cols.div_ceil(target.array_cols),
                weight_bytes: bytes,
            });
        }

        // Keep the full report (intervals + warnings) attached to the
        // artifact so every backend-compiled model is range-verified once
        // per cache entry.
        let range_report =
            crate::absint::analyze_ranges(&quantized, &crate::absint::RangeConfig::default());

        Ok(CompiledModel {
            target: target.clone(),
            quantized,
            tile_plans,
            range_report,
        })
    }

    /// The target this model was compiled for.
    pub fn target(&self) -> &TargetSpec {
        &self.target
    }

    /// The quantized stages (shared datapath with the reference executor).
    pub fn quantized(&self) -> &QuantizedModel {
        &self.quantized
    }

    /// The per-FC-layer tile plans.
    pub fn tile_plans(&self) -> &[TilePlan] {
        &self.tile_plans
    }

    /// The static range analysis computed at compile time: per-stage
    /// value intervals plus any saturation/dead-range warnings. Models
    /// with overflow errors never pass [`compile`], so for its output this
    /// report is warning-only.
    pub fn range_report(&self) -> &crate::absint::RangeReport {
        &self.range_report
    }

    /// Total parameter bytes the device must hold.
    pub fn param_bytes(&self) -> usize {
        self.quantized.param_bytes()
    }

    /// The feature width the compiled model consumes.
    pub fn input_dim(&self) -> usize {
        self.quantized.input_dim()
    }

    /// The width the compiled model produces.
    pub fn output_dim(&self) -> usize {
        self.quantized.output_dim()
    }

    /// Injects memory faults into the compiled weights (see
    /// [`QuantizedModel::inject_weight_faults`]). Returns flipped bits.
    ///
    /// The attached [`CompiledModel::range_report`] is recomputed from the
    /// faulted weights, so it always describes the model as it will
    /// execute rather than the pristine weights that were compiled.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn inject_weight_faults(&mut self, rate: f64, rng: &mut hd_tensor::rng::DetRng) -> usize {
        let flipped = self.quantized.inject_weight_faults(rate, rng);
        if flipped > 0 {
            self.range_report = crate::absint::analyze_ranges(
                &self.quantized,
                &crate::absint::RangeConfig::default(),
            );
        }
        flipped
    }
}

/// Compiles a float model for `target`, calibrating quantization on the
/// given batch.
///
/// # Errors
///
/// * [`NnError::UnsupportedOp`] — the model contains an op the target
///   cannot execute (element-wise training updates).
/// * [`NnError::ModelTooLarge`] — quantized parameters exceed the
///   target's buffer.
/// * Calibration/shape errors propagated from quantization.
///
/// # Examples
///
/// Attempting to lower a training-update graph fails with a typed error:
///
/// ```
/// use hd_tensor::Matrix;
/// use wide_nn::{compile, ElementwiseOp, ModelBuilder, NnError, TargetSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let update = ModelBuilder::new(4)
///     .elementwise(ElementwiseOp::ScaledAdd, 1.0)
///     .build()?;
/// let err = compile::compile(&update, &Matrix::zeros(2, 4), &TargetSpec::default())
///     .unwrap_err();
/// assert!(matches!(err, NnError::UnsupportedOp { .. }));
/// # Ok(())
/// # }
/// ```
pub fn compile(model: &Model, calibration: &Matrix, target: &TargetSpec) -> Result<CompiledModel> {
    compile_inner(model, calibration, target, false)
}

/// [`compile`] with per-output-channel weight quantization — the
/// production TFLite/Edge-TPU convention (more precise on layers whose
/// weight columns differ widely in magnitude, at 4 extra bytes per output
/// channel).
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_per_channel(
    model: &Model,
    calibration: &Matrix,
    target: &TargetSpec,
) -> Result<CompiledModel> {
    compile_inner(model, calibration, target, true)
}

fn compile_inner(
    model: &Model,
    calibration: &Matrix,
    target: &TargetSpec,
    per_channel: bool,
) -> Result<CompiledModel> {
    // Op-support validation first, so the caller gets the actionable
    // "this op cannot run here" diagnostic before any quantization work.
    for layer in model.layers() {
        if let Layer::Elementwise { op, .. } = layer {
            return Err(NnError::UnsupportedOp {
                op: op.name(),
                target: target.name.clone(),
            });
        }
    }

    // Static graph verification before any quantization work. Capacity
    // overflow keeps its legacy typed form (the runtime partitioner
    // matches on it); everything else surfaces as the structured report.
    let report = crate::verify::verify_model(model, target);
    if report.has_errors() {
        if report.errors().all(|d| d.code == "verify/over-capacity") {
            return Err(NnError::ModelTooLarge {
                required: report.param_bytes_required(),
                available: target.param_buffer_bytes,
            });
        }
        return Err(NnError::Verification {
            diagnostics: report.errors().cloned().collect(),
        });
    }

    let quantized = if per_channel {
        QuantizedModel::quantize_per_channel(model, calibration)?
    } else {
        QuantizedModel::quantize(model, calibration)?
    };

    CompiledModel::lower(quantized, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::layer::Activation;
    use hd_tensor::rng::DetRng;

    fn model_and_calib(n: usize, d: usize, k: usize) -> (Model, Matrix) {
        let mut rng = DetRng::new(31);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(16, n, &mut rng);
        (model, calib)
    }

    #[test]
    fn tile_plan_counts_match_ceil_division() {
        let (model, calib) = model_and_calib(100, 200, 10);
        let target = TargetSpec::new("t", 64, 64, 1 << 20);
        let compiled = compile(&model, &calib, &target).unwrap();
        let plans = compiled.tile_plans();
        assert_eq!(plans.len(), 2);
        // 100x200 layer on a 64x64 array: ceil(100/64)=2, ceil(200/64)=4.
        assert_eq!(plans[0].tiles_k, 2);
        assert_eq!(plans[0].tiles_n, 4);
        assert_eq!(plans[0].tile_count(), 8);
        // 200x10 layer: ceil(200/64)=4, ceil(10/64)=1.
        assert_eq!(plans[1].tiles_k, 4);
        assert_eq!(plans[1].tiles_n, 1);
        assert_eq!(plans[1].stage_index, 2); // after the LUT stage
    }

    #[test]
    fn exact_multiple_dims_tile_exactly() {
        let (model, calib) = model_and_calib(64, 128, 64);
        let target = TargetSpec::default();
        let compiled = compile(&model, &calib, &target).unwrap();
        assert_eq!(compiled.tile_plans()[0].tiles_k, 1);
        assert_eq!(compiled.tile_plans()[0].tiles_n, 2);
    }

    #[test]
    fn unsupported_op_carries_target_name() {
        let model = ModelBuilder::new(4)
            .elementwise(crate::layer::ElementwiseOp::ScaledSub, 0.3)
            .build()
            .unwrap();
        let err = compile(&model, &Matrix::zeros(2, 4), &TargetSpec::default()).unwrap_err();
        match err {
            NnError::UnsupportedOp { op, target } => {
                assert_eq!(op, "elementwise-scaled-sub");
                assert_eq!(target, "edge-tpu-sim");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn oversized_model_rejected() {
        let (model, calib) = model_and_calib(32, 64, 4);
        let tiny = TargetSpec::new("tiny", 64, 64, 128);
        assert!(matches!(
            compile(&model, &calib, &tiny).unwrap_err(),
            NnError::ModelTooLarge { .. }
        ));
    }

    #[test]
    fn compiled_model_preserves_behaviour() {
        let (model, calib) = model_and_calib(16, 48, 4);
        let compiled = compile(&model, &calib, &TargetSpec::default()).unwrap();
        let direct = QuantizedModel::quantize(&model, &calib).unwrap();
        assert_eq!(compiled.quantized(), &direct);
        assert_eq!(compiled.input_dim(), 16);
        assert_eq!(compiled.output_dim(), 4);
        assert_eq!(compiled.param_bytes(), direct.param_bytes());
    }

    #[test]
    fn inject_weight_faults_refreshes_range_report() {
        let (model, calib) = model_and_calib(16, 48, 4);
        let mut compiled = compile(&model, &calib, &TargetSpec::default()).unwrap();
        let pristine = compiled.range_report().clone();
        let mut rng = DetRng::new(404);
        let flipped = compiled.inject_weight_faults(0.2, &mut rng);
        assert!(flipped > 0, "rate 0.2 flipped nothing");
        let refreshed = compiled.range_report();
        assert_eq!(
            refreshed,
            &crate::absint::analyze_ranges(
                compiled.quantized(),
                &crate::absint::RangeConfig::default()
            ),
            "report must describe the faulted weights"
        );
        assert_ne!(
            refreshed, &pristine,
            "a 20% bit-flip rate should move at least one interval"
        );
    }

    #[test]
    fn default_target_is_edge_tpu_like() {
        let t = TargetSpec::default();
        assert_eq!(t.array_rows, 64);
        assert_eq!(t.array_cols, 64);
        assert_eq!(t.param_buffer_bytes, 8 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "array dims must be positive")]
    fn zero_array_rejected() {
        let _ = TargetSpec::new("bad", 0, 64, 1024);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(matches!(
            TargetSpec::try_new("bad", 0, 64, 1024),
            Err(NnError::InvalidTarget(_))
        ));
        assert!(matches!(
            TargetSpec::try_new("bad", 64, 64, 0),
            Err(NnError::InvalidTarget(_))
        ));
        let ok = TargetSpec::try_new("ok", 64, 64, 1024).unwrap();
        assert_eq!(ok.name, "ok");
    }

    #[test]
    fn non_finite_weights_fail_verification_before_quantization() {
        let mut weights = Matrix::zeros(4, 4);
        weights[(0, 0)] = f32::INFINITY;
        let model = ModelBuilder::new(4)
            .fully_connected(weights)
            .unwrap()
            .build()
            .unwrap();
        let err = compile(&model, &Matrix::zeros(2, 4), &TargetSpec::default()).unwrap_err();
        match err {
            NnError::Verification { diagnostics } => {
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == "verify/non-finite-weight"));
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
