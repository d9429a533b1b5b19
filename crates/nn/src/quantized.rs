use hd_quant::lut::ActivationLut;
use hd_quant::{gemm as qgemm, CalibrationMethod, Calibrator, QuantParams, QuantizedMatrix};
use hd_tensor::Matrix;

use crate::error::NnError;
use crate::layer::Layer;
use crate::model::Model;
use crate::Result;

/// Gate every freshly quantized model through the interval range
/// analysis: a model whose worst-case accumulator can overflow the i32
/// datapath must never reach an executor.
fn check_ranges(model: &QuantizedModel) -> Result<()> {
    let report = crate::absint::analyze_ranges(model, &crate::absint::RangeConfig::default());
    if report.has_errors() {
        return Err(NnError::Verification {
            diagnostics: report.errors().cloned().collect(),
        });
    }
    Ok(())
}

/// One executable stage of a quantized model.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantStage {
    /// Dense layer: int8 weights, requantized into `out_params`.
    FullyConnected {
        /// The quantized `in x out` weight matrix (symmetric quantization).
        weights: QuantizedMatrix,
        /// Quantization of this stage's output activations.
        out_params: QuantParams,
    },
    /// Dense layer with per-output-channel weight scales (the TFLite /
    /// Edge TPU production convention; see
    /// [`QuantizedModel::quantize_per_channel`]).
    FullyConnectedPerChannel {
        /// The per-channel-quantized `in x out` weight matrix.
        weights: hd_quant::per_channel::ChannelQuantizedMatrix,
        /// Quantization of this stage's output activations.
        out_params: QuantParams,
    },
    /// Activation through a 256-entry lookup table.
    Lut(ActivationLut),
}

/// A post-training-quantized wide NN and its reference int8 executor.
///
/// The executor uses the exact kernels of [`hd_quant`], which the
/// `tpu-sim` crate also uses; an integration test pins the two paths to
/// bit-identical outputs. This mirrors the paper's toolchain, where the
/// TFLite reference interpreter and the Edge TPU produce the same
/// quantized results.
///
/// # Examples
///
/// ```
/// use hd_tensor::{rng::DetRng, Matrix};
/// use wide_nn::{Activation, ModelBuilder, QuantizedModel};
///
/// # fn main() -> Result<(), wide_nn::NnError> {
/// let mut rng = DetRng::new(11);
/// let model = ModelBuilder::new(16)
///     .fully_connected(Matrix::random_normal(16, 64, &mut rng))?
///     .activation(Activation::Tanh)
///     .build()?;
/// let calibration = Matrix::random_normal(32, 16, &mut rng);
/// let qmodel = QuantizedModel::quantize(&model, &calibration)?;
/// let out = qmodel.forward(&calibration)?;
/// assert_eq!(out.shape(), (32, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    input_dim: usize,
    output_dim: usize,
    input_params: QuantParams,
    stages: Vec<QuantStage>,
}

impl QuantizedModel {
    /// Quantizes a float model using min/max calibration over
    /// `calibration` (a representative input batch).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from running calibration, and returns
    /// [`NnError::UnsupportedOp`] if the model contains element-wise
    /// training layers (those never reach the int8 path; the paper keeps
    /// them on the host in f32). Returns [`NnError::Verification`] if the
    /// static range analysis ([`crate::absint`]) proves some input could
    /// overflow the i32 datapath accumulator.
    pub fn quantize(model: &Model, calibration: &Matrix) -> Result<Self> {
        Self::quantize_with(model, calibration, CalibrationMethod::MinMax)
    }

    /// Quantizes with per-output-channel weight scales — the production
    /// TFLite/Edge-TPU convention, which keeps small-magnitude output
    /// channels precise when weight columns differ widely in scale.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedModel::quantize`], plus per-channel
    /// quantization errors for non-finite weights.
    pub fn quantize_per_channel(model: &Model, calibration: &Matrix) -> Result<Self> {
        let base = Self::quantize_with(model, calibration, CalibrationMethod::MinMax)?;
        // Re-quantize the FC stages per channel from the float weights.
        let mut stages = Vec::with_capacity(base.stages.len());
        let mut float_fc = model.layers().iter().filter_map(|l| match l {
            Layer::FullyConnected { weights } => Some(weights),
            _ => None,
        });
        for stage in base.stages {
            stages.push(match stage {
                QuantStage::FullyConnected { out_params, .. } => {
                    let weights = float_fc.next().ok_or_else(|| {
                        NnError::Internal("quantized stages outnumber float FC layers".into())
                    })?;
                    QuantStage::FullyConnectedPerChannel {
                        weights: hd_quant::per_channel::ChannelQuantizedMatrix::quantize(weights)?,
                        out_params,
                    }
                }
                other => other,
            });
        }
        let rebuilt = QuantizedModel { stages, ..base };
        // Per-channel scales change the accumulator magnitudes, so the
        // range gate runs again on the rebuilt stages.
        check_ranges(&rebuilt)?;
        Ok(rebuilt)
    }

    /// Quantizes with an explicit calibration method (e.g. percentile
    /// clipping for heavy-tailed activations).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedModel::quantize`].
    pub fn quantize_with(
        model: &Model,
        calibration: &Matrix,
        method: CalibrationMethod,
    ) -> Result<Self> {
        let tensors = model.forward_with_intermediates(calibration)?;
        let mut tensor_params = Vec::with_capacity(tensors.len());
        for t in &tensors {
            let mut cal = Calibrator::new(method);
            cal.observe(t.as_slice());
            tensor_params.push(cal.to_params()?);
        }

        // `forward_with_intermediates` yields one tensor per layer
        // boundary; a miss here is a library bug, propagated rather than
        // panicking mid-run.
        let params_at = |i: usize| -> Result<QuantParams> {
            tensor_params.get(i).copied().ok_or_else(|| {
                NnError::Internal(format!("missing calibration params for tensor {i}"))
            })
        };

        let mut stages = Vec::with_capacity(model.layers().len());
        for (i, layer) in model.layers().iter().enumerate() {
            match layer {
                Layer::FullyConnected { weights } => {
                    let wparams = QuantParams::symmetric(weights.max_abs())?;
                    stages.push(QuantStage::FullyConnected {
                        weights: QuantizedMatrix::quantize(weights, wparams),
                        out_params: params_at(i + 1)?,
                    });
                }
                Layer::Activation(act) => {
                    let a = *act;
                    let lut = ActivationLut::from_fn(params_at(i)?, params_at(i + 1)?, move |v| {
                        a.eval(v)
                    });
                    stages.push(QuantStage::Lut(lut));
                }
                Layer::Elementwise { op, .. } => {
                    return Err(NnError::UnsupportedOp {
                        op: op.name(),
                        target: "int8 quantization".into(),
                    })
                }
            }
        }
        let quantized = QuantizedModel {
            input_dim: model.input_dim(),
            output_dim: model.output_dim(),
            input_params: params_at(0)?,
            stages,
        };
        check_ranges(&quantized)?;
        Ok(quantized)
    }

    /// Builds a quantized model from raw parts (used by deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyModel`] if there are no stages.
    pub fn from_parts(
        input_dim: usize,
        output_dim: usize,
        input_params: QuantParams,
        stages: Vec<QuantStage>,
    ) -> Result<Self> {
        if stages.is_empty() {
            return Err(NnError::EmptyModel);
        }
        Ok(QuantizedModel {
            input_dim,
            output_dim,
            input_params,
            stages,
        })
    }

    /// The feature width this model consumes.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The width this model produces.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Quantization of the input tensor.
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// Quantization of the final output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyModel`] if the model has no stages (not
    /// constructible through the public API, but propagated rather than
    /// panicking).
    pub fn output_params(&self) -> Result<QuantParams> {
        match self.stages.last() {
            Some(
                QuantStage::FullyConnected { out_params, .. }
                | QuantStage::FullyConnectedPerChannel { out_params, .. },
            ) => Ok(*out_params),
            Some(QuantStage::Lut(lut)) => Ok(lut.output_params()),
            None => Err(NnError::EmptyModel),
        }
    }

    /// The executable stages, in order. Exposed so execution engines (the
    /// systolic-array simulator, the host engine) can drive the same
    /// datapath while adding their own timing.
    pub fn stages(&self) -> &[QuantStage] {
        &self.stages
    }

    /// Total int8 parameter bytes — the accelerator buffer footprint.
    pub fn param_bytes(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                QuantStage::FullyConnected { weights, .. } => weights.byte_size(),
                QuantStage::FullyConnectedPerChannel { weights, .. } => {
                    // i8 weights plus one f32 scale per output channel.
                    weights.byte_size() + 4 * weights.cols()
                }
                QuantStage::Lut(_) => 256,
            })
            .sum()
    }

    /// Flips each bit of every per-tensor FC weight independently with
    /// probability `rate` — the memory-fault injection hook behind the
    /// robustness experiments (per-channel and LUT stages are left
    /// untouched). Returns the number of bits flipped.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn inject_weight_faults(&mut self, rate: f64, rng: &mut hd_tensor::rng::DetRng) -> usize {
        let mut flipped = 0usize;
        for stage in &mut self.stages {
            if let QuantStage::FullyConnected { weights, .. } = stage {
                flipped += weights.apply_bit_flips(rate, rng);
            }
        }
        flipped
    }

    /// Quantizes an input batch into the model's input representation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDim`] on a width mismatch.
    pub fn quantize_input(&self, batch: &Matrix) -> Result<QuantizedMatrix> {
        if batch.cols() != self.input_dim {
            return Err(NnError::InputDim {
                expected: self.input_dim,
                actual: batch.cols(),
            });
        }
        Ok(QuantizedMatrix::quantize(batch, self.input_params))
    }

    /// Runs the int8 pipeline on an already-quantized batch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the quantized kernels.
    pub fn run_quantized(&self, input: &QuantizedMatrix) -> Result<QuantizedMatrix> {
        let mut current = input.clone();
        for stage in &self.stages {
            current = match stage {
                QuantStage::FullyConnected {
                    weights,
                    out_params,
                } => qgemm::matmul_requantized(&current, weights, *out_params)?,
                QuantStage::FullyConnectedPerChannel {
                    weights,
                    out_params,
                } => {
                    let real = weights.matmul_dequantized(&current)?;
                    QuantizedMatrix::quantize(&real, *out_params)
                }
                QuantStage::Lut(lut) => {
                    let mut data = current.as_slice().to_vec();
                    lut.apply_slice(&mut data);
                    QuantizedMatrix::from_raw(
                        current.rows(),
                        current.cols(),
                        data,
                        lut.output_params(),
                    )
                }
            };
        }
        Ok(current)
    }

    /// Full reference path: quantize `f32` inputs, run int8, dequantize
    /// the outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDim`] on a width mismatch.
    pub fn forward(&self, batch: &Matrix) -> Result<Matrix> {
        let q_in = self.quantize_input(batch)?;
        let q_out = self.run_quantized(&q_in)?;
        Ok(q_out.dequantize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::layer::{Activation, ElementwiseOp};
    use hd_tensor::rng::DetRng;

    fn test_model(seed: u64) -> (Model, Matrix) {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(8)
            .fully_connected(Matrix::random_normal(8, 32, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(32, 4, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(64, 8, &mut rng);
        (model, calib)
    }

    #[test]
    fn quantized_output_tracks_float_output() {
        let (model, calib) = test_model(1);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        let float_out = model.forward(&calib).unwrap();
        let quant_out = qmodel.forward(&calib).unwrap();
        assert_eq!(float_out.shape(), quant_out.shape());
        // Typical quantized-vs-float error stays well below the output
        // dynamic range.
        let range = float_out.max_abs().max(1e-6);
        for (f, q) in float_out.iter().zip(quant_out.iter()) {
            assert!(
                (f - q).abs() < 0.2 * range,
                "float {f} vs quantized {q} (range {range})"
            );
        }
    }

    #[test]
    fn argmax_usually_preserved_by_quantization() {
        let (model, calib) = test_model(2);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        let float_out = model.forward(&calib).unwrap();
        let quant_out = qmodel.forward(&calib).unwrap();
        let mut agree = 0;
        for r in 0..calib.rows() {
            let fa = hd_tensor::ops::argmax(float_out.row(r)).unwrap();
            let qa = hd_tensor::ops::argmax(quant_out.row(r)).unwrap();
            if fa == qa {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= calib.rows() * 9,
            "only {agree}/{} argmax agreements",
            calib.rows()
        );
    }

    #[test]
    fn elementwise_layers_rejected() {
        let model = ModelBuilder::new(4)
            .elementwise(ElementwiseOp::ScaledAdd, 0.5)
            .build()
            .unwrap();
        let calib = Matrix::zeros(4, 4);
        assert!(matches!(
            QuantizedModel::quantize(&model, &calib).unwrap_err(),
            NnError::UnsupportedOp { .. }
        ));
    }

    #[test]
    fn input_dim_checked() {
        let (model, calib) = test_model(3);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        assert!(matches!(
            qmodel.forward(&Matrix::zeros(1, 9)).unwrap_err(),
            NnError::InputDim { .. }
        ));
    }

    #[test]
    fn param_bytes_accounts_weights_and_luts() {
        let (model, calib) = test_model(4);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        assert_eq!(qmodel.param_bytes(), 8 * 32 + 256 + 32 * 4);
    }

    #[test]
    fn run_quantized_is_deterministic() {
        let (model, calib) = test_model(5);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        let q_in = qmodel.quantize_input(&calib).unwrap();
        let a = qmodel.run_quantized(&q_in).unwrap();
        let b = qmodel.run_quantized(&q_in).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_rejects_empty() {
        let p = QuantParams::symmetric(1.0).unwrap();
        assert!(matches!(
            QuantizedModel::from_parts(4, 4, p, vec![]).unwrap_err(),
            NnError::EmptyModel
        ));
    }

    #[test]
    fn output_params_come_from_last_stage() {
        let (model, calib) = test_model(6);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        // Last stage is the classification FC layer.
        match qmodel.stages().last().unwrap() {
            QuantStage::FullyConnected { out_params, .. } => {
                assert_eq!(qmodel.output_params().unwrap(), *out_params);
            }
            other => panic!("unexpected last stage {other:?}"),
        }
    }

    #[test]
    fn per_channel_quantization_tracks_float_more_closely_on_skewed_weights() {
        // A model whose second-layer columns differ hugely in magnitude.
        let mut rng = DetRng::new(8);
        let w1 = Matrix::random_normal(8, 32, &mut rng);
        let w2 = Matrix::from_fn(32, 4, |_, c| {
            10f32.powi(c as i32 - 2) * { rng.next_normal() }
        });
        let model = ModelBuilder::new(8)
            .fully_connected(w1)
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(w2)
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::random_normal(48, 8, &mut rng);
        let float_out = model.forward(&calib).unwrap();
        let pt = QuantizedModel::quantize(&model, &calib).unwrap();
        let pc = QuantizedModel::quantize_per_channel(&model, &calib).unwrap();

        // Compare error on the smallest-magnitude output column.
        let col = 0;
        let err = |q: &QuantizedModel| -> f32 {
            let out = q.forward(&calib).unwrap();
            (0..calib.rows())
                .map(|r| (out[(r, col)] - float_out[(r, col)]).abs())
                .sum::<f32>()
        };
        let pt_err = err(&pt);
        let pc_err = err(&pc);
        // On the *final* layer the shared output quantization dominates
        // both schemes equally (the out_params range is set by the large
        // columns), so model-level error is never worse, while the
        // weight reconstruction itself is strictly better per channel —
        // which is what matters when the layer feeds further computation.
        assert!(
            pc_err <= pt_err * 1.01 + 1e-6,
            "per-channel err {pc_err} must not exceed per-tensor {pt_err}"
        );
        let float_w2 = match &model.layers()[2] {
            Layer::FullyConnected { weights } => weights.clone(),
            other => panic!("unexpected layer {other:?}"),
        };
        let pt_w2 = match &pt.stages()[2] {
            QuantStage::FullyConnected { weights, .. } => weights.dequantize(),
            other => panic!("unexpected stage {other:?}"),
        };
        let pc_w2 = match &pc.stages()[2] {
            QuantStage::FullyConnectedPerChannel { weights, .. } => weights.dequantize(),
            other => panic!("unexpected stage {other:?}"),
        };
        // Small-magnitude column 0 reconstructs far better per channel.
        let col_err =
            |m: &Matrix| -> f32 { (0..32).map(|r| (m[(r, 0)] - float_w2[(r, 0)]).abs()).sum() };
        assert!(
            col_err(&pc_w2) < col_err(&pt_w2) / 4.0,
            "per-channel column error {} vs per-tensor {}",
            col_err(&pc_w2),
            col_err(&pt_w2)
        );
    }

    #[test]
    fn per_channel_model_runs_and_counts_bytes() {
        let (model, calib) = test_model(9);
        let pc = QuantizedModel::quantize_per_channel(&model, &calib).unwrap();
        let out = pc.forward(&calib).unwrap();
        assert_eq!(out.shape(), (64, 4));
        // Per-channel stores 4 extra bytes per output channel.
        let pt = QuantizedModel::quantize(&model, &calib).unwrap();
        assert_eq!(pc.param_bytes(), pt.param_bytes() + 4 * (32 + 4));
    }

    #[test]
    fn percentile_calibration_also_works() {
        let (model, calib) = test_model(7);
        let qmodel =
            QuantizedModel::quantize_with(&model, &calib, CalibrationMethod::Percentile(0.999))
                .unwrap();
        let out = qmodel.forward(&calib).unwrap();
        assert_eq!(out.shape(), (64, 4));
    }
}
