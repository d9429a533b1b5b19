use std::borrow::Cow;

use hd_tensor::{gemm, Matrix};

use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// A validated feed-forward wide NN: an ordered list of layers with
/// consistent shapes.
///
/// Construct through [`ModelBuilder`](crate::ModelBuilder) (which performs
/// shape inference) or [`Model::new`].
///
/// # Examples
///
/// ```
/// use hd_tensor::Matrix;
/// use wide_nn::{Activation, Layer, Model};
///
/// # fn main() -> Result<(), wide_nn::NnError> {
/// let model = Model::new(
///     2,
///     vec![
///         Layer::FullyConnected { weights: Matrix::identity(2) },
///         Layer::Activation(Activation::Relu),
///     ],
/// )?;
/// let out = model.forward(&Matrix::from_rows(&[&[-1.0, 3.0]])?)?;
/// assert_eq!(out.row(0), &[0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    input_dim: usize,
    output_dim: usize,
    layers: Vec<Layer>,
}

impl Model {
    /// Creates a model after validating the layer chain with shape
    /// inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyModel`] for an empty layer list and
    /// [`NnError::ShapeInference`] at the first incompatible layer.
    pub fn new(input_dim: usize, layers: Vec<Layer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::EmptyModel);
        }
        let mut dim = input_dim;
        for (i, layer) in layers.iter().enumerate() {
            dim = layer.output_dim(dim).ok_or_else(|| {
                let actual = match layer {
                    Layer::FullyConnected { weights } => weights.rows(),
                    _ => dim,
                };
                NnError::ShapeInference {
                    layer: i,
                    expected: dim,
                    actual,
                }
            })?;
        }
        Ok(Model {
            input_dim,
            output_dim: dim,
            layers,
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

    /// The validated layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total float parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::FullyConnected { weights } => weights.len(),
                _ => 0,
            })
            .sum()
    }

    /// Multiply-accumulate operations per input row — the workload number
    /// the runtime models consume.
    pub fn macs_per_row(&self) -> u64 {
        self.layers.iter().map(Layer::macs_per_row).sum()
    }

    /// Runs the model on a batch (`rows = samples`), in `f32`.
    ///
    /// This is the float reference path — the "CPU baseline" arithmetic of
    /// the paper (the host runs HDC in full precision).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDim`] if the batch width differs from
    /// [`Model::input_dim`]. Element-wise training layers are rejected with
    /// [`NnError::UnsupportedOp`] because they need a second operand that
    /// inference-style execution does not carry.
    pub fn forward(&self, batch: &Matrix) -> Result<Matrix> {
        self.forward_observed(batch, |_| {})
    }

    /// [`Model::forward`], handing every layer-boundary tensor — the batch,
    /// then each layer's output — to `observe` before the next layer
    /// consumes it. Only the live tensor is held: activations run in
    /// place, and the batch is copied only if the first layer is one.
    /// Post-training quantization calibrates through this.
    pub(crate) fn forward_observed(
        &self,
        batch: &Matrix,
        mut observe: impl FnMut(&Matrix),
    ) -> Result<Matrix> {
        if batch.cols() != self.input_dim {
            return Err(NnError::InputDim {
                expected: self.input_dim,
                actual: batch.cols(),
            });
        }
        observe(batch);
        let mut current = Cow::Borrowed(batch);
        for layer in &self.layers {
            match layer {
                Layer::FullyConnected { weights } => {
                    current = Cow::Owned(gemm::matmul(&current, weights)?)
                }
                Layer::Activation(act) => act.apply(current.to_mut().as_mut_slice()),
                Layer::Elementwise { op, .. } => {
                    return Err(NnError::UnsupportedOp {
                        op: op.name(),
                        target: "float forward (inference)".into(),
                    })
                }
            }
            observe(&current);
        }
        Ok(current.into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use hd_tensor::rng::DetRng;

    fn two_layer_model() -> Model {
        let mut rng = DetRng::new(3);
        let w1 = Matrix::random_normal(4, 16, &mut rng);
        let w2 = Matrix::random_normal(16, 3, &mut rng);
        Model::new(
            4,
            vec![
                Layer::FullyConnected { weights: w1 },
                Layer::Activation(Activation::Tanh),
                Layer::FullyConnected { weights: w2 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn shape_inference_accepts_valid_chain() {
        let m = two_layer_model();
        assert_eq!(m.input_dim(), 4);
        assert_eq!(m.output_dim(), 3);
        assert_eq!(m.layers().len(), 3);
    }

    #[test]
    fn shape_inference_rejects_mismatch() {
        let err = Model::new(
            4,
            vec![Layer::FullyConnected {
                weights: Matrix::zeros(5, 2),
            }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            NnError::ShapeInference {
                layer: 0,
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(Model::new(4, vec![]).unwrap_err(), NnError::EmptyModel);
    }

    #[test]
    fn forward_matches_manual_computation() {
        let m = Model::new(
            2,
            vec![
                Layer::FullyConnected {
                    weights: Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap(),
                },
                Layer::Activation(Activation::Tanh),
            ],
        )
        .unwrap();
        let out = m
            .forward(&Matrix::from_rows(&[&[2.0, 3.0]]).unwrap())
            .unwrap();
        assert!((out[(0, 0)] - 5.0f32.tanh()).abs() < 1e-6);
        assert!((out[(0, 1)] - 3.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let m = two_layer_model();
        let err = m.forward(&Matrix::zeros(1, 5)).unwrap_err();
        assert_eq!(
            err,
            NnError::InputDim {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn forward_rejects_elementwise_layers() {
        let m = Model::new(
            2,
            vec![Layer::Elementwise {
                op: crate::layer::ElementwiseOp::ScaledAdd,
                lambda: 0.5,
            }],
        )
        .unwrap();
        assert!(matches!(
            m.forward(&Matrix::zeros(1, 2)).unwrap_err(),
            NnError::UnsupportedOp { .. }
        ));
    }

    #[test]
    fn param_and_mac_counts() {
        let m = two_layer_model();
        assert_eq!(m.param_count(), 4 * 16 + 16 * 3);
        assert_eq!(m.macs_per_row(), (4 * 16 + 16 * 3) as u64);
    }

    #[test]
    fn batch_forward_is_rowwise_independent() {
        let m = two_layer_model();
        let mut rng = DetRng::new(5);
        let batch = Matrix::random_normal(4, 4, &mut rng);
        let full = m.forward(&batch).unwrap();
        for r in 0..4 {
            let single = m.forward(&batch.slice_rows(r, r + 1).unwrap()).unwrap();
            for c in 0..3 {
                assert!((full[(r, c)] - single[(0, c)]).abs() < 1e-5);
            }
        }
    }
}
