use hd_tensor::{ops, Matrix};

/// Scalar activation functions available to the wide NN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Hyperbolic tangent — the paper's non-linear encoding activation.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Pass-through (requantization only on int8 paths).
    Identity,
}

impl Activation {
    /// Evaluates the activation on a real value.
    pub fn eval(self, v: f32) -> f32 {
        match self {
            Activation::Tanh => ops::tanh(v),
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
        }
    }

    /// Applies the activation to every value in place, bit-identical to
    /// [`Activation::eval`] per element; `tanh` runs as
    /// [`ops::tanh_inplace`]'s vectorized pass.
    pub fn apply(self, values: &mut [f32]) {
        match self {
            Activation::Tanh => ops::tanh_inplace(values),
            Activation::Relu | Activation::Identity => {
                for v in values.iter_mut() {
                    *v = self.eval(*v);
                }
            }
        }
    }

    /// Stable name used by serialization and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
            Activation::Identity => "identity",
        }
    }
}

/// Element-wise binary operations.
///
/// These represent the *training-side* computations (class-hypervector
/// bundling/detaching). They exist in the IR so that a caller can attempt
/// to lower the full training graph to an accelerator and receive a typed
/// [`NnError::UnsupportedOp`](crate::NnError::UnsupportedOp) — mirroring
/// the paper's finding that the Edge TPU cannot run them, which is why its
/// framework keeps the update step on the host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementwiseOp {
    /// `y += lambda * x` — bundling.
    ScaledAdd,
    /// `y -= lambda * x` — detaching.
    ScaledSub,
}

impl ElementwiseOp {
    /// Stable name used by diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ElementwiseOp::ScaledAdd => "elementwise-scaled-add",
            ElementwiseOp::ScaledSub => "elementwise-scaled-sub",
        }
    }
}

/// One layer of the wide NN.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Dense layer: output `(batch x out) = input (batch x in) * weights
    /// (in x out)`. No bias — HDC encoding and similarity search are pure
    /// matrix products.
    FullyConnected {
        /// The `in x out` weight matrix.
        weights: Matrix,
    },
    /// Element-wise activation applied to the previous layer's output.
    Activation(Activation),
    /// Element-wise training op; supported on hosts, rejected by
    /// accelerator targets.
    Elementwise {
        /// Which element-wise operation.
        op: ElementwiseOp,
        /// The scalar coefficient (the HDC learning rate `lambda`).
        lambda: f32,
    },
}

impl Layer {
    /// Output width given an input width, or `None` if the layer cannot
    /// accept that width.
    pub fn output_dim(&self, input_dim: usize) -> Option<usize> {
        match self {
            Layer::FullyConnected { weights } => {
                (weights.rows() == input_dim).then(|| weights.cols())
            }
            Layer::Activation(_) | Layer::Elementwise { .. } => Some(input_dim),
        }
    }

    /// Parameter bytes this layer contributes to an int8-compiled model.
    pub fn quantized_param_bytes(&self) -> usize {
        match self {
            Layer::FullyConnected { weights } => weights.len(),
            Layer::Activation(_) => 256, // the activation LUT
            Layer::Elementwise { .. } => 0,
        }
    }

    /// Number of multiply-accumulate operations this layer performs for a
    /// single input row. Drives both the host and accelerator runtime
    /// models.
    pub fn macs_per_row(&self) -> u64 {
        match self {
            Layer::FullyConnected { weights } => (weights.rows() * weights.cols()) as u64,
            Layer::Activation(_) | Layer::Elementwise { .. } => 0,
        }
    }

    /// Stable name used by diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::FullyConnected { .. } => "fully-connected",
            Layer::Activation(_) => "activation",
            Layer::Elementwise { .. } => "elementwise",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn tanh_eval_is_the_owned_tanh(bits in any::<u32>(), near in -12.0f32..12.0) {
            for x in [f32::from_bits(bits), near] {
                prop_assert_eq!(Activation::Tanh.eval(x).to_bits(), ops::tanh(x).to_bits());
            }
        }

        #[test]
        fn apply_is_eval_per_element(values in proptest::collection::vec(-12.0f32..12.0, 0..64)) {
            for act in [Activation::Tanh, Activation::Relu, Activation::Identity] {
                let mut out = values.clone();
                act.apply(&mut out);
                for (x, y) in values.iter().zip(&out) {
                    prop_assert_eq!(y.to_bits(), act.eval(*x).to_bits());
                }
            }
        }
    }

    #[test]
    fn activation_eval() {
        assert_eq!(Activation::Relu.eval(-2.0), 0.0);
        assert_eq!(Activation::Relu.eval(2.0), 2.0);
        assert_eq!(Activation::Identity.eval(-3.5), -3.5);
        assert!((Activation::Tanh.eval(0.5) - 0.5f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn fc_output_dim_checks_input() {
        let layer = Layer::FullyConnected {
            weights: Matrix::zeros(4, 9),
        };
        assert_eq!(layer.output_dim(4), Some(9));
        assert_eq!(layer.output_dim(5), None);
    }

    #[test]
    fn pointwise_layers_preserve_dim() {
        assert_eq!(Layer::Activation(Activation::Tanh).output_dim(7), Some(7));
        let ew = Layer::Elementwise {
            op: ElementwiseOp::ScaledAdd,
            lambda: 1.0,
        };
        assert_eq!(ew.output_dim(7), Some(7));
    }

    #[test]
    fn macs_counted_only_for_fc() {
        let fc = Layer::FullyConnected {
            weights: Matrix::zeros(10, 20),
        };
        assert_eq!(fc.macs_per_row(), 200);
        assert_eq!(Layer::Activation(Activation::Tanh).macs_per_row(), 0);
    }

    #[test]
    fn quantized_bytes() {
        let fc = Layer::FullyConnected {
            weights: Matrix::zeros(3, 5),
        };
        assert_eq!(fc.quantized_param_bytes(), 15);
        assert_eq!(
            Layer::Activation(Activation::Tanh).quantized_param_bytes(),
            256
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Activation::Tanh.name(), "tanh");
        assert_eq!(ElementwiseOp::ScaledAdd.name(), "elementwise-scaled-add");
        assert_eq!(
            Layer::FullyConnected {
                weights: Matrix::zeros(1, 1)
            }
            .name(),
            "fully-connected"
        );
    }
}
