//! The HDC-to-wide-NN interpretation (paper Fig. 2).
//!
//! "Three major operations in HDC ... are mapped to a three-layer wide
//! neural network": the `n x d` base-hypervector matrix is the weight
//! matrix between the input layer and the wide hidden layer, `tanh` is
//! the hidden activation, and the `d x k` class-hypervector matrix is
//! the weight matrix between the hidden layer and the output layer.

use hd_tensor::Matrix;
use hdc::{Encoder, EncoderActivation, HdcModel};
use wide_nn::{Activation, ElementwiseOp, Model, ModelBuilder};

use crate::Result;

/// Builds the *first half* of the wide network: the encoding model
/// `F -> tanh(F x B)` (or plain `F x B` for a linear encoder) that the
/// framework ships to the accelerator during training (paper Fig. 1,
/// "training set encoding on Edge TPU").
///
/// Accepts any [`hdc::Encoder`], so the nonlinear and linear encoders
/// lower through the same path.
///
/// # Errors
///
/// Never fails for a well-formed encoder; the `Result` covers the
/// (impossible by construction) shape mismatch from the builder.
///
/// # Examples
///
/// ```
/// use hd_tensor::rng::DetRng;
/// use hdc::{BaseHypervectors, NonlinearEncoder};
///
/// # fn main() -> Result<(), hyperedge::FrameworkError> {
/// let mut rng = DetRng::new(3);
/// let encoder = NonlinearEncoder::new(BaseHypervectors::generate(32, 512, &mut rng));
/// let network = hyperedge::wide_model::encoder_network(&encoder)?;
/// assert_eq!(network.input_dim(), 32);
/// assert_eq!(network.output_dim(), 512);
/// # Ok(())
/// # }
/// ```
pub fn encoder_network(encoder: &dyn Encoder) -> Result<Model> {
    let builder = ModelBuilder::new(encoder.base().feature_count())
        .fully_connected(encoder.base().as_matrix().clone())?;
    let builder = match encoder.activation() {
        EncoderActivation::Tanh => builder.activation(Activation::Tanh),
        EncoderActivation::Identity => builder,
    };
    Ok(builder.build()?)
}

/// Builds the *full* three-layer inference network
/// `F -> tanh(F x B) x C` from a trained HDC model — the single model the
/// framework loads onto the accelerator for real-time prediction.
///
/// # Errors
///
/// Never fails for a well-formed model (dimensions agree by
/// construction).
pub fn inference_network(model: &HdcModel) -> Result<Model> {
    let network = ModelBuilder::new(model.feature_count())
        .fully_connected(model.encoder().base().as_matrix().clone())?
        .activation(Activation::Tanh)
        .fully_connected(model.classes().as_matrix().clone())?
        .build()?;
    Ok(network)
}

/// Builds the *second half* of the wide network on its own: the scoring
/// model `H -> H x C` that maps encoded hypervectors to class scores.
/// Together with [`encoder_network`] this splits [`inference_network`]
/// across two accelerators — the two-device serving schedule places
/// encoding on one device and scoring on the other so their invocations
/// overlap chunk by chunk.
///
/// # Errors
///
/// Never fails for a well-formed model (dimensions agree by
/// construction).
pub fn scoring_network(model: &HdcModel) -> Result<Model> {
    let network = ModelBuilder::new(model.dim())
        .fully_connected(model.classes().as_matrix().clone())?
        .build()?;
    Ok(network)
}

/// Builds the *training-update* graph: the element-wise
/// bundling/detaching op on class hypervectors. Compiling this for an
/// accelerator target fails with
/// [`wide_nn::NnError::UnsupportedOp`] — the typed proof of the paper's
/// statement that the Edge TPU cannot run class-hypervector update,
/// which is why the framework schedules it on the host CPU.
pub fn update_graph(dim: usize, learning_rate: f32) -> Result<Model> {
    let model = ModelBuilder::new(dim)
        .elementwise(ElementwiseOp::ScaledAdd, learning_rate)
        .build()?;
    Ok(model)
}

/// Checks numerically that a wide-NN inference network agrees with the
/// HDC model it was built from, returning the maximum absolute score
/// difference over `probe` samples. Used by tests and by the quickstart
/// example to demonstrate the equivalence claim of Fig. 2.
///
/// # Errors
///
/// Propagates shape errors if `probe` has the wrong feature width.
pub fn interpretation_gap(model: &HdcModel, network: &Model, probe: &Matrix) -> Result<f32> {
    let hdc_scores = model.decision_scores(probe)?;
    let nn_scores = network.forward(probe)?;
    let mut max_gap = 0.0f32;
    for (a, b) in hdc_scores.iter().zip(nn_scores.iter()) {
        max_gap = max_gap.max((a - b).abs());
    }
    Ok(max_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;
    use hdc::TrainConfig;
    use wide_nn::{compile, NnError, TargetSpec};

    fn trained_model() -> (HdcModel, Matrix) {
        let mut rng = DetRng::new(11);
        let mut features = Matrix::random_normal(40, 12, &mut rng);
        // Inject class structure.
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[0] += if l == 0 { 2.0 } else { -2.0 };
        }
        let config = TrainConfig::new(256).with_iterations(5).with_seed(12);
        let (model, _) = HdcModel::fit(&features, &labels, 2, &config).unwrap();
        (model, features)
    }

    #[test]
    fn inference_network_matches_hdc_scores_exactly() {
        let (model, features) = trained_model();
        let network = inference_network(&model).unwrap();
        let gap = interpretation_gap(&model, &network, &features).unwrap();
        // Same f32 arithmetic, same order: the interpretation is not an
        // approximation, it is an identity (up to float associativity in
        // the gemm, which the shared kernel makes identical).
        assert!(gap < 1e-3, "gap {gap}");
    }

    #[test]
    fn inference_network_argmax_matches_predict() {
        let (model, features) = trained_model();
        let network = inference_network(&model).unwrap();
        let scores = network.forward(&features).unwrap();
        let nn_preds: Vec<usize> = (0..scores.rows())
            .map(|r| hd_tensor::ops::argmax(scores.row(r)).unwrap())
            .collect();
        assert_eq!(nn_preds, model.predict(&features).unwrap());
    }

    #[test]
    fn encoder_network_matches_encoder() {
        let (model, features) = trained_model();
        let network = encoder_network(model.encoder()).unwrap();
        // One GEMM and one `tanh` on both sides: bit-identical.
        assert_eq!(
            network.forward(&features).unwrap(),
            model.encoder().encode(&features).unwrap()
        );
    }

    #[test]
    fn update_graph_is_rejected_by_accelerator_compiler() {
        let graph = update_graph(256, 1.0).unwrap();
        let err =
            compile::compile(&graph, &Matrix::zeros(2, 256), &TargetSpec::default()).unwrap_err();
        assert!(matches!(err, NnError::UnsupportedOp { .. }));
    }

    #[test]
    fn network_dims_follow_model() {
        let (model, _) = trained_model();
        let network = inference_network(&model).unwrap();
        assert_eq!(network.input_dim(), model.feature_count());
        assert_eq!(network.output_dim(), model.class_count());
        assert_eq!(
            network.param_count(),
            model.feature_count() * model.dim() + model.dim() * model.class_count()
        );
    }
}
