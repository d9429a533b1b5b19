use hd_tensor::Matrix;
use hdc::{BaseHypervectors, ClassHypervectors, Encoder, HdcModel, NonlinearEncoder};

use crate::error::BaggingError;

/// One weak learner: its (possibly feature-masked) base hypervectors and
/// trained class hypervectors.
#[derive(Debug, Clone, PartialEq)]
pub struct SubModel {
    /// The sub-model's encoder (an `n x d'` base matrix, zero rows for
    /// unsampled features).
    pub encoder: NonlinearEncoder,
    /// The sub-model's trained `d' x k` class hypervectors.
    pub classes: ClassHypervectors,
}

/// The collection of trained sub-models, mergeable into a single
/// full-width inference model.
///
/// Merging is the paper's inference-model generation (Section III-B):
/// base matrices stack **horizontally** into `B = [B^1 B^2 ... B^M]`
/// (shape `n x (M d')`) and class matrices stack **vertically** into
/// `C = [C^1; C^2; ...; C^M]` (shape `(M d') x k`), so a single pass
/// `O = tanh(F B) C` computes the *sum of all sub-model scores* — the
/// bagging consensus — with exactly the cost of one full-width model and
/// therefore **zero inference overhead**.
#[derive(Debug, Clone, PartialEq)]
pub struct BaggedModel {
    sub_models: Vec<SubModel>,
    classes: usize,
}

impl BaggedModel {
    /// Wraps trained sub-models.
    ///
    /// # Errors
    ///
    /// Returns [`BaggingError::InvalidConfig`] if the list is empty or the
    /// sub-models disagree on feature count, width, or class count.
    pub fn new(sub_models: Vec<SubModel>, classes: usize) -> Result<Self, BaggingError> {
        let first = sub_models
            .first()
            .ok_or_else(|| BaggingError::InvalidConfig("no sub-models".into()))?;
        let n = first.encoder.base().feature_count();
        let d = first.encoder.base().dim();
        for (i, sm) in sub_models.iter().enumerate() {
            if sm.encoder.base().feature_count() != n
                || sm.encoder.base().dim() != d
                || sm.classes.dim() != d
                || sm.classes.class_count() != classes
            {
                return Err(BaggingError::InvalidConfig(format!(
                    "sub-model {i} has inconsistent dimensions"
                )));
            }
        }
        Ok(BaggedModel {
            sub_models,
            classes,
        })
    }

    /// Number of sub-models `M`.
    pub fn sub_model_count(&self) -> usize {
        self.sub_models.len()
    }

    /// Number of classes `k`.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Per-sub-model width `d'`.
    pub fn sub_dim(&self) -> usize {
        self.sub_models[0].encoder.base().dim()
    }

    /// Borrow of sub-model `m`.
    pub fn sub_model(&self, m: usize) -> Option<&SubModel> {
        self.sub_models.get(m)
    }

    /// Iterates over the sub-models.
    pub fn iter(&self) -> std::slice::Iter<'_, SubModel> {
        self.sub_models.iter()
    }

    /// Predicts by running every sub-model separately and summing their
    /// similarity scores — the *unmerged* consensus path the paper argues
    /// is inefficient on the accelerator. Kept as the reference that the
    /// merged model must match.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from encoding.
    pub fn predict_consensus(&self, features: &Matrix) -> Result<Vec<usize>, BaggingError> {
        let scores = self.consensus_scores(features)?;
        (0..scores.rows())
            .map(|r| hd_tensor::ops::argmax(scores.row(r)).map_err(BaggingError::Tensor))
            .collect()
    }

    /// The summed `samples x k` score matrix over all sub-models.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from encoding.
    pub fn consensus_scores(&self, features: &Matrix) -> Result<Matrix, BaggingError> {
        let mut total: Option<Matrix> = None;
        for sm in &self.sub_models {
            let encoded = sm.encoder.encode(features)?;
            let scores = hd_tensor::gemm::matmul(&encoded, sm.classes.as_matrix())?;
            total = Some(match total {
                None => scores,
                Some(t) => t.add(&scores)?,
            });
        }
        Ok(total.expect("at least one sub-model exists"))
    }

    /// Merges the sub-models into one full-width [`HdcModel`] — the
    /// single inference model the framework ships to the accelerator.
    ///
    /// # Errors
    ///
    /// Propagates stacking shape errors (impossible for models built via
    /// [`BaggedModel::new`]).
    pub fn merge(&self) -> Result<HdcModel, BaggingError> {
        let bases: Vec<&Matrix> = self
            .sub_models
            .iter()
            .map(|sm| sm.encoder.base().as_matrix())
            .collect();
        let merged_base = Matrix::hstack(&bases)?;

        let class_mats: Vec<&Matrix> = self
            .sub_models
            .iter()
            .map(|sm| sm.classes.as_matrix())
            .collect();
        let merged_classes = Matrix::vstack(&class_mats)?;

        HdcModel::from_parts(
            NonlinearEncoder::new(BaseHypervectors::from_matrix(merged_base)),
            ClassHypervectors::from_matrix(merged_classes),
        )
        .map_err(BaggingError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BaggingConfig;
    use crate::train::train_bagged;
    use hd_tensor::rng::DetRng;

    fn trained(seed: u64) -> (BaggedModel, Matrix, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let centers: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..10).map(|_| 1.5 * rng.next_normal()).collect())
            .collect();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..15 {
                rows.push(
                    center
                        .iter()
                        .map(|&v| v + 0.4 * rng.next_normal())
                        .collect::<Vec<f32>>(),
                );
                labels.push(c);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let features = Matrix::from_rows(&refs).unwrap();
        let config = BaggingConfig::paper_defaults(512).with_seed(seed);
        let (model, _) = train_bagged(&features, &labels, 3, &config).unwrap();
        (model, features, labels)
    }

    #[test]
    fn merged_model_has_full_width() {
        let (model, _, _) = trained(1);
        let merged = model.merge().unwrap();
        assert_eq!(merged.dim(), 512);
        assert_eq!(merged.feature_count(), 10);
        assert_eq!(merged.class_count(), 3);
    }

    #[test]
    fn merged_predictions_equal_consensus_predictions() {
        // The paper's central merging claim: one full-width pass computes
        // exactly the sum of sub-model similarity scores.
        let (model, features, _) = trained(2);
        let merged = model.merge().unwrap();
        assert_eq!(
            merged.predict(&features).unwrap(),
            model.predict_consensus(&features).unwrap()
        );
    }

    #[test]
    fn merged_scores_equal_summed_scores() {
        let (model, features, _) = trained(3);
        let merged = model.merge().unwrap();
        let merged_scores = merged.decision_scores(&features).unwrap();
        let consensus = model.consensus_scores(&features).unwrap();
        let dist = merged_scores.frobenius_distance(&consensus).unwrap();
        let scale = consensus.max_abs().max(1.0);
        assert!(dist / scale < 1e-4, "distance {dist} vs scale {scale}");
    }

    #[test]
    fn empty_model_rejected() {
        assert!(BaggedModel::new(vec![], 2).is_err());
    }

    #[test]
    fn inconsistent_sub_models_rejected() {
        let (model, _, _) = trained(4);
        let mut subs: Vec<SubModel> = model.iter().cloned().collect();
        // Corrupt one sub-model's class count.
        subs[1].classes = ClassHypervectors::zeros(subs[1].classes.dim(), 5);
        assert!(matches!(
            BaggedModel::new(subs, 3).unwrap_err(),
            BaggingError::InvalidConfig(_)
        ));
    }

    #[test]
    fn accessors() {
        let (model, _, _) = trained(5);
        assert_eq!(model.sub_model_count(), 4);
        assert_eq!(model.class_count(), 3);
        assert_eq!(model.sub_dim(), 128);
        assert!(model.sub_model(3).is_some());
        assert!(model.sub_model(4).is_none());
        assert_eq!(model.iter().count(), 4);
    }

    #[test]
    fn merged_accuracy_close_to_consensus_accuracy() {
        let (model, features, labels) = trained(6);
        let merged = model.merge().unwrap();
        let acc_merged = hdc::eval::accuracy(&merged.predict(&features).unwrap(), &labels).unwrap();
        let acc_consensus =
            hdc::eval::accuracy(&model.predict_consensus(&features).unwrap(), &labels).unwrap();
        assert!((acc_merged - acc_consensus).abs() < 1e-9);
        assert!(acc_merged > 0.9);
    }
}
