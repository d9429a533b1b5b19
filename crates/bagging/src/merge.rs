use hd_tensor::packed::{majority_bundle, PackedBipolar, PackedClassHypervectors};
use hd_tensor::Matrix;
use hdc::bipolar::{binarize_classes, BipolarModel};
use hdc::{BaseHypervectors, ClassHypervectors, Encoder, HdcModel, NonlinearEncoder, Similarity};

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
            Similarity::Dot,
        )
        .map_err(BaggingError::from)
    }

    /// Merges the sub-models into one packed bipolar inference model,
    /// entirely in the packed domain: each member's class hypervectors
    /// binarize to packed sign vectors, and class `j` of the merged model
    /// is the bit-level concatenation of the members' class-`j` vectors —
    /// [`PackedBipolar::concat`] shift-splices across word boundaries, so
    /// member widths need not be multiples of 64.
    ///
    /// Because the float merge stacks member class matrices vertically,
    /// this is bit-exact with binarizing [`BaggedModel::merge`]'s output
    /// (`sign` is elementwise, so it commutes with concatenation); a test
    /// pins that equivalence.
    ///
    /// # Errors
    ///
    /// Propagates stacking/packing shape errors (impossible for models
    /// built via [`BaggedModel::new`]).
    pub fn merge_bipolar(&self) -> Result<BipolarModel, BaggingError> {
        let bases: Vec<&Matrix> = self
            .sub_models
            .iter()
            .map(|sm| sm.encoder.base().as_matrix())
            .collect();
        let merged_base = Matrix::hstack(&bases)?;

        let member_classes: Vec<Vec<PackedBipolar>> = self
            .sub_models
            .iter()
            .map(|sm| binarize_classes(&sm.classes))
            .collect();
        let merged: Vec<PackedBipolar> = (0..self.classes)
            .map(|j| {
                let parts: Vec<PackedBipolar> =
                    member_classes.iter().map(|m| m[j].clone()).collect();
                PackedBipolar::concat(&parts)
            })
            .collect();
        let packed =
            PackedClassHypervectors::from_classes(&merged).map_err(BaggingError::Tensor)?;
        BipolarModel::from_parts(
            NonlinearEncoder::new(BaseHypervectors::from_matrix(merged_base)),
            packed,
        )
        .map_err(BaggingError::from)
    }

    /// Majority-bundles the members' binarized class hypervectors through
    /// the bit-sliced vertical counters in
    /// [`hd_tensor::packed::majority_bundle`]: component `i` of consensus
    /// class `j` is the majority vote of `sign(C^1_j[i]) ... sign(C^M_j[i])`
    /// (ties round to `+1`, the repo-wide binarization rule).
    ///
    /// This is the classic HDC ensemble-bundling consensus — a single
    /// `d'`-wide packed class model, `M`x smaller than the merged model.
    /// Unlike [`BaggedModel::merge`], it is *not* equivalent to summing
    /// member scores (members encode with different base hypervectors);
    /// it is the packed sketch used when one shared encoder serves all
    /// members, and the bundling-bandwidth benchmark exercises it at
    /// scale.
    ///
    /// # Errors
    ///
    /// Propagates packing shape errors (impossible for models built via
    /// [`BaggedModel::new`]).
    pub fn bundle_classes(&self) -> Result<PackedClassHypervectors, BaggingError> {
        let member_classes: Vec<Vec<PackedBipolar>> = self
            .sub_models
            .iter()
            .map(|sm| binarize_classes(&sm.classes))
            .collect();
        let bundled: Vec<PackedBipolar> = (0..self.classes)
            .map(|j| {
                let votes: Vec<PackedBipolar> =
                    member_classes.iter().map(|m| m[j].clone()).collect();
                majority_bundle(&votes).map_err(BaggingError::Tensor)
            })
            .collect::<Result<_, _>>()?;
        PackedClassHypervectors::from_classes(&bundled).map_err(BaggingError::Tensor)
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
    fn bipolar_merge_is_bitexact_with_binarized_float_merge() {
        // Sub-model width 128 is word-aligned; also force an unaligned
        // width so `concat` exercises its shift-splice path.
        let (model, features, _) = trained(7);
        let merged_bipolar = model.merge_bipolar().unwrap();
        let reference = BipolarModel::binarize(&model.merge().unwrap());
        assert_eq!(
            merged_bipolar.packed_classes(),
            reference.packed_classes(),
            "packed concat merge must equal binarized vstack merge"
        );
        assert_eq!(
            merged_bipolar.predict(&features).unwrap(),
            reference.predict(&features).unwrap()
        );
    }

    #[test]
    fn bipolar_merge_handles_unaligned_member_widths() {
        let (model, _, _) = trained(8);
        // Truncate each member to an unaligned width d' = 100.
        let subs: Vec<SubModel> = model
            .iter()
            .map(|sm| {
                let base = sm.encoder.base().as_matrix();
                let narrow_base = Matrix::from_fn(base.rows(), 100, |i, j| base[(i, j)]);
                let classes = sm.classes.as_matrix();
                let narrow_classes = Matrix::from_fn(100, classes.cols(), |i, j| classes[(i, j)]);
                SubModel {
                    encoder: NonlinearEncoder::new(BaseHypervectors::from_matrix(narrow_base)),
                    classes: ClassHypervectors::from_matrix(narrow_classes),
                }
            })
            .collect();
        let narrow = BaggedModel::new(subs, 3).unwrap();
        let merged_bipolar = narrow.merge_bipolar().unwrap();
        let reference = BipolarModel::binarize(&narrow.merge().unwrap());
        assert_eq!(merged_bipolar.packed_classes(), reference.packed_classes());
        assert_eq!(merged_bipolar.dim(), 400);
    }

    #[test]
    fn bundled_classes_match_scalar_majority_of_members() {
        let (model, _, _) = trained(9);
        let bundled = model.bundle_classes().unwrap();
        assert_eq!(bundled.class_count(), 3);
        assert_eq!(bundled.dim(), model.sub_dim());
        for j in 0..3 {
            let votes: Vec<hdc::bipolar::BipolarVector> = model
                .iter()
                .map(|sm| binarize_classes(&sm.classes)[j].clone())
                .collect();
            let reference = hd_tensor::packed::majority_bundle_reference(&votes).unwrap();
            assert_eq!(bundled.class(j).unwrap(), reference, "class {j}");
        }
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
