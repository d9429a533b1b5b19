use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, ops, Matrix};

use crate::encoder::{BaseHypervectors, Encoder, NonlinearEncoder};
use crate::error::HdcError;
use crate::train::{train_encoded, TrainConfig, TrainStats};
use crate::Result;

/// How query-to-class similarity is computed during classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Plain dot product — the paper's accelerator-friendly approximation
    /// (`delta(E, C) = E . C`), a pure MAC loop.
    #[default]
    Dot,
    /// Full cosine similarity, normalizing by both operands' norms. More
    /// expensive; used as the accuracy reference.
    Cosine,
}

/// The trained class hypervectors: a `d x k` matrix whose column `j` is
/// the class hypervector `C_j`.
///
/// Stored transposed relative to the intuitive `k x d` layout so that the
/// similarity search is directly the second-half wide-NN layer
/// `scores = E x C`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassHypervectors {
    matrix: Matrix,
}

impl ClassHypervectors {
    /// All-zero class hypervectors (the paper's training start state).
    #[must_use]
    pub fn zeros(d: usize, k: usize) -> Self {
        ClassHypervectors {
            matrix: Matrix::zeros(d, k),
        }
    }

    /// Wraps an existing `d x k` matrix (used by the bagging merge).
    #[must_use]
    pub fn from_matrix(matrix: Matrix) -> Self {
        ClassHypervectors { matrix }
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of classes `k`.
    pub fn class_count(&self) -> usize {
        self.matrix.cols()
    }

    /// The underlying `d x k` matrix — the second-layer weights of the
    /// paper's wide-NN interpretation.
    pub fn as_matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Consumes `self` and returns the underlying matrix.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// Copies class `j`'s hypervector out as a contiguous vector.
    ///
    /// # Errors
    ///
    /// Returns a wrapped index error if `j` is out of range.
    pub fn class(&self, j: usize) -> Result<Vec<f32>> {
        self.matrix.col(j).map_err(HdcError::from)
    }

    /// Similarity scores of one encoded hypervector against every class.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error if `encoded.len() != self.dim()`.
    pub fn scores(&self, encoded: &[f32], similarity: Similarity) -> Result<Vec<f32>> {
        let raw = gemm::matvec(encoded, &self.matrix).map_err(HdcError::from)?;
        match similarity {
            Similarity::Dot => Ok(raw),
            Similarity::Cosine => {
                let qn = ops::norm(encoded);
                if qn == 0.0 {
                    return Ok(vec![0.0; self.class_count()]);
                }
                let mut scores = raw;
                for (j, s) in scores.iter_mut().enumerate() {
                    let cn = ops::norm(&self.matrix.col(j).map_err(HdcError::from)?);
                    *s = if cn == 0.0 { 0.0 } else { *s / (qn * cn) };
                }
                Ok(scores)
            }
        }
    }
}

/// A complete HDC classifier: base hypervectors (encoder weights) plus
/// trained class hypervectors (classifier weights).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct HdcModel {
    encoder: NonlinearEncoder,
    classes: ClassHypervectors,
    similarity: Similarity,
}

impl HdcModel {
    /// Assembles a model from parts.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the encoder dimensionality
    /// and class-hypervector dimensionality disagree.
    pub fn from_parts(
        encoder: NonlinearEncoder,
        classes: ClassHypervectors,
        similarity: Similarity,
    ) -> Result<Self> {
        if encoder.base().dim() != classes.dim() {
            return Err(HdcError::InvalidConfig(
                "encoder dimensionality does not match class hypervectors",
            ));
        }
        Ok(HdcModel {
            encoder,
            classes,
            similarity,
        })
    }

    /// Trains a model end to end: generate base hypervectors, encode the
    /// training set once, then run the iterative class-hypervector update.
    ///
    /// # Errors
    ///
    /// * [`HdcError::EmptyDataset`] — no samples or `classes == 0`.
    /// * [`HdcError::LabelCount`] / [`HdcError::LabelOutOfRange`] — label
    ///   problems.
    /// * [`HdcError::InvalidConfig`] — bad dimension/iterations/rate.
    pub fn fit(
        features: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> Result<(Self, TrainStats)> {
        config.validate()?;
        if features.rows() == 0 || classes == 0 {
            return Err(HdcError::EmptyDataset);
        }
        let mut rng = DetRng::new(config.seed);
        let base = BaseHypervectors::generate(features.cols(), config.dim, &mut rng);
        let encoder = NonlinearEncoder::new(base);
        let encoded = encoder.encode(features)?;
        let (class_hvs, stats) = train_encoded(&encoded, labels, classes, config)?;
        Ok((
            HdcModel {
                encoder,
                classes: class_hvs,
                similarity: config.similarity,
            },
            stats,
        ))
    }

    /// The encoder (base hypervectors).
    pub fn encoder(&self) -> &NonlinearEncoder {
        &self.encoder
    }

    /// The trained class hypervectors.
    pub fn classes(&self) -> &ClassHypervectors {
        &self.classes
    }

    /// The similarity metric used for prediction.
    pub fn similarity(&self) -> Similarity {
        self.similarity
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.encoder.base().dim()
    }

    /// Number of input features `n`.
    pub fn feature_count(&self) -> usize {
        self.encoder.base().feature_count()
    }

    /// Number of classes `k`.
    pub fn class_count(&self) -> usize {
        self.classes.class_count()
    }

    /// Predicts class labels for a batch of raw samples.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a feature-count mismatch.
    pub fn predict(&self, features: &Matrix) -> Result<Vec<usize>> {
        let encoded = self.encoder.encode(features)?;
        self.predict_encoded(&encoded)
    }

    /// Predicts class labels for already-encoded hypervectors — the path
    /// used when encoding ran on the accelerator.
    ///
    /// Dot-similarity scoring goes through [`crate::predict_batch`]'s
    /// dispatch, so a fully bipolar model (±1 classes scoring ±1
    /// queries) takes the packed XOR+popcount kernel bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a dimensionality mismatch.
    pub fn predict_encoded(&self, encoded: &Matrix) -> Result<Vec<usize>> {
        match self.similarity {
            Similarity::Dot => crate::train::predict_rows(self.classes.as_matrix(), encoded),
            Similarity::Cosine => (0..encoded.rows())
                .map(|r| {
                    let scores = self.classes.scores(encoded.row(r), Similarity::Cosine)?;
                    ops::argmax(&scores).map_err(HdcError::from)
                })
                .collect(),
        }
    }

    /// Raw similarity scores (`samples x classes`) for a raw-sample batch.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a feature-count mismatch.
    pub fn decision_scores(&self, features: &Matrix) -> Result<Matrix> {
        let encoded = self.encoder.encode(features)?;
        gemm::matmul(&encoded, self.classes.as_matrix()).map_err(HdcError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_dataset() -> (Matrix, Vec<usize>) {
        // Three classes with distinct feature signatures plus mild noise.
        let mut rng = DetRng::new(99);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..20 {
                let mut row = vec![0.0f32; 6];
                row[class * 2] = 1.0 + 0.1 * rng.next_normal();
                row[class * 2 + 1] = 1.0 + 0.1 * rng.next_normal();
                rows.push(row);
                labels.push(class);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn fit_learns_separable_data() {
        let (features, labels) = separable_dataset();
        let config = TrainConfig::new(1024).with_iterations(10).with_seed(1);
        let (model, stats) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        assert_eq!(model.predict(&features).unwrap(), labels);
        assert!(stats.final_train_accuracy() > 0.95);
        assert_eq!(model.dim(), 1024);
        assert_eq!(model.feature_count(), 6);
        assert_eq!(model.class_count(), 3);
    }

    #[test]
    fn dot_and_cosine_agree_on_clear_cases() {
        let (features, labels) = separable_dataset();
        let config = TrainConfig::new(1024).with_iterations(10).with_seed(2);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        let cos_model = HdcModel::from_parts(
            model.encoder().clone(),
            model.classes().clone(),
            Similarity::Cosine,
        )
        .unwrap();
        assert_eq!(
            model.predict(&features).unwrap(),
            cos_model.predict(&features).unwrap()
        );
    }

    #[test]
    fn predict_encoded_matches_predict() {
        let (features, labels) = separable_dataset();
        let config = TrainConfig::new(512).with_iterations(5).with_seed(3);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        let encoded = model.encoder().encode(&features).unwrap();
        assert_eq!(
            model.predict(&features).unwrap(),
            model.predict_encoded(&encoded).unwrap()
        );
    }

    #[test]
    fn empty_dataset_rejected() {
        let config = TrainConfig::new(64);
        let err = HdcModel::fit(&Matrix::zeros(0, 4), &[], 2, &config).unwrap_err();
        assert_eq!(err, HdcError::EmptyDataset);
        let err = HdcModel::fit(&Matrix::zeros(2, 4), &[0, 0], 0, &config).unwrap_err();
        assert_eq!(err, HdcError::EmptyDataset);
    }

    #[test]
    fn mismatched_parts_rejected() {
        let mut rng = DetRng::new(4);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(4, 128, &mut rng));
        let classes = ClassHypervectors::zeros(64, 2);
        assert!(matches!(
            HdcModel::from_parts(encoder, classes, Similarity::Dot).unwrap_err(),
            HdcError::InvalidConfig(_)
        ));
    }

    #[test]
    fn zero_class_hypervectors_score_zero() {
        let classes = ClassHypervectors::zeros(8, 3);
        let encoded = vec![1.0f32; 8];
        assert_eq!(
            classes.scores(&encoded, Similarity::Dot).unwrap(),
            vec![0.0; 3]
        );
        assert_eq!(
            classes.scores(&encoded, Similarity::Cosine).unwrap(),
            vec![0.0; 3]
        );
    }

    #[test]
    fn decision_scores_shape() {
        let (features, labels) = separable_dataset();
        let config = TrainConfig::new(256).with_iterations(3).with_seed(5);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        let scores = model.decision_scores(&features).unwrap();
        assert_eq!(scores.shape(), (features.rows(), 3));
    }

    #[test]
    fn class_accessor_bounds_checked() {
        let classes = ClassHypervectors::zeros(4, 2);
        assert!(classes.class(1).is_ok());
        assert!(classes.class(2).is_err());
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (features, labels) = separable_dataset();
        let config = TrainConfig::new(256).with_iterations(3).with_seed(42);
        let (a, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        let (b, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        assert_eq!(a, b);
    }
}
