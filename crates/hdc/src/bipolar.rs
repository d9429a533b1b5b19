//! Bipolar (1-bit) hypervectors: the classic Kanerva-style HDC
//! representation used by the FPGA and in-memory accelerators in the
//! paper's related work.
//!
//! A trained real-valued model binarizes to signs: each hypervector
//! component becomes `+1` or `-1`, packed 64 components per machine word,
//! and the dot-product similarity becomes a Hamming distance
//! (`dot(sign(a), sign(b)) = d - 2 * hamming(a, b)`), computable with XOR
//! and popcount. This cuts model storage 32x and turns the associative
//! search into pure bit arithmetic — the trade the paper's "lightweight
//! edge" motivation points at, at a small accuracy cost that
//! [`BipolarModel`] lets a user measure directly.
//!
//! The kernels live in [`hd_tensor::packed`]: [`BipolarVector`] is the
//! packed type itself, and [`BipolarModel`] keeps its class hypervectors
//! resident in a [`PackedClassHypervectors`] scan table so batch
//! prediction is one flat XOR+popcount sweep per query. Besides
//! binarizing a trained float model, [`BipolarModel::fit_bundled`] trains
//! one-shot in the packed domain: per-class majority bundling of the
//! binarized encoded samples through bit-sliced vertical counters, never
//! materializing a float class matrix.

use hd_tensor::packed::{majority_bundle, PackedClassHypervectors};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;

use crate::encoder::{BaseHypervectors, Encoder, NonlinearEncoder};
use crate::error::HdcError;
use crate::model::{ClassHypervectors, HdcModel};
use crate::train::TrainConfig;
use crate::Result;

/// A packed vector of `+1`/`-1` components (bit set = `+1`) — re-exported
/// from the kernel layer in [`hd_tensor::packed`].
///
/// # Examples
///
/// ```
/// use hdc::bipolar::BipolarVector;
///
/// let a = BipolarVector::from_signs(&[1.0, -2.0, 0.5]);
/// let b = BipolarVector::from_signs(&[1.0, 2.0, 0.5]);
/// assert_eq!(a.hamming(&b).unwrap(), 1);
/// assert_eq!(a.dot(&b).unwrap(), 1); // 3 - 2*1
/// ```
pub use hd_tensor::packed::PackedBipolar as BipolarVector;

/// A binarized HDC classifier: the float encoder is kept (encoding must
/// stay informative), but the *query* hypervector and the class
/// hypervectors reduce to signs, so the associative search runs on packed
/// bits.
#[derive(Debug, Clone, PartialEq)]
pub struct BipolarModel {
    encoder: crate::encoder::NonlinearEncoder,
    classes: PackedClassHypervectors,
}

impl BipolarModel {
    /// Binarizes a trained real-valued model.
    ///
    /// # Panics
    ///
    /// Panics only if an internal invariant breaks: a trained model
    /// always has at least one class of non-zero dimensionality.
    #[must_use]
    pub fn binarize(model: &HdcModel) -> Self {
        let packed = binarize_classes(model.classes());
        BipolarModel {
            encoder: model.encoder().clone(),
            classes: PackedClassHypervectors::from_classes(&packed)
                .expect("trained model has non-empty classes"),
        }
    }

    /// Assembles a bipolar model from an encoder and packed classes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the encoder and class
    /// dimensionalities disagree.
    pub fn from_parts(encoder: NonlinearEncoder, classes: PackedClassHypervectors) -> Result<Self> {
        if encoder.base().dim() != classes.dim() {
            return Err(HdcError::InvalidConfig(
                "encoder dimensionality does not match packed class hypervectors",
            ));
        }
        Ok(BipolarModel { encoder, classes })
    }

    /// One-shot HDC training entirely in the packed domain: encode each
    /// sample, binarize it, and majority-bundle each class's samples
    /// through the bit-sliced vertical counters in
    /// [`hd_tensor::packed::majority_bundle`]. No float class matrix is
    /// ever materialized. A class with no samples gets the all-`+1`
    /// vector (the majority rule applied to an empty vote: the zero sum
    /// binarizes to `+1`).
    ///
    /// # Errors
    ///
    /// * [`HdcError::EmptyDataset`] — no samples or `classes == 0`.
    /// * [`HdcError::LabelCount`] / [`HdcError::LabelOutOfRange`] — label
    ///   problems.
    /// * [`HdcError::InvalidConfig`] — bad dimension/iterations/rate.
    pub fn fit_bundled(
        features: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> Result<Self> {
        config.validate()?;
        if features.rows() == 0 || classes == 0 {
            return Err(HdcError::EmptyDataset);
        }
        if labels.len() != features.rows() {
            return Err(HdcError::LabelCount {
                samples: features.rows(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(HdcError::LabelOutOfRange {
                label: bad,
                classes,
            });
        }
        let mut rng = DetRng::new(config.seed);
        let base = BaseHypervectors::generate(features.cols(), config.dim, &mut rng);
        let encoder = NonlinearEncoder::new(base);
        let encoded = encoder.encode(features)?;

        let mut members: Vec<Vec<BipolarVector>> = vec![Vec::new(); classes];
        for (r, &label) in labels.iter().enumerate() {
            members[label].push(BipolarVector::from_signs(encoded.row(r)));
        }
        let bundled: Vec<BipolarVector> = members
            .iter()
            .map(|m| {
                if m.is_empty() {
                    Ok(BipolarVector::from_signs(&vec![0.0; config.dim]))
                } else {
                    majority_bundle(m).map_err(HdcError::from)
                }
            })
            .collect::<Result<_>>()?;
        let classes = PackedClassHypervectors::from_classes(&bundled).map_err(HdcError::from)?;
        Ok(BipolarModel { encoder, classes })
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.class_count()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.classes.dim()
    }

    /// Packed class-model storage in bytes (vs `4 * d * k` for f32).
    pub fn class_bytes(&self) -> usize {
        self.classes.byte_size()
    }

    /// The resident packed class hypervectors.
    pub fn packed_classes(&self) -> &PackedClassHypervectors {
        &self.classes
    }

    /// Predicts labels for a batch of raw samples: encode in f32,
    /// binarize the queries, scan the packed classes at minimum Hamming
    /// distance (ties to the lowest class index, like the float argmax).
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a feature-count mismatch.
    pub fn predict(&self, features: &Matrix) -> Result<Vec<usize>> {
        let encoded = self.encoder.encode(features)?;
        self.predict_encoded(&encoded)
    }

    /// Predicts labels for already-encoded (float) hypervectors.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a dimensionality mismatch.
    pub fn predict_encoded(&self, encoded: &Matrix) -> Result<Vec<usize>> {
        let queries: Vec<BipolarVector> = (0..encoded.rows())
            .map(|r| BipolarVector::from_signs(encoded.row(r)))
            .collect();
        self.classes.predict_batch(&queries).map_err(HdcError::from)
    }
}

/// Binarizes class hypervectors column-wise (one packed vector per class).
///
/// # Panics
///
/// Panics only if an internal invariant breaks: every class index
/// iterated is below `classes.class_count()`.
pub fn binarize_classes(classes: &ClassHypervectors) -> Vec<BipolarVector> {
    (0..classes.class_count())
        .map(|j| {
            let column = classes.class(j).expect("class index in range");
            BipolarVector::from_signs(&column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainConfig;
    use hd_tensor::rng::DetRng;

    #[test]
    fn pack_unpack_roundtrip() {
        let values = [1.5f32, -0.2, 0.0, -7.0, 3.0];
        let v = BipolarVector::from_signs(&values);
        assert_eq!(v.to_signs(), vec![1.0, -1.0, 1.0, -1.0, 1.0]);
        assert_eq!(v.dim(), 5);
        assert_eq!(v.sign(0), 1);
        assert_eq!(v.sign(3), -1);
    }

    #[test]
    fn hamming_identity_and_symmetry() {
        let mut rng = DetRng::new(61);
        let a_values: Vec<f32> = (0..200).map(|_| rng.next_normal()).collect();
        let b_values: Vec<f32> = (0..200).map(|_| rng.next_normal()).collect();
        let a = BipolarVector::from_signs(&a_values);
        let b = BipolarVector::from_signs(&b_values);
        assert_eq!(a.hamming(&a).unwrap(), 0);
        assert_eq!(a.hamming(&b).unwrap(), b.hamming(&a).unwrap());
    }

    #[test]
    fn dot_equals_d_minus_two_hamming() {
        let mut rng = DetRng::new(62);
        for dim in [1usize, 63, 64, 65, 130] {
            let a_values: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
            let b_values: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
            let a = BipolarVector::from_signs(&a_values);
            let b = BipolarVector::from_signs(&b_values);
            // Reference: dot of unpacked signs.
            let reference: i64 = a
                .to_signs()
                .iter()
                .zip(b.to_signs())
                .map(|(x, y)| (x * y) as i64)
                .sum();
            assert_eq!(a.dot(&b).unwrap(), reference, "dim {dim}");
        }
    }

    #[test]
    fn padding_bits_do_not_leak() {
        // dim not a multiple of 64: padding must not affect distances.
        let a = BipolarVector::from_signs(&[1.0; 70]);
        let b = BipolarVector::from_signs(&[-1.0; 70]);
        assert_eq!(a.hamming(&b).unwrap(), 70);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = BipolarVector::from_signs(&[1.0; 10]);
        let b = BipolarVector::from_signs(&[1.0; 11]);
        assert!(a.hamming(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    fn trained() -> (HdcModel, Matrix, Vec<usize>) {
        let mut rng = DetRng::new(63);
        let mut features = Matrix::random_normal(90, 12, &mut rng);
        let labels: Vec<usize> = (0..90).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l * 2] += 2.5;
            features.row_mut(i)[l * 2 + 1] += 2.5;
        }
        let config = TrainConfig::new(2048).with_iterations(6).with_seed(64);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        (model, features, labels)
    }

    #[test]
    fn binarized_model_stays_accurate_on_separable_data() {
        let (model, features, labels) = trained();
        let float_acc = crate::eval::accuracy(&model.predict(&features).unwrap(), &labels).unwrap();
        let bipolar = BipolarModel::binarize(&model);
        let bip_acc = crate::eval::accuracy(&bipolar.predict(&features).unwrap(), &labels).unwrap();
        assert!(float_acc > 0.95);
        assert!(
            bip_acc > float_acc - 0.1,
            "bipolar accuracy {bip_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn binarized_model_is_32x_smaller() {
        let (model, _, _) = trained();
        let bipolar = BipolarModel::binarize(&model);
        let float_bytes = model.dim() * model.class_count() * 4;
        assert!(bipolar.class_bytes() * 30 < float_bytes);
        assert_eq!(bipolar.class_count(), 3);
        assert_eq!(bipolar.dim(), 2048);
    }

    #[test]
    fn binarize_classes_matches_column_signs() {
        let (model, _, _) = trained();
        let packed = binarize_classes(model.classes());
        let column = model.classes().class(1).unwrap();
        for (i, &v) in column.iter().enumerate().take(100) {
            let expected = if v >= 0.0 { 1 } else { -1 };
            assert_eq!(packed[1].sign(i), expected, "component {i}");
        }
    }

    #[test]
    fn packed_predict_matches_scalar_hamming_scan() {
        let (model, features, _) = trained();
        let bipolar = BipolarModel::binarize(&model);
        let encoded = model.encoder().encode(&features).unwrap();
        let fast = bipolar.predict_encoded(&encoded).unwrap();
        // Scalar reference: per-row linear scan over standalone vectors.
        let classes = binarize_classes(model.classes());
        let slow: Vec<usize> = (0..encoded.rows())
            .map(|r| {
                let query = BipolarVector::from_signs(encoded.row(r));
                classes
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.hamming(&query).unwrap())
                    .map(|(j, _)| j)
                    .unwrap()
            })
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn fit_bundled_learns_separable_data() {
        let (_, features, labels) = trained();
        let config = TrainConfig::new(2048).with_seed(64);
        let model = BipolarModel::fit_bundled(&features, &labels, 3, &config).unwrap();
        let acc = crate::eval::accuracy(&model.predict(&features).unwrap(), &labels).unwrap();
        assert!(acc > 0.9, "bundled one-shot accuracy {acc}");
        assert_eq!(model.class_count(), 3);
        assert_eq!(model.dim(), 2048);
    }

    #[test]
    fn fit_bundled_validates_inputs() {
        let features = Matrix::zeros(4, 2);
        let config = TrainConfig::new(64);
        assert!(matches!(
            BipolarModel::fit_bundled(&Matrix::zeros(0, 2), &[], 2, &config).unwrap_err(),
            HdcError::EmptyDataset
        ));
        assert!(matches!(
            BipolarModel::fit_bundled(&features, &[0, 1], 2, &config).unwrap_err(),
            HdcError::LabelCount { .. }
        ));
        assert!(matches!(
            BipolarModel::fit_bundled(&features, &[0, 1, 2, 5], 2, &config).unwrap_err(),
            HdcError::LabelOutOfRange { .. }
        ));
    }

    #[test]
    fn fit_bundled_empty_class_gets_all_plus_one() {
        let mut rng = DetRng::new(65);
        let features = Matrix::random_normal(6, 4, &mut rng);
        let labels = vec![0usize; 6]; // class 1 never appears
        let config = TrainConfig::new(96).with_seed(66);
        let model = BipolarModel::fit_bundled(&features, &labels, 2, &config).unwrap();
        let class1 = model.packed_classes().class(1).unwrap();
        assert_eq!(class1.to_signs(), vec![1.0; 96]);
    }

    #[test]
    fn from_parts_checks_dimensions() {
        let mut rng = DetRng::new(67);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(4, 128, &mut rng));
        let classes =
            PackedClassHypervectors::from_classes(&[BipolarVector::from_signs(&vec![1.0; 64])])
                .unwrap();
        assert!(BipolarModel::from_parts(encoder, classes).is_err());
    }
}
