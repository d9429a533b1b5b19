use hd_tensor::packed::{PackedBipolar, PackedClassHypervectors};
use hd_tensor::{gemm, ops, Matrix};

use crate::error::HdcError;
use crate::model::{ClassHypervectors, Similarity};
use crate::Result;

/// Configuration of the iterative class-hypervector training.
///
/// Defaults mirror the paper's setup: `d = 10000`, 20 iterations for a
/// fully trained model, a learning rate of 1.0, dot-product similarity.
///
/// # Examples
///
/// ```
/// use hdc::TrainConfig;
///
/// let config = TrainConfig::new(10_000)
///     .with_iterations(20)
///     .with_learning_rate(1.0)
///     .with_seed(1234);
/// assert_eq!(config.dim, 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Hypervector dimensionality `d`.
    pub dim: usize,
    /// Number of passes over the training set.
    pub iterations: usize,
    /// The update coefficient `lambda`.
    pub learning_rate: f32,
    /// Seed for base-hypervector generation.
    pub seed: u64,
    /// Similarity metric for both training-time prediction and inference.
    pub similarity: Similarity,
    /// Early stopping: end training once the per-pass training accuracy
    /// has not improved for this many consecutive passes. `None` always
    /// runs the full iteration budget (the paper's fixed-20 schedule).
    pub patience: Option<usize>,
}

impl TrainConfig {
    /// Creates a configuration with paper-style defaults at the given
    /// dimensionality.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        TrainConfig {
            dim,
            iterations: 20,
            learning_rate: 1.0,
            seed: 0x5EED,
            similarity: Similarity::Dot,
            patience: None,
        }
    }

    /// Sets the number of training passes.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the learning rate `lambda`.
    #[must_use]
    pub fn with_learning_rate(mut self, rate: f32) -> Self {
        self.learning_rate = rate;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the similarity metric.
    #[must_use]
    pub fn with_similarity(mut self, similarity: Similarity) -> Self {
        self.similarity = similarity;
        self
    }

    /// Enables early stopping with the given patience (in passes).
    #[must_use]
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = Some(patience);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for a zero dimension, zero
    /// iterations, or a non-positive/non-finite learning rate.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(HdcError::InvalidConfig("dimension must be positive"));
        }
        if self.iterations == 0 {
            return Err(HdcError::InvalidConfig("iterations must be positive"));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(HdcError::InvalidConfig("learning rate must be positive"));
        }
        if self.patience == Some(0) {
            return Err(HdcError::InvalidConfig(
                "patience must be positive when set",
            ));
        }
        Ok(())
    }
}

/// Per-iteration training telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Number of class-hypervector updates (misclassified samples).
    pub updates: usize,
    /// Training-set accuracy measured during the pass.
    pub train_accuracy: f64,
    /// Held-out accuracy after the pass, when a validation set was
    /// supplied (the paper's Fig. 4 tracks both curves).
    pub validation_accuracy: Option<f64>,
}

/// Full training telemetry: one entry per iteration.
///
/// The update counts feed the runtime models (each update is a bundling
/// plus a detaching sweep on the host CPU), and the accuracy series is
/// exactly what the paper plots in Fig. 4.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainStats {
    /// Telemetry for each completed pass.
    pub iterations: Vec<IterationStats>,
}

impl TrainStats {
    /// Training accuracy of the final pass (`0.0` if none ran).
    pub fn final_train_accuracy(&self) -> f64 {
        self.iterations.last().map_or(0.0, |s| s.train_accuracy)
    }

    /// Total number of class-hypervector updates across all passes.
    pub fn total_updates(&self) -> usize {
        self.iterations.iter().map(|s| s.updates).sum()
    }
}

fn validate_labels(samples: usize, labels: &[usize], classes: usize) -> Result<()> {
    if labels.len() != samples {
        return Err(HdcError::LabelCount {
            samples,
            labels: labels.len(),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(HdcError::LabelOutOfRange {
            label: bad,
            classes,
        });
    }
    Ok(())
}

/// Trains class hypervectors on an already-encoded training set.
///
/// This is the paper's host-CPU training stage, factored out so the
/// framework can feed it hypervectors encoded on the accelerator. Starting
/// from all-zero class hypervectors, each pass classifies every sample
/// with the current model and, on a miss, bundles the sample into its true
/// class and detaches it from the predicted class:
///
/// ```text
/// C_a += lambda * E    (bundling, a = true class)
/// C_b -= lambda * E    (detaching, b = predicted class)
/// ```
///
/// # Errors
///
/// * [`HdcError::EmptyDataset`] — no samples or `classes == 0`.
/// * [`HdcError::LabelCount`] / [`HdcError::LabelOutOfRange`] — label
///   problems.
/// * [`HdcError::InvalidConfig`] — invalid configuration.
pub fn train_encoded(
    encoded: &Matrix,
    labels: &[usize],
    classes: usize,
    config: &TrainConfig,
) -> Result<(ClassHypervectors, TrainStats)> {
    train_encoded_tracked(encoded, labels, classes, config, None)
}

/// [`train_encoded`] with optional per-iteration validation tracking.
///
/// When a `(encoded_validation, validation_labels)` pair is supplied,
/// each iteration's [`IterationStats::validation_accuracy`] records the
/// held-out accuracy of the model as of the end of that pass — the data
/// behind the paper's Fig. 4 convergence curves.
///
/// # Errors
///
/// Same as [`train_encoded`], plus label/shape validation of the
/// validation pair.
pub fn train_encoded_tracked(
    encoded: &Matrix,
    labels: &[usize],
    classes: usize,
    config: &TrainConfig,
    validation: Option<(&Matrix, &[usize])>,
) -> Result<(ClassHypervectors, TrainStats)> {
    let d = encoded.cols();
    train_encoded_warm(
        encoded,
        labels,
        ClassHypervectors::zeros(d, classes),
        config,
        validation,
    )
}

/// [`train_encoded_tracked`] starting from *existing* class hypervectors
/// instead of zeros — the warm-start primitive behind incremental
/// retraining (each round of [`crate::regen`] refines the class
/// hypervectors that survive its dimension drop).
///
/// # Errors
///
/// Same as [`train_encoded_tracked`], plus [`HdcError::InvalidConfig`] if
/// the initial class hypervectors' width differs from the encoded width.
pub fn train_encoded_warm(
    encoded: &Matrix,
    labels: &[usize],
    initial: ClassHypervectors,
    config: &TrainConfig,
    validation: Option<(&Matrix, &[usize])>,
) -> Result<(ClassHypervectors, TrainStats)> {
    config.validate()?;
    let classes = initial.class_count();
    if encoded.rows() == 0 || classes == 0 {
        return Err(HdcError::EmptyDataset);
    }
    if initial.dim() != encoded.cols() {
        return Err(HdcError::InvalidConfig(
            "initial class hypervector width differs from encoded width",
        ));
    }
    validate_labels(encoded.rows(), labels, classes)?;
    if let Some((val, val_labels)) = validation {
        validate_labels(val.rows(), val_labels, classes)?;
    }

    let mut stats = TrainStats::default();
    // Scratch: class scores per sample; class matrix is d x k so scoring a
    // sample is k dots of length d done via transpose-free row walks.
    let mut class_rows: Vec<Vec<f32>> = (0..classes)
        .map(|j| {
            initial
                .class(j)
                .expect("class index in range by construction")
        })
        .collect();
    let mut best_accuracy = f64::MIN;
    let mut stale_passes = 0usize;

    for iteration in 0..config.iterations {
        let (updates, correct) = pass_over(&mut class_rows, encoded, labels, config.learning_rate)?;
        let validation_accuracy = match validation {
            Some((val, val_labels)) if !val_labels.is_empty() => {
                // Batched GEMM scoring: one matmul + row-argmax instead of
                // a per-sample dot loop.
                let predicted = predict_rows(&class_matrix(&class_rows), val)?;
                let val_correct = predicted
                    .iter()
                    .zip(val_labels)
                    .filter(|(p, l)| p == l)
                    .count();
                Some(val_correct as f64 / val_labels.len() as f64)
            }
            _ => None,
        };
        let train_accuracy = correct as f64 / labels.len() as f64;
        stats.iterations.push(IterationStats {
            iteration,
            updates,
            train_accuracy,
            validation_accuracy,
        });
        if let Some(patience) = config.patience {
            if train_accuracy > best_accuracy + 1e-12 {
                best_accuracy = train_accuracy;
                stale_passes = 0;
            } else {
                stale_passes += 1;
                if stale_passes >= patience {
                    break;
                }
            }
        }
    }

    Ok((
        ClassHypervectors::from_matrix(class_matrix(&class_rows)),
        stats,
    ))
}

/// One perceptron pass of `labels` over `encoded`, mutating the per-class
/// scratch rows in sample order. Returns `(updates, correct)`. Factored
/// out so the streamed trainer applies *exactly* the sequential update
/// discipline to each arriving chunk.
fn pass_over(
    class_rows: &mut [Vec<f32>],
    encoded: &Matrix,
    labels: &[usize],
    learning_rate: f32,
) -> Result<(usize, usize)> {
    let mut updates = 0usize;
    let mut correct = 0usize;
    for (row, &label) in labels.iter().enumerate() {
        let sample = encoded.row(row);
        let predicted = predict_one(class_rows, sample)?;
        if predicted == label {
            correct += 1;
        } else {
            updates += 1;
            ops::axpy(learning_rate, sample, &mut class_rows[label]).map_err(HdcError::from)?;
            ops::axpy(-learning_rate, sample, &mut class_rows[predicted])
                .map_err(HdcError::from)?;
        }
    }
    Ok((updates, correct))
}

/// Materializes the row-major per-class scratch as the `d x k` class
/// matrix expected by the GEMM scoring path.
fn class_matrix(class_rows: &[Vec<f32>]) -> Matrix {
    let k = class_rows.len();
    let d = class_rows.first().map_or(0, Vec::len);
    let mut m = Matrix::zeros(d, k);
    for (j, row) in class_rows.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m
}

pub(crate) fn predict_rows(class_matrix: &Matrix, encoded: &Matrix) -> Result<Vec<usize>> {
    if let Some(preds) = predict_rows_packed(class_matrix, encoded) {
        return Ok(preds);
    }
    let scores = gemm::matmul(encoded, class_matrix).map_err(HdcError::from)?;
    (0..scores.rows())
        .map(|r| ops::argmax(scores.row(r)).map_err(HdcError::from))
        .collect()
}

/// `true` when every value is bitwise `+1.0` or `-1.0` — the probe that
/// gates the packed fast path. Early-exits on the first other value, so
/// the common float-model case pays one comparison.
fn all_pm_one(values: &[f32]) -> bool {
    const MAGNITUDE_ONE: u32 = 0x3F80_0000; // |±1.0f32| bit pattern
    values
        .iter()
        .all(|&v| v.to_bits() & 0x7FFF_FFFF == MAGNITUDE_ONE)
}

/// Exact packed fast path: when both the encoded queries and the class
/// matrix hold only ±1 values, scoring runs as packed XOR+popcount
/// Hamming scans instead of a float GEMM.
///
/// This is bit-exact with the GEMM path: bipolar dot scores are integers
/// in `[-d, d]`, represented exactly in `f32` for every supported `d`,
/// maximum dot is minimum Hamming, and both argmaxes take the lowest
/// index on ties. Returns `None` (fall back to the GEMM) for non-bipolar
/// data — and for shape mismatches, so the GEMM path owns error
/// reporting.
fn predict_rows_packed(class_matrix: &Matrix, encoded: &Matrix) -> Option<Vec<usize>> {
    let d = class_matrix.rows();
    let k = class_matrix.cols();
    if d == 0 || k == 0 || encoded.rows() == 0 || encoded.cols() != d {
        return None;
    }
    if !all_pm_one(encoded.as_slice()) || !all_pm_one(class_matrix.as_slice()) {
        return None;
    }
    let classes: Vec<PackedBipolar> = (0..k)
        .map(|j| Some(PackedBipolar::from_signs(&class_matrix.col(j).ok()?)))
        .collect::<Option<_>>()?;
    let packed = PackedClassHypervectors::from_classes(&classes).ok()?;
    let queries: Vec<PackedBipolar> = (0..encoded.rows())
        .map(|r| PackedBipolar::from_signs(encoded.row(r)))
        .collect();
    packed.predict_batch(&queries).ok()
}

/// Batched dot-similarity classification: one GEMM of the encoded samples
/// against the class matrix followed by a row-argmax — the vectorized
/// replacement for per-sample score loops.
///
/// When both operands are exactly ±1 (a binarized model scoring
/// binarized queries), the scores are computed by the packed
/// XOR+popcount kernel instead; the result is bit-exact either way, and
/// the dispatch is visible in [`hd_tensor::kernels::stats`].
///
/// # Errors
///
/// Returns a wrapped shape error if `encoded`'s width differs from the
/// class hypervector dimensionality.
pub fn predict_batch(classes: &ClassHypervectors, encoded: &Matrix) -> Result<Vec<usize>> {
    predict_rows(classes.as_matrix(), encoded)
}

/// [`train_encoded`] over a stream of encoded chunks instead of one
/// materialized matrix — the consumer half of the pipelined
/// encode→update schedule, where the accelerator hands over encoded
/// chunks while later chunks are still in flight.
///
/// The first training pass runs *incrementally*, chunk by chunk, in
/// arrival order; because the perceptron update for sample `i` depends
/// only on samples seen before `i`, the result is bit-exact with running
/// [`train_encoded`] on the concatenated chunks. The chunks are retained
/// to run the remaining passes (and the patience schedule) identically
/// to the sequential trainer. Chunk widths must agree; labels cover the
/// concatenated stream in order.
///
/// # Errors
///
/// Same as [`train_encoded`], plus any error carried by a chunk (e.g. a
/// device fault surfaced mid-stream), and [`HdcError::InvalidConfig`]
/// for mismatched chunk widths.
pub fn train_encoded_streamed<I>(
    chunks: I,
    labels: &[usize],
    classes: usize,
    config: &TrainConfig,
) -> Result<(ClassHypervectors, TrainStats)>
where
    I: IntoIterator<Item = Result<Matrix>>,
{
    config.validate()?;
    if classes == 0 {
        return Err(HdcError::EmptyDataset);
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(HdcError::LabelOutOfRange {
            label: bad,
            classes,
        });
    }

    let mut class_rows: Vec<Vec<f32>> = Vec::new();
    let mut d = 0usize;
    let mut seen = 0usize;
    let mut pass0_updates = 0usize;
    let mut pass0_correct = 0usize;
    let mut data: Vec<f32> = Vec::new();
    for chunk in chunks {
        let chunk = chunk?;
        if chunk.rows() == 0 {
            continue;
        }
        if class_rows.is_empty() {
            d = chunk.cols();
            class_rows = vec![vec![0.0; d]; classes];
        } else if chunk.cols() != d {
            return Err(HdcError::InvalidConfig(
                "streamed chunk width differs from the first chunk",
            ));
        }
        let end = seen + chunk.rows();
        if end > labels.len() {
            return Err(HdcError::LabelCount {
                samples: end,
                labels: labels.len(),
            });
        }
        let (u, c) = pass_over(
            &mut class_rows,
            &chunk,
            &labels[seen..end],
            config.learning_rate,
        )?;
        pass0_updates += u;
        pass0_correct += c;
        seen = end;
        data.extend_from_slice(chunk.as_slice());
    }
    if seen == 0 {
        return Err(HdcError::EmptyDataset);
    }
    if seen != labels.len() {
        return Err(HdcError::LabelCount {
            samples: seen,
            labels: labels.len(),
        });
    }
    let encoded = Matrix::from_vec(seen, d, data).map_err(HdcError::from)?;

    let mut stats = TrainStats::default();
    let pass0_accuracy = pass0_correct as f64 / labels.len() as f64;
    stats.iterations.push(IterationStats {
        iteration: 0,
        updates: pass0_updates,
        train_accuracy: pass0_accuracy,
        validation_accuracy: None,
    });
    // Pass 0 always improves on the f64::MIN sentinel, so the sequential
    // trainer's patience state after its first pass is exactly this.
    let mut best_accuracy = pass0_accuracy;
    let mut stale_passes = 0usize;
    for iteration in 1..config.iterations {
        let (updates, correct) =
            pass_over(&mut class_rows, &encoded, labels, config.learning_rate)?;
        let train_accuracy = correct as f64 / labels.len() as f64;
        stats.iterations.push(IterationStats {
            iteration,
            updates,
            train_accuracy,
            validation_accuracy: None,
        });
        if let Some(patience) = config.patience {
            if train_accuracy > best_accuracy + 1e-12 {
                best_accuracy = train_accuracy;
                stale_passes = 0;
            } else {
                stale_passes += 1;
                if stale_passes >= patience {
                    break;
                }
            }
        }
    }

    Ok((
        ClassHypervectors::from_matrix(class_matrix(&class_rows)),
        stats,
    ))
}

fn predict_one(class_rows: &[Vec<f32>], sample: &[f32]) -> Result<usize> {
    let mut scores = vec![0.0f32; class_rows.len()];
    ops::dots(sample, class_rows, &mut scores).map_err(HdcError::from)?;
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (j, &score) in scores.iter().enumerate() {
        if score > best_score {
            best_score = score;
            best = j;
        }
    }
    Ok(best)
}

/// Single-pass online trainer: bundles every sample into its class on
/// first sight and applies the mispredict correction immediately.
///
/// This is the "OnlineHD"-style variant referenced by the paper's related
/// work — one pass, no stored encodings, suited to streaming edge data.
/// It usually reaches slightly lower accuracy than the iterative trainer
/// but costs a single pass.
///
/// # Examples
///
/// ```
/// use hd_tensor::Matrix;
/// use hdc::OnlineTrainer;
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let mut trainer = OnlineTrainer::new(64, 2, 1.0)?;
/// trainer.observe(&[1.0; 64], 0)?;
/// trainer.observe(&[-1.0; 64], 1)?;
/// let classes = trainer.finish();
/// assert_eq!(classes.class_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    class_rows: Vec<Vec<f32>>,
    learning_rate: f32,
    seen: usize,
}

impl OnlineTrainer {
    /// Creates a trainer for width-`d` hypervectors and `classes` classes.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for zero dimensions/classes or
    /// a non-positive learning rate.
    pub fn new(d: usize, classes: usize, learning_rate: f32) -> Result<Self> {
        if d == 0 || classes == 0 {
            return Err(HdcError::InvalidConfig(
                "dimension and classes must be positive",
            ));
        }
        if !learning_rate.is_finite() || learning_rate <= 0.0 {
            return Err(HdcError::InvalidConfig("learning rate must be positive"));
        }
        Ok(OnlineTrainer {
            class_rows: vec![vec![0.0; d]; classes],
            learning_rate,
            seen: 0,
        })
    }

    /// Number of samples observed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Feeds one encoded sample with its label.
    ///
    /// # Errors
    ///
    /// * [`HdcError::LabelOutOfRange`] — label beyond the class count.
    /// * Wrapped shape error — encoded width mismatch.
    pub fn observe(&mut self, encoded: &[f32], label: usize) -> Result<()> {
        if label >= self.class_rows.len() {
            return Err(HdcError::LabelOutOfRange {
                label,
                classes: self.class_rows.len(),
            });
        }
        let predicted = predict_one(&self.class_rows, encoded)?;
        if predicted != label {
            ops::axpy(self.learning_rate, encoded, &mut self.class_rows[label])
                .map_err(HdcError::from)?;
            ops::axpy(
                -self.learning_rate,
                encoded,
                &mut self.class_rows[predicted],
            )
            .map_err(HdcError::from)?;
        } else {
            // Reinforce correct predictions gently so the first pass still
            // accumulates class mass (pure perceptron updates would leave
            // never-missed classes at zero).
            ops::axpy(
                self.learning_rate * 0.1,
                encoded,
                &mut self.class_rows[label],
            )
            .map_err(HdcError::from)?;
        }
        self.seen += 1;
        Ok(())
    }

    /// Finalizes into class hypervectors.
    pub fn finish(self) -> ClassHypervectors {
        ClassHypervectors::from_matrix(class_matrix(&self.class_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;

    fn encoded_clusters(
        samples_per_class: usize,
        d: usize,
        classes: usize,
    ) -> (Matrix, Vec<usize>) {
        // Clusters around random unit directions in hypervector space.
        let mut rng = DetRng::new(7);
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..d).map(|_| rng.next_normal()).collect())
            .collect();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..samples_per_class {
                let row: Vec<f32> = center
                    .iter()
                    .map(|&v| v + 0.3 * rng.next_normal())
                    .collect();
                rows.push(row);
                labels.push(c);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn training_reaches_high_accuracy_on_clusters() {
        let (encoded, labels) = encoded_clusters(30, 128, 4);
        let config = TrainConfig::new(128).with_iterations(10);
        let (_, stats) = train_encoded(&encoded, &labels, 4, &config).unwrap();
        assert!(stats.final_train_accuracy() > 0.95, "{stats:?}");
    }

    #[test]
    fn accuracy_is_monotonic_ish_over_iterations() {
        let (encoded, labels) = encoded_clusters(30, 128, 4);
        let config = TrainConfig::new(128).with_iterations(8);
        let (_, stats) = train_encoded(&encoded, &labels, 4, &config).unwrap();
        let first = stats.iterations.first().unwrap().train_accuracy;
        let last = stats.final_train_accuracy();
        assert!(last >= first, "accuracy regressed from {first} to {last}");
    }

    #[test]
    fn updates_decrease_as_model_converges() {
        let (encoded, labels) = encoded_clusters(30, 256, 3);
        let config = TrainConfig::new(256).with_iterations(10);
        let (_, stats) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        let first = stats.iterations.first().unwrap().updates;
        let last = stats.iterations.last().unwrap().updates;
        assert!(last <= first);
    }

    #[test]
    fn label_validation() {
        let encoded = Matrix::zeros(3, 8);
        let config = TrainConfig::new(8).with_iterations(1);
        assert_eq!(
            train_encoded(&encoded, &[0, 1], 2, &config).unwrap_err(),
            HdcError::LabelCount {
                samples: 3,
                labels: 2
            }
        );
        assert_eq!(
            train_encoded(&encoded, &[0, 1, 2], 2, &config).unwrap_err(),
            HdcError::LabelOutOfRange {
                label: 2,
                classes: 2
            }
        );
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::new(0).validate().is_err());
        assert!(TrainConfig::new(8).with_iterations(0).validate().is_err());
        assert!(TrainConfig::new(8)
            .with_learning_rate(0.0)
            .validate()
            .is_err());
        assert!(TrainConfig::new(8)
            .with_learning_rate(f32::NAN)
            .validate()
            .is_err());
        assert!(TrainConfig::new(8).validate().is_ok());
    }

    #[test]
    fn empty_dataset_rejected() {
        let config = TrainConfig::new(8);
        assert_eq!(
            train_encoded(&Matrix::zeros(0, 8), &[], 2, &config).unwrap_err(),
            HdcError::EmptyDataset
        );
    }

    #[test]
    fn total_updates_sums_iterations() {
        let (encoded, labels) = encoded_clusters(10, 64, 2);
        let config = TrainConfig::new(64).with_iterations(3);
        let (_, stats) = train_encoded(&encoded, &labels, 2, &config).unwrap();
        let sum: usize = stats.iterations.iter().map(|i| i.updates).sum();
        assert_eq!(stats.total_updates(), sum);
    }

    #[test]
    fn online_trainer_learns_clusters() {
        let (encoded, labels) = encoded_clusters(40, 128, 3);
        let mut trainer = OnlineTrainer::new(128, 3, 1.0).unwrap();
        for (row, &label) in labels.iter().enumerate() {
            trainer.observe(encoded.row(row), label).unwrap();
        }
        assert_eq!(trainer.seen(), labels.len());
        let classes = trainer.finish();
        // Score each sample and count correct predictions.
        let mut correct = 0;
        for (row, &label) in labels.iter().enumerate() {
            let scores = classes.scores(encoded.row(row), Similarity::Dot).unwrap();
            if ops::argmax(&scores).unwrap() == label {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / labels.len() as f64 > 0.9,
            "online accuracy {correct}/{}",
            labels.len()
        );
    }

    #[test]
    fn online_trainer_validates() {
        assert!(OnlineTrainer::new(0, 2, 1.0).is_err());
        assert!(OnlineTrainer::new(8, 0, 1.0).is_err());
        assert!(OnlineTrainer::new(8, 2, -1.0).is_err());
        let mut t = OnlineTrainer::new(8, 2, 1.0).unwrap();
        assert!(matches!(
            t.observe(&[0.0; 8], 5).unwrap_err(),
            HdcError::LabelOutOfRange { .. }
        ));
    }

    #[test]
    fn warm_start_from_zeros_matches_cold_start() {
        let (encoded, labels) = encoded_clusters(20, 64, 3);
        let config = TrainConfig::new(64).with_iterations(4);
        let (cold, _) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        let (warm, _) = train_encoded_warm(
            &encoded,
            &labels,
            ClassHypervectors::zeros(64, 3),
            &config,
            None,
        )
        .unwrap();
        assert_eq!(cold.as_matrix(), warm.as_matrix());
    }

    #[test]
    fn warm_start_converges_faster_than_cold() {
        let (encoded, labels) = encoded_clusters(30, 128, 4);
        let config = TrainConfig::new(128).with_iterations(3);
        let (trained, _) = train_encoded(&encoded, &labels, 4, &config).unwrap();
        // Resuming from a trained model: first-pass updates are fewer
        // than a cold start's first pass.
        let one_pass = TrainConfig::new(128).with_iterations(1);
        let (_, cold_stats) = train_encoded(&encoded, &labels, 4, &one_pass).unwrap();
        let (_, warm_stats) =
            train_encoded_warm(&encoded, &labels, trained, &one_pass, None).unwrap();
        assert!(
            warm_stats.iterations[0].updates <= cold_stats.iterations[0].updates,
            "warm {} vs cold {}",
            warm_stats.iterations[0].updates,
            cold_stats.iterations[0].updates
        );
    }

    #[test]
    fn warm_start_validates_width() {
        let (encoded, labels) = encoded_clusters(5, 32, 2);
        let config = TrainConfig::new(32).with_iterations(1);
        let err = train_encoded_warm(
            &encoded,
            &labels,
            ClassHypervectors::zeros(16, 2),
            &config,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, HdcError::InvalidConfig(_)));
    }

    #[test]
    fn early_stopping_ends_before_budget_on_converged_data() {
        let (encoded, labels) = encoded_clusters(30, 256, 3);
        let config = TrainConfig::new(256).with_iterations(50).with_patience(2);
        let (_, stats) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        assert!(
            stats.iterations.len() < 50,
            "early stopping never fired: {} passes",
            stats.iterations.len()
        );
        // The result is still a converged model.
        assert!(stats.final_train_accuracy() > 0.95);
    }

    #[test]
    fn without_patience_full_budget_runs() {
        let (encoded, labels) = encoded_clusters(10, 64, 2);
        let config = TrainConfig::new(64).with_iterations(7);
        let (_, stats) = train_encoded(&encoded, &labels, 2, &config).unwrap();
        assert_eq!(stats.iterations.len(), 7);
    }

    #[test]
    fn zero_patience_rejected() {
        let mut config = TrainConfig::new(64);
        config.patience = Some(0);
        assert!(config.validate().is_err());
        assert!(TrainConfig::new(64).with_patience(1).validate().is_ok());
    }

    fn chunked<'a>(encoded: &'a Matrix, chunk: usize) -> impl Iterator<Item = Result<Matrix>> + 'a {
        (0..encoded.rows()).step_by(chunk).map(move |s| {
            let e = (s + chunk).min(encoded.rows());
            encoded.slice_rows(s, e).map_err(HdcError::from)
        })
    }

    #[test]
    fn streamed_training_matches_sequential_bit_exact() {
        let (encoded, labels) = encoded_clusters(20, 64, 3);
        for chunk in [1, 7, 16, 60, 100] {
            let config = TrainConfig::new(64).with_iterations(4);
            let (seq, seq_stats) = train_encoded(&encoded, &labels, 3, &config).unwrap();
            let (streamed, streamed_stats) =
                train_encoded_streamed(chunked(&encoded, chunk), &labels, 3, &config).unwrap();
            assert_eq!(seq.as_matrix(), streamed.as_matrix(), "chunk {chunk}");
            assert_eq!(seq_stats, streamed_stats, "chunk {chunk}");
        }
    }

    #[test]
    fn streamed_training_matches_under_patience() {
        let (encoded, labels) = encoded_clusters(30, 256, 3);
        let config = TrainConfig::new(256).with_iterations(50).with_patience(2);
        let (seq, seq_stats) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        let (streamed, streamed_stats) =
            train_encoded_streamed(chunked(&encoded, 13), &labels, 3, &config).unwrap();
        assert_eq!(seq.as_matrix(), streamed.as_matrix());
        assert_eq!(seq_stats, streamed_stats);
    }

    #[test]
    fn streamed_training_validates_the_stream() {
        let (encoded, labels) = encoded_clusters(5, 32, 2);
        let config = TrainConfig::new(32).with_iterations(1);
        // Too few labels for the stream.
        let err =
            train_encoded_streamed(chunked(&encoded, 4), &labels[..4], 2, &config).unwrap_err();
        assert!(matches!(err, HdcError::LabelCount { .. }));
        // Too many labels.
        let mut long = labels.clone();
        long.push(0);
        let err = train_encoded_streamed(chunked(&encoded, 4), &long, 2, &config).unwrap_err();
        assert!(matches!(err, HdcError::LabelCount { .. }));
        // A faulted chunk propagates.
        let err = train_encoded_streamed(
            vec![
                Ok(encoded.slice_rows(0, 4).unwrap()),
                Err(HdcError::Backend("device died".into())),
            ],
            &labels,
            2,
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, HdcError::Backend(_)));
        // Empty stream.
        let err = train_encoded_streamed(std::iter::empty(), &[], 2, &config).unwrap_err();
        assert_eq!(err, HdcError::EmptyDataset);
    }

    #[test]
    fn predict_batch_matches_per_sample_argmax() {
        let (encoded, labels) = encoded_clusters(20, 64, 3);
        let config = TrainConfig::new(64).with_iterations(5);
        let (classes, _) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        let batch = predict_batch(&classes, &encoded).unwrap();
        for (row, &p) in batch.iter().enumerate() {
            let scores = classes.scores(encoded.row(row), Similarity::Dot).unwrap();
            assert_eq!(p, ops::argmax(&scores).unwrap());
        }
    }

    #[test]
    fn gemm_validation_scoring_tracks_heldout_accuracy() {
        let (encoded, labels) = encoded_clusters(30, 128, 4);
        let (val, val_labels) = encoded_clusters(10, 128, 4);
        let config = TrainConfig::new(128).with_iterations(5);
        let (_, stats) =
            train_encoded_tracked(&encoded, &labels, 4, &config, Some((&val, &val_labels)))
                .unwrap();
        let last = stats.iterations.last().unwrap();
        assert!(last.validation_accuracy.unwrap() > 0.9, "{stats:?}");
    }

    #[test]
    fn learning_rate_scales_updates() {
        let (encoded, labels) = encoded_clusters(5, 32, 2);
        let c1 = TrainConfig::new(32)
            .with_iterations(1)
            .with_learning_rate(1.0);
        let c2 = TrainConfig::new(32)
            .with_iterations(1)
            .with_learning_rate(2.0);
        let (m1, _) = train_encoded(&encoded, &labels, 2, &c1).unwrap();
        let (m2, _) = train_encoded(&encoded, &labels, 2, &c2).unwrap();
        // With double the rate, the first-pass updates are exactly doubled.
        let a = m1.as_matrix();
        let b = m2.as_matrix();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((2.0 * x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
