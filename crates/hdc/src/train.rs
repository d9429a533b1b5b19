//! Class-hypervector training: the perceptron pass every trainer runs.
//!
//! A pass classifies each sample against the current class hypervectors
//! and, on a miss, bundles it into its true class and detaches it from
//! the predicted one. The class scratch is an
//! [`InterleavedClasses`], scored several samples per sweep over the
//! classes with speculative rescoring (see [`train_encoded_warm`]); every
//! prediction and class bit equals a sample-at-a-time pass with
//! `ops::dot` and `ops::axpy` on row-major classes.

use hd_tensor::interleaved::InterleavedClasses;
use hd_tensor::{gemm, ops, Matrix};

use crate::error::HdcError;
use crate::model::ClassHypervectors;
use crate::Result;

/// Configuration of the iterative class-hypervector training.
///
/// Defaults mirror the paper's setup: `d = 10000`, 20 iterations for a
/// fully trained model, a learning rate of 1.0.
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
/// instead of zeros — the one perceptron pass every trainer runs, and the
/// warm-start primitive behind incremental updates: each round of
/// [`crate::regen`] refines the class hypervectors that survive its
/// dimension drop, and a deployed model adapts to drifted data by one
/// pass seeded from its current class hypervectors.
///
/// Each pass scores the samples in blocks of
/// [`InterleavedClasses::sweep_rows`] (4 with AVX-512, 2 otherwise), one
/// sweep over the class-interleaved scratch per block, and rescores only
/// the classes an earlier miss in the block changed. The result is
/// bit-identical to scoring every sample against the current classes
/// with `ops::dot`, whichever tile runs.
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
    // The class matrix the pass started from; validation and the result
    // read the trained classes back into it.
    let mut class_matrix = initial.into_matrix();
    let mut classes = InterleavedClasses::from_matrix(&class_matrix);
    let mut scores = vec![0.0f32; InterleavedClasses::sweep_rows() * classes.class_count()];
    let mut best_accuracy = f64::MIN;
    let mut stale_passes = 0usize;

    for iteration in 0..config.iterations {
        let (updates, correct) = pass_over(
            &mut classes,
            &mut scores,
            encoded,
            labels,
            config.learning_rate,
        )?;
        let validation_accuracy = match validation {
            Some((val, val_labels)) if !val_labels.is_empty() => {
                // Batched GEMM scoring: one matmul + row-argmax instead of
                // a per-sample dot loop.
                classes
                    .write_to(&mut class_matrix)
                    .map_err(HdcError::from)?;
                let predicted = argmax_rows(val, &class_matrix)?;
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

    classes
        .write_to(&mut class_matrix)
        .map_err(HdcError::from)?;
    Ok((ClassHypervectors::from_matrix(class_matrix), stats))
}

/// One perceptron pass of `labels` over `encoded`, updating `classes` in
/// sample order. Returns `(updates, correct)`.
///
/// Samples are scored in blocks of [`InterleavedClasses::sweep_rows`],
/// one sweep over the classes per block, against the classes as they
/// stand at the block's first sample. The block is then walked in order:
/// a sample that misses changes only its true and its predicted class, so
/// only those are stale for the rest of the block and are rescored with
/// [`InterleavedClasses::dot`] before each later argmax. An untouched
/// class gives the same dot product either way, so every prediction and
/// update is bit-identical to scoring each sample against the current
/// classes. `scores` holds one block's scores.
fn pass_over(
    classes: &mut InterleavedClasses,
    scores: &mut [f32],
    encoded: &Matrix,
    labels: &[usize],
    learning_rate: f32,
) -> Result<(usize, usize)> {
    let (d, k) = (encoded.cols(), classes.class_count());
    let block_rows = scores.len() / k;
    let mut stale: Vec<usize> = Vec::with_capacity(2 * block_rows);
    let mut updates = 0usize;
    let mut correct = 0usize;
    for (b0, block_labels) in (0..labels.len())
        .step_by(block_rows)
        .zip(labels.chunks(block_rows))
    {
        let block = &encoded.as_slice()[b0 * d..(b0 + block_labels.len()) * d];
        let block_scores = &mut scores[..block_labels.len() * k];
        classes
            .scores(block, block_scores)
            .map_err(HdcError::from)?;
        stale.clear();
        for (r, &label) in block_labels.iter().enumerate() {
            let sample = &block[r * d..(r + 1) * d];
            let scores = &mut block_scores[r * k..(r + 1) * k];
            for &j in &stale {
                scores[j] = classes.dot(j, sample).map_err(HdcError::from)?;
            }
            let predicted = first_max(scores);
            if predicted == label {
                correct += 1;
            } else {
                updates += 1;
                classes
                    .axpy(label, learning_rate, sample)
                    .map_err(HdcError::from)?;
                classes
                    .axpy(predicted, -learning_rate, sample)
                    .map_err(HdcError::from)?;
                for j in [label, predicted] {
                    if !stale.contains(&j) {
                        stale.push(j);
                    }
                }
            }
        }
    }
    Ok((updates, correct))
}

/// The index of the first greatest score (`0` if none exceeds
/// `-inf`).
fn first_max(scores: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (j, &score) in scores.iter().enumerate() {
        if score > best_score {
            best_score = score;
            best = j;
        }
    }
    best
}

/// Batched dot-product classification: one GEMM of the encoded samples
/// against the class matrix followed by a row-argmax — the vectorized
/// replacement for per-sample score loops.
///
/// # Errors
///
/// Returns a wrapped shape error if `encoded`'s width differs from the
/// class hypervector dimensionality.
pub fn predict_batch(classes: &ClassHypervectors, encoded: &Matrix) -> Result<Vec<usize>> {
    argmax_rows(encoded, classes.as_matrix())
}

/// [`predict_batch`] against a bare `d x k` class matrix.
fn argmax_rows(encoded: &Matrix, class_matrix: &Matrix) -> Result<Vec<usize>> {
    let scores = gemm::matmul(encoded, class_matrix).map_err(HdcError::from)?;
    (0..scores.rows())
        .map(|r| ops::argmax(scores.row(r)).map_err(HdcError::from))
        .collect()
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

    #[test]
    fn predict_batch_matches_per_sample_argmax() {
        let (encoded, labels) = encoded_clusters(20, 64, 3);
        let config = TrainConfig::new(64).with_iterations(5);
        let (classes, _) = train_encoded(&encoded, &labels, 3, &config).unwrap();
        let batch = predict_batch(&classes, &encoded).unwrap();
        for (row, &p) in batch.iter().enumerate() {
            let scores = classes.scores(encoded.row(row)).unwrap();
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
