//! Dimension regeneration: iteratively retire uninformative hypervector
//! dimensions and redraw them.
//!
//! In a trained HDC model, dimension `i` contributes to classification
//! through row `i` of the class matrix; if that row is nearly identical
//! across classes, the dimension separates nothing and its capacity is
//! wasted. The regeneration loop (in the spirit of the NeuralHD /
//! adaptive-basis line of work the paper's related work cites) scores
//! every dimension by the *variance of its class-hypervector row*,
//! redraws the base hypervector column for the weakest fraction, and
//! retrains briefly — recovering accuracy that a fixed random basis
//! leaves on the table, which matters most at small `d` (edge-memory
//! constrained deployments).
//!
//! # Examples
//!
//! ```
//! use hd_tensor::{rng::DetRng, Matrix};
//! use hdc::regen::{regenerate, RegenConfig};
//! use hdc::{HdcModel, TrainConfig};
//!
//! # fn main() -> Result<(), hdc::HdcError> {
//! let mut rng = DetRng::new(4);
//! let mut features = Matrix::random_normal(60, 10, &mut rng);
//! let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
//! for (i, &l) in labels.iter().enumerate() {
//!     features.row_mut(i)[l] += 2.0;
//! }
//! let (model, _) = HdcModel::fit(&features, &labels, 3, &TrainConfig::new(128))?;
//! let (better, stats) = regenerate(&model, &features, &labels, &RegenConfig::default())?;
//! assert_eq!(better.dim(), model.dim());
//! assert_eq!(stats.rounds.len(), 2);
//! # Ok(())
//! # }
//! ```

use hd_tensor::rng::DetRng;
use hd_tensor::{stats, Matrix};

use crate::encoder::Encoder;

use crate::encoder::{BaseHypervectors, NonlinearEncoder};
use crate::error::HdcError;
use crate::model::{ClassHypervectors, HdcModel};
use crate::train::{train_encoded_warm, TrainConfig};
use crate::Result;

/// Configuration of the regeneration loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RegenConfig {
    /// Fraction of dimensions redrawn per round, in `(0, 1)`.
    pub regen_fraction: f64,
    /// Retraining passes after each regeneration.
    pub iterations_per_round: usize,
    /// Number of regeneration rounds.
    pub rounds: usize,
    /// Update coefficient for the retraining passes.
    pub learning_rate: f32,
    /// Seed for the redrawn base columns.
    pub seed: u64,
}

impl Default for RegenConfig {
    fn default() -> Self {
        RegenConfig {
            regen_fraction: 0.1,
            iterations_per_round: 3,
            rounds: 2,
            learning_rate: 1.0,
            seed: 0x4E64,
        }
    }
}

impl RegenConfig {
    fn validate(&self) -> Result<()> {
        if !(self.regen_fraction > 0.0 && self.regen_fraction < 1.0) {
            return Err(HdcError::InvalidConfig("regen_fraction must be in (0, 1)"));
        }
        if self.iterations_per_round == 0 || self.rounds == 0 {
            return Err(HdcError::InvalidConfig(
                "iterations_per_round and rounds must be positive",
            ));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(HdcError::InvalidConfig("learning rate must be positive"));
        }
        Ok(())
    }
}

/// Telemetry of one regeneration round.
#[derive(Debug, Clone, PartialEq)]
pub struct RegenRound {
    /// Zero-based round index.
    pub round: usize,
    /// Dimensions redrawn this round.
    pub regenerated: usize,
    /// Training accuracy after the round's retraining passes.
    pub train_accuracy: f64,
}

/// Full regeneration telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegenStats {
    /// One entry per round.
    pub rounds: Vec<RegenRound>,
}

/// Scores every dimension by the variance of its class-hypervector row;
/// near-zero variance means the dimension does not separate classes.
pub fn dimension_scores(classes: &ClassHypervectors) -> Vec<f32> {
    let m = classes.as_matrix();
    (0..m.rows()).map(|i| stats::variance(m.row(i))).collect()
}

/// Runs the regeneration loop on a trained model.
///
/// # Errors
///
/// * [`HdcError::InvalidConfig`] — bad configuration.
/// * Label/shape errors propagated from encoding and retraining.
pub fn regenerate(
    model: &HdcModel,
    features: &Matrix,
    labels: &[usize],
    config: &RegenConfig,
) -> Result<(HdcModel, RegenStats)> {
    config.validate()?;
    let d = model.dim();
    let redraw_count = ((d as f64 * config.regen_fraction).round() as usize).clamp(1, d - 1);

    let mut base = model.encoder().base().as_matrix().clone();
    let mut classes = model.classes().clone();
    let mut rng = DetRng::new(config.seed);
    let mut stats_out = RegenStats::default();

    for round in 0..config.rounds {
        // Rank dimensions by discriminative power.
        let scores = dimension_scores(&classes);
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let victims = &order[..redraw_count];

        // Redraw base columns and clear the corresponding class rows.
        let mut class_matrix = classes.clone().into_matrix();
        for &dim in victims {
            for f in 0..base.rows() {
                base[(f, dim)] = rng.next_normal();
            }
            for k in 0..class_matrix.cols() {
                class_matrix[(dim, k)] = 0.0;
            }
        }

        // Re-encode with the updated basis and retrain warm.
        let encoder = NonlinearEncoder::new(BaseHypervectors::from_matrix(base.clone()));
        let encoded = encoder.encode(features)?;
        let train_config = TrainConfig::new(d)
            .with_iterations(config.iterations_per_round)
            .with_learning_rate(config.learning_rate)
            .with_seed(config.seed.wrapping_add(round as u64));
        let (retrained, train_stats) = train_encoded_warm(
            &encoded,
            labels,
            ClassHypervectors::from_matrix(class_matrix),
            &train_config,
            None,
        )?;
        classes = retrained;
        stats_out.rounds.push(RegenRound {
            round,
            regenerated: redraw_count,
            train_accuracy: train_stats.final_train_accuracy(),
        });
    }

    let final_model = HdcModel::from_parts(
        NonlinearEncoder::new(BaseHypervectors::from_matrix(base)),
        classes,
        model.similarity(),
    )?;
    Ok((final_model, stats_out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::train::TrainConfig;

    fn noisy_dataset(seed: u64) -> (Matrix, Vec<usize>, Matrix, Vec<usize>) {
        // A harder task: 4 classes, weak signal, at tiny d regeneration
        // has headroom to help.
        let mut rng = DetRng::new(seed);
        let n = 16;
        let centers: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..n).map(|_| 0.6 * rng.next_normal()).collect())
            .collect();
        let make = |count: usize, rng: &mut DetRng| {
            let mut m = Matrix::zeros(count, n);
            let mut labels = Vec::with_capacity(count);
            for s in 0..count {
                let c = s % 4;
                labels.push(c);
                for (v, center) in m.row_mut(s).iter_mut().zip(&centers[c]) {
                    *v = center + rng.next_normal();
                }
            }
            (m, labels)
        };
        let (train_f, train_l) = make(240, &mut rng);
        let (test_f, test_l) = make(120, &mut rng);
        (train_f, train_l, test_f, test_l)
    }

    #[test]
    fn regeneration_does_not_hurt_and_usually_helps_at_small_d() {
        let (train_f, train_l, test_f, test_l) = noisy_dataset(1);
        let config = TrainConfig::new(96).with_iterations(6).with_seed(2);
        let (model, _) = HdcModel::fit(&train_f, &train_l, 4, &config).unwrap();
        let before = eval::accuracy(&model.predict(&test_f).unwrap(), &test_l).unwrap();

        let regen_config = RegenConfig {
            regen_fraction: 0.2,
            iterations_per_round: 4,
            rounds: 3,
            ..RegenConfig::default()
        };
        let (better, stats) = regenerate(&model, &train_f, &train_l, &regen_config).unwrap();
        let after = eval::accuracy(&better.predict(&test_f).unwrap(), &test_l).unwrap();
        assert!(
            after >= before - 0.05,
            "regeneration regressed: {before} -> {after}"
        );
        assert_eq!(stats.rounds.len(), 3);
        assert!(stats.rounds.iter().all(|r| r.regenerated == 19)); // 20% of 96
    }

    #[test]
    fn dimension_scores_flag_dead_dimensions() {
        // Construct classes where dimension 0 is constant (useless) and
        // dimension 1 differs strongly.
        // 2 x 2 class matrix (d x k): each row is one dimension's value
        // across the two classes.
        let m = Matrix::from_rows(&[&[5.0, 5.0], &[-3.0, 3.0]]).unwrap();
        let classes = ClassHypervectors::from_matrix(m);
        let scores = dimension_scores(&classes);
        assert!(scores[0] < 1e-9, "constant row must score ~0: {scores:?}");
        assert!(
            scores[1] > 1.0,
            "discriminative row must score high: {scores:?}"
        );
    }

    #[test]
    fn preserves_model_shape_and_similarity() {
        let (train_f, train_l, _, _) = noisy_dataset(3);
        let config = TrainConfig::new(64).with_iterations(3).with_seed(4);
        let (model, _) = HdcModel::fit(&train_f, &train_l, 4, &config).unwrap();
        let (regen, _) = regenerate(&model, &train_f, &train_l, &RegenConfig::default()).unwrap();
        assert_eq!(regen.dim(), 64);
        assert_eq!(regen.feature_count(), 16);
        assert_eq!(regen.class_count(), 4);
        assert_eq!(regen.similarity(), model.similarity());
        // The basis actually changed.
        assert_ne!(
            regen.encoder().base().as_matrix(),
            model.encoder().base().as_matrix()
        );
    }

    #[test]
    fn config_validation() {
        let ok = RegenConfig::default();
        assert!(ok.validate().is_ok());
        let bad = RegenConfig {
            regen_fraction: 0.0,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = RegenConfig {
            regen_fraction: 1.0,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = RegenConfig {
            rounds: 0,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = RegenConfig {
            iterations_per_round: 0,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = RegenConfig {
            learning_rate: 0.0,
            ..ok
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let (train_f, train_l, _, _) = noisy_dataset(5);
        let config = TrainConfig::new(64).with_iterations(3).with_seed(6);
        let (model, _) = HdcModel::fit(&train_f, &train_l, 4, &config).unwrap();
        let (a, _) = regenerate(&model, &train_f, &train_l, &RegenConfig::default()).unwrap();
        let (b, _) = regenerate(&model, &train_f, &train_l, &RegenConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
