use crate::dataset::Dataset;
use crate::generate::{generate, SyntheticConfig};
use crate::Result;

/// Difficulty profile of a synthetic stand-in: how separable the class
/// clusters are.
///
/// `separation` scales the distance between class centers and `noise`
/// the within-class spread; `informative_fraction` controls how many
/// features actually carry class signal (the rest are pure noise, as in
/// real sensor data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifficultyProfile {
    /// Scale of class-center separation.
    pub separation: f32,
    /// Within-class noise standard deviation.
    pub noise: f32,
    /// Fraction of features carrying class signal, in `(0, 1]`.
    pub informative_fraction: f32,
}

impl Default for DifficultyProfile {
    fn default() -> Self {
        DifficultyProfile {
            separation: 1.0,
            noise: 1.0,
            informative_fraction: 0.5,
        }
    }
}

/// How many samples to generate relative to the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleBudget {
    /// The full Table I sample count (train) plus a 20% test split.
    /// Appropriate for analytic-runtime computations; functional runs at
    /// this size can take minutes to hours.
    Paper,
    /// An explicit reduced size for functional (accuracy) experiments.
    Reduced {
        /// Training samples to generate.
        train: usize,
        /// Test samples to generate.
        test: usize,
    },
}

/// Static description of one paper dataset (a Table I row) plus the
/// difficulty profile of its synthetic stand-in.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Lower-case dataset name (`"mnist"`, `"isolet"`, ...).
    pub name: &'static str,
    /// Table I sample count (used as the training-set size).
    pub train_samples: usize,
    /// Held-out test samples at paper scale (Table I count / 5).
    pub test_samples: usize,
    /// Input features per sample (`n`).
    pub features: usize,
    /// Number of classes (`k`).
    pub classes: usize,
    /// Table I description string.
    pub description: &'static str,
    /// Synthetic difficulty profile.
    pub difficulty: DifficultyProfile,
}

impl DatasetSpec {
    /// Generates a synthetic instance of this dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`](crate::DatasetError) for a
    /// zero sample budget.
    pub fn generate(&self, budget: SampleBudget, seed: u64) -> Result<Dataset> {
        let (train, test) = match budget {
            SampleBudget::Paper => (self.train_samples, self.test_samples),
            SampleBudget::Reduced { train, test } => (train, test),
        };
        let config = SyntheticConfig {
            name: self.name.to_owned(),
            train_samples: train,
            test_samples: test,
            features: self.features,
            classes: self.classes,
            difficulty: self.difficulty,
            seed,
        };
        generate(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn generate_reduced_respects_budget() {
        let spec = registry::by_name("mnist").unwrap();
        let d = spec
            .generate(
                SampleBudget::Reduced {
                    train: 50,
                    test: 10,
                },
                7,
            )
            .unwrap();
        assert_eq!(d.train.len(), 50);
        assert_eq!(d.test.len(), 10);
        assert_eq!(d.feature_count(), 784);
        assert_eq!(d.classes, 10);
    }

    #[test]
    fn paper_budget_uses_table_i_counts() {
        let spec = registry::by_name("pamap2").unwrap();
        // PAMAP2 is small enough (27 features) to generate at paper scale
        // quickly.
        let d = spec.generate(SampleBudget::Paper, 7).unwrap();
        assert_eq!(d.train.len(), 32_768);
        assert_eq!(d.test.len(), 32_768 / 5);
    }

    #[test]
    fn default_difficulty_is_moderate() {
        let p = DifficultyProfile::default();
        assert!(p.separation > 0.0);
        assert!(p.informative_fraction <= 1.0);
    }
}
