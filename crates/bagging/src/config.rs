use crate::error::BaggingError;

/// Configuration of bagged HDC training.
///
/// The paper's experimental operating point ("we trained 4 sub-models
/// with hypervector width d = 2500 for 6 iterations ... dataset sampling
/// ratio as 0.6 ... feature sampling ratio is disabled") is available as
/// [`BaggingConfig::paper_defaults`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaggingConfig {
    /// Number of sub-models `M`.
    pub sub_models: usize,
    /// Per-sub-model hypervector width `d'`. The merged inference model
    /// has width `M * d'`.
    pub sub_dim: usize,
    /// Training iterations per sub-model `I'`.
    pub iterations: usize,
    /// Bootstrap dataset sampling ratio `alpha` in `(0, 1]`: each
    /// sub-model trains on `alpha * samples` rows drawn with replacement.
    pub dataset_ratio: f64,
    /// Feature sampling ratio `beta` in `(0, 1]`: each sub-model sees a
    /// random `beta` fraction of the features (1.0 disables sampling).
    pub feature_ratio: f64,
    /// Update coefficient `lambda`.
    pub learning_rate: f32,
    /// Master seed; sub-model `m` derives an independent stream from it.
    pub seed: u64,
}

impl BaggingConfig {
    /// The paper's configuration scaled to a total merged width of
    /// `full_dim`: `M = 4`, `d' = full_dim / 4`, `I' = 6`,
    /// `alpha = 0.6`, `beta = 1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `full_dim` is not divisible by 4.
    #[must_use]
    pub fn paper_defaults(full_dim: usize) -> Self {
        assert_eq!(full_dim % 4, 0, "full_dim must be divisible by M = 4");
        BaggingConfig {
            sub_models: 4,
            sub_dim: full_dim / 4,
            iterations: 6,
            dataset_ratio: 0.6,
            feature_ratio: 1.0,
            learning_rate: 1.0,
            seed: 0xBA66,
        }
    }

    /// The merged inference width `M * d'`.
    pub fn merged_dim(&self) -> usize {
        self.sub_models * self.sub_dim
    }

    /// Sets the number of sub-models.
    #[must_use]
    pub fn with_sub_models(mut self, m: usize) -> Self {
        self.sub_models = m;
        self
    }

    /// Sets the per-sub-model width.
    #[must_use]
    pub fn with_sub_dim(mut self, d: usize) -> Self {
        self.sub_dim = d;
        self
    }

    /// Sets the per-sub-model iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the dataset sampling ratio `alpha`.
    #[must_use]
    pub fn with_dataset_ratio(mut self, alpha: f64) -> Self {
        self.dataset_ratio = alpha;
        self
    }

    /// Sets the feature sampling ratio `beta`.
    #[must_use]
    pub fn with_feature_ratio(mut self, beta: f64) -> Self {
        self.feature_ratio = beta;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`BaggingError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), BaggingError> {
        if self.sub_models == 0 {
            return Err(BaggingError::InvalidConfig("sub_models is zero".into()));
        }
        if self.sub_dim == 0 {
            return Err(BaggingError::InvalidConfig("sub_dim is zero".into()));
        }
        if self.iterations == 0 {
            return Err(BaggingError::InvalidConfig("iterations is zero".into()));
        }
        if !(self.dataset_ratio > 0.0 && self.dataset_ratio <= 1.0) {
            return Err(BaggingError::InvalidConfig(format!(
                "dataset_ratio {} outside (0, 1]",
                self.dataset_ratio
            )));
        }
        if !(self.feature_ratio > 0.0 && self.feature_ratio <= 1.0) {
            return Err(BaggingError::InvalidConfig(format!(
                "feature_ratio {} outside (0, 1]",
                self.feature_ratio
            )));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(BaggingError::InvalidConfig(
                "learning_rate must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = BaggingConfig::paper_defaults(10_000);
        assert_eq!(c.sub_models, 4);
        assert_eq!(c.sub_dim, 2_500);
        assert_eq!(c.iterations, 6);
        assert_eq!(c.dataset_ratio, 0.6);
        assert_eq!(c.feature_ratio, 1.0);
        assert_eq!(c.merged_dim(), 10_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn paper_defaults_require_divisible_dim() {
        let _ = BaggingConfig::paper_defaults(10_001);
    }

    #[test]
    fn validation_catches_each_field() {
        let ok = BaggingConfig::paper_defaults(1000);
        assert!(ok.clone().with_sub_models(0).validate().is_err());
        assert!(ok.clone().with_sub_dim(0).validate().is_err());
        assert!(ok.clone().with_iterations(0).validate().is_err());
        assert!(ok.clone().with_dataset_ratio(0.0).validate().is_err());
        assert!(ok.clone().with_dataset_ratio(1.2).validate().is_err());
        assert!(ok.clone().with_feature_ratio(-0.1).validate().is_err());
        let mut bad = ok.clone();
        bad.learning_rate = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = BaggingConfig::paper_defaults(1000)
            .with_sub_models(2)
            .with_sub_dim(100)
            .with_iterations(3)
            .with_dataset_ratio(0.5)
            .with_feature_ratio(0.8)
            .with_seed(9);
        assert_eq!(c.merged_dim(), 200);
        assert_eq!(c.seed, 9);
        assert!(c.validate().is_ok());
    }
}
