//! Bootstrap-aggregated (bagged) HDC training and sub-model merging.
//!
//! The paper's second contribution (Section III-B): instead of training
//! one full-width model for 20 iterations, train `M` *weak* sub-models —
//! each of width `d' = d / M`, on a bootstrap sample of `alpha x` the
//! training set (optionally with a `beta` fraction of the features), for
//! far fewer iterations — and let their consensus match the full model's
//! accuracy. Host-side update cost shrinks by the paper's factor
//!
//! ```text
//! C' = C x M x (d'/d) x (I'/I) x alpha x beta
//! ```
//!
//! and, crucially for the accelerator, the `M` sub-models **merge into a
//! single full-width inference model with zero overhead**: base matrices
//! stack horizontally (unsampled feature rows zeroed), class matrices
//! stack vertically, and one matrix pass computes the consensus score.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::Matrix;
//! use hd_bagging::{train_bagged, BaggingConfig};
//!
//! # fn main() -> Result<(), hd_bagging::BaggingError> {
//! let features = Matrix::from_rows(&[
//!     &[1.0, 0.0], &[0.9, 0.1], &[1.1, 0.0], &[0.0, 1.0], &[0.1, 0.9], &[0.0, 1.1],
//! ])?;
//! let labels = vec![0, 0, 0, 1, 1, 1];
//! let config = BaggingConfig::paper_defaults(1024); // M=4, d'=256, I'=6, alpha=0.6
//! let (bagged, _stats) = train_bagged(&features, &labels, 2, &config)?;
//! let merged = bagged.merge()?;
//! assert_eq!(merged.dim(), 1024);
//! assert_eq!(merged.predict(&features)?, labels);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod merge;
mod sample;
mod train;

pub use config::BaggingConfig;
pub use error::BaggingError;
pub use merge::{BaggedModel, SubModel};
pub use sample::{bootstrap_rows, feature_subset};
pub use train::{
    bagged_member_specs, members_graph, train_bagged, train_members_parallel, BaggingStats,
    MemberRecovery, MemberSpec, SubModelStats,
};

/// The paper's training-cost reduction estimate
/// `C'/C = M x (d'/d) x (I'/I) x alpha x beta`.
///
/// # Examples
///
/// The paper's operating point (M=4, d'=d/4, 6 of 20 iterations,
/// alpha=0.6, beta=1.0) cuts update cost to 18%:
///
/// ```
/// let ratio = hd_bagging::cost_ratio(4, 2500, 10_000, 6, 20, 0.6, 1.0);
/// assert!((ratio - 0.18).abs() < 1e-6);
/// ```
pub fn cost_ratio(
    sub_models: usize,
    sub_dim: usize,
    full_dim: usize,
    sub_iterations: usize,
    full_iterations: usize,
    dataset_ratio: f64,
    feature_ratio: f64,
) -> f64 {
    sub_models as f64
        * (sub_dim as f64 / full_dim as f64)
        * (sub_iterations as f64 / full_iterations as f64)
        * dataset_ratio
        * feature_ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ratio_identity_is_one() {
        assert_eq!(cost_ratio(1, 100, 100, 20, 20, 1.0, 1.0), 1.0);
    }

    #[test]
    fn cost_ratio_paper_point() {
        let r = cost_ratio(4, 2500, 10_000, 6, 20, 0.6, 1.0);
        assert!((r - 0.18).abs() < 1e-9);
    }

    #[test]
    fn feature_sampling_reduces_cost_further() {
        let without = cost_ratio(4, 2500, 10_000, 6, 20, 0.6, 1.0);
        let with = cost_ratio(4, 2500, 10_000, 6, 20, 0.6, 0.6);
        assert!(with < without);
    }
}
