//! Synthetic dataset generators mirroring the paper's workloads.
//!
//! The paper evaluates on five real datasets (Table I): FACE, ISOLET,
//! UCIHAR, MNIST and PAMAP2. Those datasets are external artifacts we do
//! not ship; what the experiments actually depend on is their **shape**
//! (samples x features x classes — which drives every runtime result) and
//! the presence of **learnable class structure at a controllable
//! difficulty** (which drives the accuracy trends). This crate provides
//! seeded Gaussian class-cluster generators that reproduce both:
//!
//! * [`DatasetSpec`] + [`registry`] — the Table I inventory, one spec per
//!   paper dataset, with a per-dataset difficulty profile,
//! * [`SyntheticConfig`] / [`generate`] — the generator itself,
//! * [`Dataset`] / [`Split`] — in-memory train/test containers with
//!   z-score normalization,
//! * [`feature_sweep`] — the synthetic feature-count sweep of Fig. 10
//!   (20 to 700 input features).
//!
//! # Examples
//!
//! ```
//! use hd_datasets::{registry, SampleBudget};
//!
//! # fn main() -> Result<(), hd_datasets::DatasetError> {
//! let spec = registry::by_name("isolet").expect("isolet is registered");
//! assert_eq!(spec.features, 617);
//! assert_eq!(spec.classes, 26);
//! // Generate a reduced-size but shape-faithful instance for testing.
//! let data = spec.generate(SampleBudget::Reduced { train: 200, test: 50 }, 1)?;
//! assert_eq!(data.train.features.cols(), 617);
//! assert_eq!(data.train.labels.len(), 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod generate;
mod spec;

pub mod csv;
pub mod registry;

pub use dataset::{Dataset, Split};
pub use error::DatasetError;
pub use generate::{feature_sweep, generate, SyntheticConfig};
pub use spec::{DatasetSpec, DifficultyProfile, SampleBudget};

/// Convenience result alias for fallible dataset operations.
pub type Result<T> = std::result::Result<T, DatasetError>;
