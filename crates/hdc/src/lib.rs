//! Hyperdimensional computing core: non-linear encoding, class-hypervector
//! training, and similarity-based classification.
//!
//! This crate is the *algorithm* half of the paper, independent of any
//! accelerator: it implements exactly the three HDC operations of
//! Section III-A —
//!
//! 1. **Encoding** ([`NonlinearEncoder`]): an `n`-feature sample `F` maps
//!    to a `d`-dimensional hypervector `E = tanh(f1 B1 + ... + fn Bn)`
//!    where the base hypervectors `B_i ~ N(0, 1)^d` are nearly orthogonal,
//! 2. **Class-hypervector update** ([`train_encoded`]): mispredicted
//!    samples *bundle* into their true class (`C_a += lambda E`) and
//!    *detach* from the predicted one (`C_b -= lambda E`),
//! 3. **Classification** ([`HdcModel::predict`]): the class with the
//!    highest dot product `E . C` (the paper's approximation of cosine
//!    similarity) wins.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::{rng::DetRng, Matrix};
//! use hdc::{HdcModel, TrainConfig};
//!
//! # fn main() -> Result<(), hdc::HdcError> {
//! // Two trivially separable classes in 4 features.
//! let features = Matrix::from_rows(&[
//!     &[1.0, 1.0, 0.0, 0.0],
//!     &[0.9, 1.1, 0.1, 0.0],
//!     &[0.0, 0.0, 1.0, 1.0],
//!     &[0.1, 0.0, 0.9, 1.1],
//! ])?;
//! let labels = vec![0, 0, 1, 1];
//! let config = TrainConfig::new(512).with_iterations(5).with_seed(7);
//! let (model, stats) = HdcModel::fit(&features, &labels, 2, &config)?;
//! assert_eq!(model.predict(&features)?, labels);
//! assert!(stats.final_train_accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipolar;
mod encoder;
mod error;
mod exec;
mod model;
mod train;

pub mod eval;
pub mod regen;
pub mod serialize;

pub use encoder::{BaseHypervectors, Encoder, EncoderActivation, LinearEncoder, NonlinearEncoder};
pub use error::HdcError;
pub use exec::{Executor, HostExecutor};
pub use model::{ClassHypervectors, HdcModel};
pub use train::{
    predict_batch, train_encoded, train_encoded_tracked, train_encoded_warm, IterationStats,
    TrainConfig, TrainStats,
};

/// Convenience result alias for fallible HDC operations.
pub type Result<T> = std::result::Result<T, HdcError>;
