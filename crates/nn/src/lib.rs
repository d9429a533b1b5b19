//! Wide fully-connected neural network IR, quantized execution,
//! serialization, and an accelerator compiler.
//!
//! The paper's central trick is to interpret the HDC model as a
//! *three-layer hyper-wide neural network*: the `n x d` base-hypervector
//! matrix becomes the first fully-connected layer, `tanh` the hidden
//! activation, and the `d x k` class-hypervector matrix the output layer.
//! That interpretation is what lets a stock DNN inference accelerator run
//! HDC. This crate is the model-format-and-compiler half of that story —
//! the stand-in for TensorFlow Lite plus the Edge TPU compiler:
//!
//! * [`Model`] / [`ModelBuilder`] — the float model graph with shape
//!   inference,
//! * [`QuantizedModel`] — post-training int8 quantization and the one
//!   int8 stage loop, which the `tpu-sim` device runs too,
//! * [`absint`] — interval abstract interpretation proving the int8
//!   datapath cannot overflow its i32 accumulators,
//! * [`serialize`] — a compact binary `.wnn` container,
//! * [`compile`] — lowering for an accelerator target, including the
//!   *unsupported-op* diagnostics that force the paper's class-hypervector
//!   update onto the host CPU.
//!
//! # Examples
//!
//! Building the paper's encoder half (inputs -> wide hidden layer):
//!
//! ```
//! use hd_tensor::{rng::DetRng, Matrix};
//! use wide_nn::{Activation, ModelBuilder};
//!
//! # fn main() -> Result<(), wide_nn::NnError> {
//! let mut rng = DetRng::new(7);
//! let base = Matrix::random_normal(64, 512, &mut rng); // n x d
//! let encoder = ModelBuilder::new(64)
//!     .fully_connected(base)?
//!     .activation(Activation::Tanh)
//!     .build()?;
//! assert_eq!(encoder.output_dim(), 512);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod layer;
mod model;
mod quantized;

pub mod absint;
pub mod compile;
pub mod diag;
pub mod serialize;
pub mod verify;

pub use absint::{analyze_ranges, Interval, RangeReport, StageRange};
pub use builder::ModelBuilder;
pub use compile::{CompiledModel, TargetSpec};
pub use diag::{Diagnostic, Severity, Site};
pub use error::NnError;
pub use layer::{Activation, ElementwiseOp, Layer};
pub use model::Model;
pub use quantized::{QuantStage, QuantizedModel};
pub use verify::{verify_graph, verify_model, VerifyReport};

/// Convenience result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, NnError>;
