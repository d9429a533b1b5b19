//! Affine int8 quantization substrate.
//!
//! The Edge TPU that the paper targets executes models in 8-bit integer
//! arithmetic: weights and activations are stored as `i8` with an affine
//! mapping `real = scale * (q - zero_point)`, matrix multiplies accumulate
//! in `i32`, and results are *requantized* back to `i8`. This crate
//! implements that scheme from scratch so that the simulated accelerator
//! (`tpu-sim`) exhibits genuine quantization error, exactly like the
//! hardware path in the paper's accuracy figures (Fig. 7).
//!
//! * [`QuantParams`] — the affine mapping (scale, zero-point),
//! * [`QuantizedMatrix`] — an `i8` matrix tagged with its mapping,
//! * [`gemm`] — quantized matrix multiplication with `i32` accumulators,
//! * [`Calibrator`] — min/max range calibration (the TFLite post-training
//!   default),
//! * [`lut`] — the 256-entry activation lookup table used for `tanh` on
//!   the accelerator,
//! * [`narrow`] — saturating integer narrowing, the sanctioned way to
//!   shrink accumulators in hot-path kernels (`no-unchecked-narrowing`).
//!
//! # Examples
//!
//! ```
//! use hd_quant::{QuantParams, QuantizedMatrix};
//! use hd_tensor::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let weights = Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 0.75]])?;
//! let params = QuantParams::from_min_max(-1.0, 1.0)?;
//! let q = QuantizedMatrix::quantize(&weights, params);
//! let restored = q.dequantize();
//! assert!(weights.frobenius_distance(&restored)? < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod error;
mod matrix;
mod params;

pub mod gemm;
pub mod lut;
pub mod narrow;
pub mod per_channel;

pub use calibrate::Calibrator;
pub use error::QuantError;
pub use matrix::{PackedQuantizedMatrix, QuantizedMatrix};
pub use params::QuantParams;

/// Convenience result alias for fallible quantization operations.
pub type Result<T> = std::result::Result<T, QuantError>;
