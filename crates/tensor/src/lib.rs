//! Dense tensor and linear-algebra substrate for the HyperEdge workspace.
//!
//! Everything in HyperEdge — hyperdimensional encoding, the wide-NN
//! interpretation of an HDC model, the systolic-array simulator's reference
//! path, and the host CPU execution engine — bottoms out in dense row-major
//! `f32` matrices and a small set of vector kernels. This crate provides:
//!
//! * [`Matrix`] — an owned, row-major, dense `f32` matrix with shape-checked
//!   constructors, views, and stacking operations,
//! * [`convert`] — the int8 conversion kernel: `f32 → i8` quantization
//!   and `i32 → i8` requantization over slices, at the host's widest
//!   vector width (AVX-512, AVX2 or the baseline), one exact formula,
//! * [`gemm`] — packed, register-tiled, optionally multi-threaded matrix
//!   multiplication (`f32` and `i8`×`i8`→`i32`, AVX2 tiles where the host
//!   has them),
//! * [`interleaved`] — class rows stored class-interleaved for the
//!   perceptron pass, scored several samples per sweep (AVX-512 and AVX2
//!   tiles where the host has them), bit-identical to [`ops::dot`],
//! * [`packed`] — bit-packed ±1 bipolar kernels: XOR+popcount scoring and
//!   vertical-counter majority bundling,
//! * [`kernels`] — kernel-selection switches (`--no-simd` / `HD_NO_SIMD`)
//!   and process-wide kernel counters,
//! * [`ops`] — vector kernels (dot, norms, `tanh`, argmax, axpy, cosine),
//! * [`rng`] — a deterministic random number generator with normal sampling,
//!   used everywhere a paper experiment needs reproducible randomness,
//! * [`stats`] — summary statistics used by quantization calibration.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::{Matrix, gemm};
//!
//! # fn main() -> Result<(), hd_tensor::TensorError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = gemm::matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD tiles in `gemm::simd` (the
// GEMMs' and the interleaved class scoring's) need `std::arch`
// intrinsics, and the conversion kernel's AVX2 and AVX-512 loops need
// `#[target_feature]` functions, all behind a scoped
// `#[allow(unsafe_code)]`; everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;

pub mod convert;
pub mod gemm;
pub mod interleaved;
pub mod kernels;
pub mod ops;
pub mod packed;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use matrix::Matrix;

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
