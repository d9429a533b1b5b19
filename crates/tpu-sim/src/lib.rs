//! Cycle-approximate systolic-array edge accelerator simulator.
//!
//! The paper runs HDC on a Google Edge TPU attached over USB. That part is
//! hardware we do not have, so this crate builds the closest synthetic
//! equivalent from first principles:
//!
//! * [`SystolicArray`] — the cycle model of a weight-stationary grid of
//!   int8 multiply-accumulate processing elements with pipeline
//!   fill/drain (the Edge TPU's MXU),
//! * [`HostLinkConfig`] — a USB-like channel with finite bandwidth and a
//!   fixed per-invocation dispatch latency,
//! * [`Device`] — the user-facing accelerator: load a compiled model once
//!   (one-time cost, like the paper's model-preparation phase; its
//!   weights must fit the on-chip parameter buffer, 8 MiB on the real
//!   device), then
//!   invoke it on batches and receive both **functionally exact int8
//!   outputs** (the model's own int8 stage loop,
//!   [`wide_nn::QuantizedModel::run_quantized`], which the host fallback
//!   runs too) and a per-invocation [`InvokeStats`] timing breakdown,
//! * [`timing`] — the analytic cost law the device charges, usable
//!   standalone to estimate paper-scale workloads without executing them.
//!
//! # Timing model
//!
//! One invocation of a loaded model on `s` samples has four legs
//! ([`timing::stage_costs`]):
//!
//! ```text
//! overhead = per-invoke latency                      (driver + USB dispatch)
//! in       = in_bytes / bandwidth                    (s x input_dim, int8)
//! compute  = ( sum_fc  tiles_k*tiles_n*(s + R + C)   (MXU streaming)
//!            + sum_lut ceil(s*width / C) ) / f       (activation unit)
//! out      = out_bytes / bandwidth                   (s x output_dim, int8)
//! ```
//!
//! with `R x C` the array shape and `f` the clock. The device runs them
//! double-buffered, so an invocation takes
//! `overhead + max(in + out, compute)`; the legs run back to back would
//! take their sum ([`InvokeStats::serial_elapsed_s`]). Loading a model costs
//! `param_bytes / bandwidth` plus `tiles * R / f` of weight-load cycles,
//! charged once — matching the paper's observation that model preparation
//! is a one-time cost excluded from inference runtime. [`timing::load_cost`]
//! is that formula for the device and the paper-scale predictors alike.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::{rng::DetRng, Matrix};
//! use tpu_sim::{Device, DeviceConfig};
//! use wide_nn::{compile, Activation, ModelBuilder, TargetSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = DetRng::new(5);
//! let model = ModelBuilder::new(16)
//!     .fully_connected(Matrix::random_normal(16, 64, &mut rng))?
//!     .activation(Activation::Tanh)
//!     .build()?;
//! let calib = Matrix::random_normal(8, 16, &mut rng);
//! let compiled = compile::compile(&model, &calib, &TargetSpec::default())?;
//!
//! let device = Device::new(DeviceConfig::default());
//! device.load_model(compiled)?;
//! let (out, stats) = device.invoke_overlapped(&calib)?;
//! assert_eq!(out.shape(), (8, 64));
//! assert!(stats.total_s > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod error;
mod fault;
mod systolic;

pub mod timing;

pub use config::{DeviceConfig, HostLinkConfig};
pub use device::{Device, TimingLedger};
pub use error::SimError;
pub use fault::{FaultConfig, FaultKind, FaultRecord, FaultTrace, LinkDirection};
pub use systolic::SystolicArray;
pub use timing::{InvokeStats, LoadReport};

/// Convenience result alias for fallible simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
