//! Host CPU analytic runtime model.
//!
//! The paper's framework is a *co-design*: encoding and inference run on
//! the accelerator, but class-hypervector update — which the Edge TPU
//! cannot execute — stays on the host CPU, and the end-to-end runtime is
//! the sum of both sides. This crate is the host half:
//!
//! * [`Platform`] / [`PlatformSpec`] — throughput profiles for the two
//!   CPUs the paper measures: the lower-end laptop's mobile Intel
//!   i5-5250U host and the Raspberry Pi 3's ARM Cortex-A53 (Table II's
//!   comparison point),
//! * [`cost`] — closed-form per-op costs (GEMM, activations, element-wise
//!   updates, quantize/dequantize, model generation).
//!
//! Calibration: the sustained-GEMM figures are set so the simulated
//! accelerator/host runtime *ratios* land in the paper's reported regime
//! (about 9x MNIST encode speedup, about 4-6x inference speedup, PAMAP2
//! slower on the accelerator, and a 2.5-3x gap between the i5 and the
//! Cortex-A53 implied by Table II vs Figs. 5-6). Absolute times are not
//! claimed — only ratios are reported by the benchmark harness, exactly
//! like the paper's normalized figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod platform;

pub mod cost;

pub use platform::{Platform, PlatformSpec};
