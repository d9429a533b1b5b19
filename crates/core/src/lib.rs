//! HyperEdge — the paper's framework: algorithm/hardware co-designed
//! hyperdimensional learning on an edge accelerator.
//!
//! This crate glues the substrates together into the three execution
//! settings the paper evaluates (Figs. 5-7):
//!
//! * **CPU baseline** — all of HDC (encode, class-hypervector update,
//!   inference) runs on the host CPU in `f32`,
//! * **TPU** — the HDC model is interpreted as a hyper-wide NN; encoding
//!   and inference lower to the simulated Edge-TPU-like accelerator,
//!   while the class-hypervector update (an element-wise op the
//!   accelerator rejects at compile time) stays on the host,
//! * **TPU + bagging** — additionally, training uses `M` narrow bagged
//!   sub-models that merge into one full-width inference model with zero
//!   inference overhead.
//!
//! The key public types:
//!
//! * [`Pipeline`] — trains a model under a chosen [`ExecutionSetting`]
//!   through one generic loop parameterized by an execution backend,
//!   returning the trained model, functional accuracy inputs, a
//!   per-phase [`RuntimeBreakdown`], and the backend's measured
//!   [`BackendLedger`],
//! * [`backend`] — the [`ExecutionBackend`] trait and its three
//!   placements ([`CpuBackend`], [`TpuBackend`], [`HybridBackend`]),
//!   with a persistent device and compiled-model cache on the
//!   accelerator side,
//! * [`wide_model`] — the HDC-to-wide-NN interpretation (Fig. 2),
//! * [`runtime`] — closed-form runtime models usable at paper scale
//!   without functional execution,
//! * [`schedule`] — the overlapped execution paths declared as SDF
//!   stage graphs and statically verified (rates, buffer bounds,
//!   deadlock-freedom, critical path) before any thread spawns.
//!
//! # Examples
//!
//! ```
//! use hd_datasets::{registry, SampleBudget};
//! use hyperedge::{ExecutionSetting, Pipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = registry::by_name("pamap2").expect("registered");
//! let mut data = spec.generate(SampleBudget::Reduced { train: 150, test: 50 }, 9)?;
//! data.normalize();
//!
//! let config = PipelineConfig::new(1024).with_iterations(4);
//! let pipeline = Pipeline::new(config);
//! let outcome = pipeline.train(
//!     &data.train.features,
//!     &data.train.labels,
//!     data.classes,
//!     ExecutionSetting::Tpu,
//! )?;
//! let report = pipeline.evaluate(&outcome, &data.test.features, &data.test.labels)?;
//! assert!(report.accuracy > 0.2); // far above the 20% random baseline
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod pipeline;

pub mod backend;
pub mod fleet;
pub mod runtime;
pub mod schedule;
pub mod serving;
pub mod wide_model;

pub use backend::{
    BackendLedger, BackendRegistry, CpuBackend, ExecutionBackend, HybridBackend, TpuBackend,
};
pub use config::{ExecutionSetting, PipelineConfig};
pub use error::FrameworkError;
pub use fleet::{DeviceFaultSummary, DeviceHealth, DevicePool, StageSeat};
pub use hd_dataflow::runtime::Supervision;
pub use pipeline::{
    EvaluationReport, InferenceReport, Pipeline, TrainingOutcome, TrainingTelemetry,
};
pub use runtime::{EnergyBreakdown, RuntimeBreakdown, UpdateProfile, WorkloadSpec};
pub use serving::TwoDeviceServer;

/// Convenience result alias for fallible framework operations.
pub type Result<T> = std::result::Result<T, FrameworkError>;
