//! Execution backends: *where* each phase of the co-designed pipeline
//! runs.
//!
//! The paper's contribution is a placement decision — the same wide NN
//! runs its encode/inference half on the accelerator and its update half
//! on the host. This module makes that placement a first-class object:
//!
//! * [`CpuBackend`] — every phase on the host CPU in `f32` (the paper's
//!   baseline),
//! * [`TpuBackend`] — encode and inference on the simulated Edge TPU, a
//!   one-device [`DevicePool`](crate::DevicePool) that keeps the compiled
//!   models and the resident one; its update phase returns the typed
//!   rejection that proves the accelerator cannot run it,
//! * [`HybridBackend`] — the paper's co-design: [`TpuBackend`] for
//!   encode/inference composed with [`CpuBackend`] for the
//!   class-hypervector update.
//!
//! Every backend implements [`hdc::Executor`] (so the generic training
//! loop in `hd_bagging::train_members` drives any of them) plus
//! prediction, and reports a per-phase [`BackendLedger`] of what actually
//! executed — measured (simulated-clock) seconds and compile/load/device
//! counters — which [`crate::runtime::measured_breakdown`] converts into
//! the same [`RuntimeBreakdown`] shape the closed-form models produce.

use hd_tensor::Matrix;
use hdc::{Executor, HdcModel};

use crate::config::{ExecutionSetting, PipelineConfig};
use crate::runtime::RuntimeBreakdown;

mod cpu;
mod hybrid;
mod tpu;

pub use cpu::CpuBackend;
pub use hybrid::HybridBackend;
pub use tpu::TpuBackend;

/// Rows of a batch used to calibrate int8 quantization when compiling a
/// model for the accelerator, as a deployment pipeline would calibrate on
/// representative data.
pub const CALIBRATION_ROWS: usize = 256;

/// An execution placement for the HDC pipeline: encoding and class-HV
/// update placement (via the [`Executor`] supertrait) plus inference and
/// per-phase telemetry.
///
/// Backends are shared handles: one instance serves every training and
/// evaluation call of a [`crate::Pipeline`], which is what lets the
/// accelerator-placed backends keep a device and compiled models warm
/// across calls.
pub trait ExecutionBackend: Executor {
    /// Short stable name for telemetry and logs.
    fn name(&self) -> &'static str;

    /// Predicts a class per row of `features` under this backend's
    /// inference placement.
    ///
    /// # Errors
    ///
    /// Propagates compilation/device/shape errors.
    fn predict(&self, model: &HdcModel, features: &Matrix) -> crate::Result<Vec<usize>>;

    /// Accumulated telemetry since construction or the last reset.
    fn ledger(&self) -> BackendLedger;

    /// Clears the accumulated telemetry (counters and measured seconds).
    /// Device/compile caches stay warm — residency is state, not
    /// telemetry.
    fn reset_ledger(&self);
}

/// Accumulated per-phase telemetry of one backend: what actually executed
/// (at the simulated clocks of the device and host cost models), and how
/// often the expensive one-time work — compilation, device construction,
/// parameter loads — really happened.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendLedger {
    /// Networks compiled for the accelerator target.
    pub compilations: u64,
    /// Encode/predict calls served from the compiled-model cache.
    pub cache_hits: u64,
    /// Devices constructed by this backend (at most one per
    /// [`TpuBackend`]).
    pub devices_created: u64,
    /// Parameter loads onto the device (reloads after eviction included).
    pub model_loads: u64,
    /// Device invocations (one per chunk).
    pub invocations: u64,
    /// Samples encoded.
    pub encoded_samples: u64,
    /// Samples predicted.
    pub predicted_samples: u64,
    /// Measured encoding seconds (device time plus host quantize, or host
    /// `f32` time on the CPU backend).
    pub encode_s: f64,
    /// Measured host class-hypervector update seconds.
    pub update_s: f64,
    /// Measured one-time model generation seconds: host compile time plus
    /// device parameter-load time.
    pub model_gen_s: f64,
    /// Measured inference seconds.
    pub infer_s: f64,
    /// Device invocation attempts that were retried after a fault.
    pub retries: u64,
    /// Device faults observed (every failed attempt, retried or not).
    pub faults_observed: u64,
    /// Invocations degraded to the host CPU after the device was
    /// quarantined.
    pub fallbacks: u64,
    /// Simulated seconds spent backing off between retries (also included
    /// in the affected phase's seconds).
    pub backoff_s: f64,
    /// Query rows scored through the bit-packed bipolar Hamming kernel
    /// instead of the `f32` GEMM path.
    pub packed_score_rows: u64,
    /// `i8` GEMM calls that ran the AVX2 tile.
    pub simd_gemm_calls: u64,
    /// `i8` GEMM calls that ran the portable scalar tile.
    pub portable_gemm_calls: u64,
}

impl BackendLedger {
    /// The training-phase view of this ledger in the same shape as the
    /// closed-form runtime models.
    #[must_use]
    pub fn breakdown(&self) -> RuntimeBreakdown {
        RuntimeBreakdown {
            encode_s: self.encode_s,
            update_s: self.update_s,
            model_gen_s: self.model_gen_s,
        }
    }

    /// Field-wise sum of two ledgers (used by [`HybridBackend`] to merge
    /// its accelerator and host halves).
    #[must_use]
    pub fn merged(&self, other: &BackendLedger) -> BackendLedger {
        BackendLedger {
            compilations: self.compilations + other.compilations,
            cache_hits: self.cache_hits + other.cache_hits,
            devices_created: self.devices_created + other.devices_created,
            model_loads: self.model_loads + other.model_loads,
            invocations: self.invocations + other.invocations,
            encoded_samples: self.encoded_samples + other.encoded_samples,
            predicted_samples: self.predicted_samples + other.predicted_samples,
            encode_s: self.encode_s + other.encode_s,
            update_s: self.update_s + other.update_s,
            model_gen_s: self.model_gen_s + other.model_gen_s,
            infer_s: self.infer_s + other.infer_s,
            retries: self.retries + other.retries,
            faults_observed: self.faults_observed + other.faults_observed,
            fallbacks: self.fallbacks + other.fallbacks,
            backoff_s: self.backoff_s + other.backoff_s,
            packed_score_rows: self.packed_score_rows + other.packed_score_rows,
            simd_gemm_calls: self.simd_gemm_calls + other.simd_gemm_calls,
            portable_gemm_calls: self.portable_gemm_calls + other.portable_gemm_calls,
        }
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// ledger — the telemetry of everything executed in between.
    #[must_use]
    pub fn delta_since(&self, earlier: &BackendLedger) -> BackendLedger {
        BackendLedger {
            compilations: self.compilations.saturating_sub(earlier.compilations),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            devices_created: self.devices_created.saturating_sub(earlier.devices_created),
            model_loads: self.model_loads.saturating_sub(earlier.model_loads),
            invocations: self.invocations.saturating_sub(earlier.invocations),
            encoded_samples: self.encoded_samples.saturating_sub(earlier.encoded_samples),
            predicted_samples: self
                .predicted_samples
                .saturating_sub(earlier.predicted_samples),
            encode_s: (self.encode_s - earlier.encode_s).max(0.0),
            update_s: (self.update_s - earlier.update_s).max(0.0),
            model_gen_s: (self.model_gen_s - earlier.model_gen_s).max(0.0),
            infer_s: (self.infer_s - earlier.infer_s).max(0.0),
            retries: self.retries.saturating_sub(earlier.retries),
            faults_observed: self.faults_observed.saturating_sub(earlier.faults_observed),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            backoff_s: (self.backoff_s - earlier.backoff_s).max(0.0),
            packed_score_rows: self
                .packed_score_rows
                .saturating_sub(earlier.packed_score_rows),
            simd_gemm_calls: self.simd_gemm_calls.saturating_sub(earlier.simd_gemm_calls),
            portable_gemm_calls: self
                .portable_gemm_calls
                .saturating_sub(earlier.portable_gemm_calls),
        }
    }

    /// Folds a [`hd_tensor::kernels::KernelStats`] delta into this
    /// ledger's kernel-selection counters, making which low-level kernel
    /// variant actually ran (packed Hamming, SIMD GEMM, portable GEMM)
    /// observable alongside the phase telemetry.
    pub fn absorb_kernel_stats(&mut self, delta: hd_tensor::kernels::KernelStats) {
        self.packed_score_rows += delta.packed_score_rows;
        self.simd_gemm_calls += delta.simd_gemm_calls;
        self.portable_gemm_calls += delta.portable_gemm_calls;
    }
}

/// The pipeline's set of shared backend handles, one per placement.
///
/// Both accelerated settings (`Tpu` and `TpuBagging`) resolve to the same
/// [`HybridBackend`] — they differ in *what* they train (one full-width
/// model vs. `M` bagged members), not in *where* the phases run — so
/// bagging's sub-models share the hybrid backend's device and compiled
/// models.
pub struct BackendRegistry {
    cpu: CpuBackend,
    hybrid: HybridBackend,
}

impl BackendRegistry {
    /// Builds the backends for a pipeline configuration. Constructs the
    /// one persistent simulated device the accelerated settings share.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        BackendRegistry {
            cpu: CpuBackend::new(config),
            hybrid: HybridBackend::new(config),
        }
    }

    /// The backend handle for an execution setting.
    pub fn get(&self, setting: ExecutionSetting) -> &dyn ExecutionBackend {
        match setting {
            ExecutionSetting::CpuBaseline => &self.cpu,
            ExecutionSetting::Tpu | ExecutionSetting::TpuBagging => &self.hybrid,
        }
    }

    /// The all-host backend.
    pub fn cpu(&self) -> &CpuBackend {
        &self.cpu
    }

    /// The co-designed accelerator+host backend.
    pub fn hybrid(&self) -> &HybridBackend {
        &self.hybrid
    }
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("cpu", &self.cpu.ledger())
            .field("hybrid", &self.hybrid.ledger())
            .finish()
    }
}

/// FNV-1a over matrix shapes and `f32` bit patterns: the key a compiled
/// model is registered under in a [`DevicePool`](crate::DevicePool). Two networks collide only if every weight
/// and calibration value is bit-identical — in which case the compiled
/// artifacts are interchangeable.
pub(crate) fn fingerprint(tag: u64, matrices: &[&Matrix]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(tag);
    for m in matrices {
        mix(m.rows() as u64);
        mix(m.cols() as u64);
        for &v in m.as_slice() {
            mix(u64::from(v.to_bits()));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_contents_and_tags() {
        let a = Matrix::filled(2, 3, 1.0);
        let mut b = Matrix::filled(2, 3, 1.0);
        assert_eq!(fingerprint(1, &[&a]), fingerprint(1, &[&b]));
        assert_ne!(fingerprint(1, &[&a]), fingerprint(2, &[&a]));
        b.row_mut(0)[0] = 1.5;
        assert_ne!(fingerprint(1, &[&a]), fingerprint(1, &[&b]));
        // Shape participates even when the flat contents agree.
        let wide = Matrix::filled(1, 6, 1.0);
        assert_ne!(fingerprint(1, &[&a]), fingerprint(1, &[&wide]));
    }

    #[test]
    fn ledger_merge_and_delta_roundtrip() {
        let a = BackendLedger {
            compilations: 2,
            encode_s: 1.0,
            retries: 3,
            faults_observed: 4,
            backoff_s: 0.25,
            ..BackendLedger::default()
        };
        let b = BackendLedger {
            compilations: 1,
            update_s: 0.5,
            fallbacks: 1,
            ..BackendLedger::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.compilations, 3);
        assert_eq!(m.encode_s, 1.0);
        assert_eq!(m.update_s, 0.5);
        assert_eq!(m.retries, 3);
        assert_eq!(m.faults_observed, 4);
        assert_eq!(m.fallbacks, 1);
        assert_eq!(m.backoff_s, 0.25);
        let d = m.delta_since(&b);
        assert_eq!(d.compilations, 2);
        assert_eq!(d.update_s, 0.0);
        assert_eq!(d.retries, 3);
        assert_eq!(d.fallbacks, 0);
        assert_eq!(d.backoff_s, 0.25);
        let br = m.breakdown();
        assert_eq!(br.encode_s, 1.0);
        assert_eq!(br.update_s, 0.5);
        assert_eq!(br.model_gen_s, 0.0);
    }
}
