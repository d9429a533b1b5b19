use cpu_model::Platform;
use hd_bagging::{BaggingConfig, MemberRecovery};
use hd_dataflow::runtime::Supervision;
use tpu_sim::DeviceConfig;

use crate::error::FrameworkError;

/// Which of the paper's three framework settings to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionSetting {
    /// Everything on the host CPU — the paper's baseline.
    CpuBaseline,
    /// Encoding and inference on the accelerator, class-hypervector
    /// update on the host (the paper's "TPU" setting).
    Tpu,
    /// The TPU setting plus bagged training with a merged inference model
    /// (the paper's "TPU_B").
    TpuBagging,
}

impl ExecutionSetting {
    /// All three settings, in the order the paper's figures list them.
    pub fn all() -> [ExecutionSetting; 3] {
        [
            ExecutionSetting::CpuBaseline,
            ExecutionSetting::Tpu,
            ExecutionSetting::TpuBagging,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionSetting::CpuBaseline => "CPU",
            ExecutionSetting::Tpu => "TPU",
            ExecutionSetting::TpuBagging => "TPU_B",
        }
    }
}

/// Full configuration of the co-designed pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Hypervector dimensionality `d` (the paper uses 10 000).
    pub dim: usize,
    /// Full-model training iterations (the paper uses 20).
    pub iterations: usize,
    /// Update coefficient `lambda`.
    pub learning_rate: f32,
    /// Master RNG seed.
    pub seed: u64,
    /// Bagging parameters for the `TpuBagging` setting.
    pub bagging: BaggingConfig,
    /// Samples per accelerator invocation during (offline, throughput
    /// oriented) training-set encoding.
    pub encode_batch: usize,
    /// Samples per accelerator invocation during (latency-oriented)
    /// inference.
    pub infer_batch: usize,
    /// Host CPU profile.
    pub platform: Platform,
    /// Accelerator profile.
    pub device: DeviceConfig,
    /// Retry budget, backoff and per-invocation deadline for every
    /// supervised device stage (the accelerator backend's invoke
    /// schedule and the two-device server's stages).
    pub supervision: Supervision,
    /// Consecutive failed device attempts after which a
    /// [`DevicePool`](crate::DevicePool) quarantines the device (for the
    /// accelerator backend's one-device pool: drains to the int8 host
    /// executor). Successes reset the count.
    pub quarantine_threshold: u32,
    /// What the bagged settings do with an ensemble member whose backend
    /// failed permanently.
    pub member_recovery: MemberRecovery,
    /// Worker-thread budget a caller hands to
    /// [`hd_bagging::train_members_parallel`].
    /// [`Pipeline::train`](crate::Pipeline::train) does not read it: it
    /// trains members on one worker, one after another. Must be at
    /// least 1.
    pub threads: usize,
}

impl PipelineConfig {
    /// Paper-style defaults at the given dimensionality: 20 iterations,
    /// `lambda = 1`, bagging at `M = 4`, `I' = 6`, `alpha = 0.6`,
    /// `beta = 1`, encode batch 256, inference batch 16, mobile-i5 host,
    /// Edge-TPU-like device. Device stages retry 3 times with a 2 ms
    /// doubling backoff and quarantine after 4 consecutive failures, so
    /// the invocation that exhausts its whole retry budget is the one
    /// that quarantines the device.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by 4 (the default bagging `M`).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        PipelineConfig {
            dim,
            iterations: 20,
            learning_rate: 1.0,
            seed: 0xED6E,
            bagging: BaggingConfig::paper_defaults(dim),
            encode_batch: 256,
            infer_batch: 16,
            platform: Platform::MobileI5,
            device: DeviceConfig::default(),
            supervision: Supervision::retries(3, 2e-3, 2.0),
            quarantine_threshold: 4,
            member_recovery: MemberRecovery::default(),
            threads: 1,
        }
    }

    /// Sets the full-model iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the master seed (also reseeds the bagging stream).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.bagging = self.bagging.with_seed(seed ^ 0xBA66);
        self
    }

    /// Replaces the bagging configuration.
    #[must_use]
    pub fn with_bagging(mut self, bagging: BaggingConfig) -> Self {
        self.bagging = bagging;
        self
    }

    /// Sets the host platform.
    #[must_use]
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the encode/inference batch sizes.
    #[must_use]
    pub fn with_batches(mut self, encode_batch: usize, infer_batch: usize) -> Self {
        self.encode_batch = encode_batch;
        self.infer_batch = infer_batch;
        self
    }

    /// Sets the supervision policy of the device stages.
    #[must_use]
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// Sets the consecutive-failure count that quarantines a device.
    #[must_use]
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold;
        self
    }

    /// Sets the ensemble member-failure policy.
    #[must_use]
    pub fn with_member_recovery(mut self, member_recovery: MemberRecovery) -> Self {
        self.member_recovery = member_recovery;
        self
    }

    /// Sets the [`PipelineConfig::threads`] budget (default 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::InvalidConfig`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), FrameworkError> {
        if self.dim == 0 {
            return Err(FrameworkError::InvalidConfig("dim is zero".into()));
        }
        if self.iterations == 0 {
            return Err(FrameworkError::InvalidConfig("iterations is zero".into()));
        }
        if self.encode_batch == 0 || self.infer_batch == 0 {
            return Err(FrameworkError::InvalidConfig(
                "batch sizes must be positive".into(),
            ));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(FrameworkError::InvalidConfig(
                "learning_rate must be positive".into(),
            ));
        }
        if self.threads == 0 {
            return Err(FrameworkError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        let s = &self.supervision;
        if !(s.backoff_base_s >= 0.0 && s.backoff_base_s.is_finite()) {
            return Err(FrameworkError::InvalidConfig(format!(
                "backoff_base_s {} must be finite and non-negative",
                s.backoff_base_s
            )));
        }
        if !(s.backoff_factor >= 1.0 && s.backoff_factor.is_finite()) {
            return Err(FrameworkError::InvalidConfig(format!(
                "backoff_factor {} must be finite and at least 1",
                s.backoff_factor
            )));
        }
        if let Some(d) = s.deadline_s {
            if !(d > 0.0 && d.is_finite()) {
                return Err(FrameworkError::InvalidConfig(format!(
                    "deadline_s {d} must be finite and positive"
                )));
            }
        }
        if self.quarantine_threshold == 0 {
            return Err(FrameworkError::InvalidConfig(
                "quarantine_threshold must be at least 1".into(),
            ));
        }
        self.device
            .fault
            .validate()
            .map_err(|e| FrameworkError::InvalidConfig(e.to_string()))?;
        self.bagging
            .validate()
            .map_err(|e| FrameworkError::InvalidConfig(e.to_string()))?;
        if self.bagging.merged_dim() != self.dim {
            return Err(FrameworkError::InvalidConfig(format!(
                "bagging merged dim {} differs from pipeline dim {}",
                self.bagging.merged_dim(),
                self.dim
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(PipelineConfig::new(10_000).validate().is_ok());
        assert!(PipelineConfig::new(1024).validate().is_ok());
    }

    #[test]
    fn validation_catches_fields() {
        let ok = PipelineConfig::new(1024);
        let mut bad = ok.clone();
        bad.dim = 0;
        assert!(bad.validate().is_err());
        let bad = ok.clone().with_iterations(0);
        assert!(bad.validate().is_err());
        let bad = ok.clone().with_batches(0, 16);
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.learning_rate = -1.0;
        assert!(bad.validate().is_err());
        // Mismatched bagging width.
        let bad = ok.clone().with_bagging(BaggingConfig::paper_defaults(512));
        assert!(bad.validate().is_err());
        // Zero quarantine threshold.
        let bad = ok.clone().with_quarantine_threshold(0);
        assert!(bad.validate().is_err());
        // Bad fault schedule on the device.
        let mut bad = ok.clone();
        bad.device.fault = tpu_sim::FaultConfig::default().with_transient_rate(2.0);
        assert!(bad.validate().is_err());
        // Zero worker threads.
        let bad = ok.clone().with_threads(0);
        assert!(bad.validate().is_err());
        assert!(ok.with_threads(4).validate().is_ok());
    }

    #[test]
    fn supervision_defaults_validate_and_backoff_grows() {
        let c = PipelineConfig::new(1024);
        assert!(c.validate().is_ok());
        let s = c.supervision;
        assert_eq!(c.quarantine_threshold, s.max_retries + 1);
        assert_eq!(s.deadline_s, None);
        assert!((s.backoff_s(1) - 2e-3).abs() < 1e-15);
        assert!((s.backoff_s(2) - 4e-3).abs() < 1e-15);
        assert!((s.backoff_s(3) - 8e-3).abs() < 1e-15);
    }

    #[test]
    fn supervision_rejects_bad_fields() {
        let ok = PipelineConfig::new(1024);
        let with = |s: Supervision| ok.clone().with_supervision(s).validate();
        assert!(with(Supervision::retries(3, -1.0, 2.0)).is_err());
        assert!(with(Supervision::retries(3, f64::NAN, 2.0)).is_err());
        assert!(with(Supervision::retries(3, 1e-3, 0.5)).is_err());
        assert!(with(Supervision::retries(3, 1e-3, f64::INFINITY)).is_err());
        assert!(with(ok.supervision.with_deadline(Some(0.0))).is_err());
        assert!(with(ok.supervision.with_deadline(Some(f64::NAN))).is_err());
        assert!(ok.clone().with_quarantine_threshold(0).validate().is_err());
        assert!(with(Supervision::retries(0, 2e-3, 2.0).with_deadline(Some(0.5))).is_ok());
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(ExecutionSetting::CpuBaseline.label(), "CPU");
        assert_eq!(ExecutionSetting::Tpu.label(), "TPU");
        assert_eq!(ExecutionSetting::TpuBagging.label(), "TPU_B");
        assert_eq!(ExecutionSetting::all().len(), 3);
    }

    #[test]
    fn with_seed_reseeds_bagging() {
        let a = PipelineConfig::new(1024).with_seed(1);
        let b = PipelineConfig::new(1024).with_seed(2);
        assert_ne!(a.bagging.seed, b.bagging.seed);
    }
}
