//! Deterministic fault injection for the simulated device.
//!
//! Edge deployments of USB-attached accelerators meet transient dispatch
//! failures, link-payload corruption, SRAM weight upsets, and outright
//! device hangs as an operating reality. This module injects exactly
//! those fault classes into [`crate::Device`], driven by a seeded
//! [`DetRng`] so every fault schedule is reproducible bit-for-bit.
//!
//! The injected faults model *detected* failures: the host driver sees a
//! typed [`crate::SimError`] (CRC mismatch on a transfer, parity failure
//! on resident weights, a watchdog deadline firing) rather than silently
//! corrupted data. A retried invocation therefore converges to the exact
//! fault-free output — which is what the resilience layer above relies
//! on. *Silent* weight corruption for accuracy-degradation studies stays
//! on the explicit [`crate::Device::inject_weight_faults`] hook.
//!
//! Every injected fault is appended to a [`FaultTrace`] so tests can
//! assert the schedule (and its determinism) exactly.

use hd_tensor::rng::DetRng;

/// Which direction a corrupted host-link transfer was moving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// Input payload, host to device.
    HostToDevice,
    /// Output payload, device to host.
    DeviceToHost,
}

impl std::fmt::Display for LinkDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkDirection::HostToDevice => write!(f, "host-to-device"),
            LinkDirection::DeviceToHost => write!(f, "device-to-host"),
        }
    }
}

/// Seeded fault-injection schedule for one device.
///
/// All rates are per-invocation probabilities in `[0, 1]`; the default is
/// fully disabled (all rates zero), which makes fault handling free for
/// every existing caller. The schedule is driven by a [`DetRng`] seeded
/// from `seed`, so two devices built from equal configs inject byte-wise
/// identical fault sequences for identical invocation sequences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule's RNG stream.
    pub seed: u64,
    /// Probability an invocation fails at dispatch (driver/USB hiccup)
    /// before any payload moves.
    pub transient_invoke_rate: f64,
    /// Probability a host-link payload transfer is corrupted (detected by
    /// the link CRC); drawn independently for each direction.
    pub link_corruption_rate: f64,
    /// Probability the resident weights take an SRAM bit upset (detected
    /// by parity when the weights stream into the array). The device then
    /// rejects every invocation until a pristine model is reloaded.
    pub weight_upset_rate: f64,
    /// Probability the device hangs during an invocation.
    pub hang_rate: f64,
    /// Simulated stall a hang adds to the invocation, seconds.
    pub hang_stall_s: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA017,
            transient_invoke_rate: 0.0,
            link_corruption_rate: 0.0,
            weight_upset_rate: 0.0,
            hang_rate: 0.0,
            hang_stall_s: 0.05,
        }
    }
}

impl FaultConfig {
    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.transient_invoke_rate > 0.0
            || self.link_corruption_rate > 0.0
            || self.weight_upset_rate > 0.0
            || self.hang_rate > 0.0
    }

    /// Validates rates and stall time.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] naming the offending
    /// field.
    pub fn validate(&self) -> crate::Result<()> {
        let rates = [
            ("transient_invoke_rate", self.transient_invoke_rate),
            ("link_corruption_rate", self.link_corruption_rate),
            ("weight_upset_rate", self.weight_upset_rate),
            ("hang_rate", self.hang_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(crate::SimError::InvalidConfig(format!(
                    "fault {name} {rate} outside [0, 1]"
                )));
            }
        }
        if !self.hang_stall_s.is_finite() || self.hang_stall_s < 0.0 {
            return Err(crate::SimError::InvalidConfig(format!(
                "fault hang_stall_s {} must be finite and non-negative",
                self.hang_stall_s
            )));
        }
        Ok(())
    }

    /// Sets the schedule seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transient dispatch-failure rate.
    #[must_use]
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_invoke_rate = rate;
        self
    }

    /// Sets the per-direction link corruption rate.
    #[must_use]
    pub fn with_link_corruption_rate(mut self, rate: f64) -> Self {
        self.link_corruption_rate = rate;
        self
    }

    /// Sets the resident-weight SRAM upset rate.
    #[must_use]
    pub fn with_weight_upset_rate(mut self, rate: f64) -> Self {
        self.weight_upset_rate = rate;
        self
    }

    /// Sets the hang rate and the stall each hang adds.
    #[must_use]
    pub fn with_hang(mut self, rate: f64, stall_s: f64) -> Self {
        self.hang_rate = rate;
        self.hang_stall_s = stall_s;
        self
    }
}

/// One fault class, as recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The invocation failed at dispatch.
    TransientInvokeFailure,
    /// The resident weights took a parity-detected SRAM upset.
    WeightUpset,
    /// A link payload failed its CRC.
    LinkCorruption {
        /// Transfer direction.
        direction: LinkDirection,
        /// Payload bytes in flight.
        bytes: usize,
    },
    /// The device stalled mid-invocation.
    Hang {
        /// Injected stall, seconds.
        stall_s: f64,
        /// Whether the stall pushed the invocation past its deadline
        /// (fatal) or merely slowed it down.
        fatal: bool,
    },
}

/// One injected fault: which invocation attempt it hit, what fired, and
/// how much simulated time the failed (or slowed) attempt consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Zero-based index of the invocation attempt the fault hit.
    pub invocation: u64,
    /// What fired.
    pub kind: FaultKind,
    /// Simulated seconds charged to the affected attempt.
    pub charged_s: f64,
}

/// The ordered record of every injected fault since device construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTrace {
    records: Vec<FaultRecord>,
}

impl FaultTrace {
    /// The records, in injection order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no fault has been injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records matching a predicate over the fault kind.
    pub fn count_kind(&self, pred: impl Fn(&FaultKind) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.kind)).count()
    }

    pub(crate) fn push(&mut self, record: FaultRecord) {
        self.records.push(record);
    }
}

/// Which fault classes fire on one invocation attempt.
///
/// All five draws happen on every armed attempt — even when an earlier
/// fault aborts the invocation — so the RNG stream position depends only
/// on the attempt count, never on which faults happened to fire. That
/// keeps traces reproducible across retry policies.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AttemptFaults {
    pub transient: bool,
    pub corrupt_input: bool,
    pub weight_upset: bool,
    pub hang: bool,
    pub corrupt_output: bool,
}

/// Runtime fault-injection state of one device: the armed config, its RNG
/// stream, the attempt counter, and the trace.
#[derive(Debug)]
pub(crate) struct FaultPlan {
    config: FaultConfig,
    rng: DetRng,
    attempts: u64,
    trace: FaultTrace,
}

impl FaultPlan {
    #[must_use]
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultPlan {
            rng: DetRng::new(config.seed),
            config,
            attempts: 0,
            trace: FaultTrace::default(),
        }
    }

    pub(crate) fn config(&self) -> &FaultConfig {
        &self.config
    }

    pub(crate) fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Starts an invocation attempt: bumps the counter and draws the
    /// fault schedule for it. Returns the attempt index and its faults.
    pub(crate) fn begin_attempt(&mut self) -> (u64, AttemptFaults) {
        let index = self.attempts;
        self.attempts += 1;
        if !self.config.enabled() {
            return (index, AttemptFaults::default());
        }
        let faults = AttemptFaults {
            transient: self.rng.next_f64() < self.config.transient_invoke_rate,
            corrupt_input: self.rng.next_f64() < self.config.link_corruption_rate,
            weight_upset: self.rng.next_f64() < self.config.weight_upset_rate,
            hang: self.rng.next_f64() < self.config.hang_rate,
            corrupt_output: self.rng.next_f64() < self.config.link_corruption_rate,
        };
        (index, faults)
    }

    pub(crate) fn record(&mut self, invocation: u64, kind: FaultKind, charged_s: f64) {
        self.trace.push(FaultRecord {
            invocation,
            kind,
            charged_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = FaultConfig::default();
        assert!(!c.enabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_enable_and_validate() {
        let c = FaultConfig::default()
            .with_seed(7)
            .with_transient_rate(0.1)
            .with_link_corruption_rate(0.05)
            .with_weight_upset_rate(0.01)
            .with_hang(0.02, 0.5);
        assert!(c.enabled());
        assert!(c.validate().is_ok());
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn out_of_range_rates_rejected() {
        let bad = FaultConfig::default().with_transient_rate(1.5);
        assert!(bad.validate().is_err());
        let bad = FaultConfig::default().with_link_corruption_rate(-0.1);
        assert!(bad.validate().is_err());
        let bad = FaultConfig::default().with_hang(0.1, f64::NAN);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn same_seed_draws_identical_schedules() {
        let config = FaultConfig::default()
            .with_seed(99)
            .with_transient_rate(0.3)
            .with_link_corruption_rate(0.2)
            .with_hang(0.1, 0.01);
        let mut a = FaultPlan::new(config);
        let mut b = FaultPlan::new(config);
        for _ in 0..64 {
            let (ia, fa) = a.begin_attempt();
            let (ib, fb) = b.begin_attempt();
            assert_eq!(ia, ib);
            assert_eq!(fa.transient, fb.transient);
            assert_eq!(fa.corrupt_input, fb.corrupt_input);
            assert_eq!(fa.weight_upset, fb.weight_upset);
            assert_eq!(fa.hang, fb.hang);
            assert_eq!(fa.corrupt_output, fb.corrupt_output);
        }
    }

    #[test]
    fn disabled_plan_never_fires_and_draws_nothing() {
        let mut plan = FaultPlan::new(FaultConfig::default());
        for i in 0..16 {
            let (index, faults) = plan.begin_attempt();
            assert_eq!(index, i);
            assert!(
                !(faults.transient
                    || faults.corrupt_input
                    || faults.weight_upset
                    || faults.hang
                    || faults.corrupt_output)
            );
        }
        assert!(plan.trace().is_empty());
    }

    #[test]
    fn trace_records_in_order() {
        let mut plan = FaultPlan::new(FaultConfig::default());
        plan.record(0, FaultKind::TransientInvokeFailure, 1e-3);
        plan.record(
            2,
            FaultKind::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: 64,
            },
            2e-3,
        );
        let trace = plan.trace().clone();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].invocation, 0);
        assert_eq!(trace.records()[1].invocation, 2);
        assert_eq!(
            trace.count_kind(|k| matches!(k, FaultKind::LinkCorruption { .. })),
            1
        );
    }
}
