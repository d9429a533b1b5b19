use wide_nn::TargetSpec;

use crate::fault::FaultConfig;
use crate::SimError;

/// Host-link (USB-like) channel parameters.
///
/// The defaults model an Edge TPU on USB 3.0 as the paper's setup does:
/// 320 MB/s of effective payload bandwidth and a 0.5 ms per-invocation
/// dispatch latency (interpreter + driver + transaction setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLinkConfig {
    /// Effective payload bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed latency charged once per invocation, in seconds.
    pub per_invoke_latency_s: f64,
}

impl Default for HostLinkConfig {
    fn default() -> Self {
        HostLinkConfig {
            bandwidth_bytes_per_sec: 320.0e6,
            per_invoke_latency_s: 0.5e-3,
        }
    }
}

impl HostLinkConfig {
    /// Creates a link configuration with explicit parameters, rejecting
    /// invalid ones (the typed-error counterpart of
    /// [`HostLinkConfig::new`], matching `TargetSpec::try_new`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the bandwidth is not
    /// positive-finite or the latency is negative or non-finite.
    pub fn try_new(
        bandwidth_bytes_per_sec: f64,
        per_invoke_latency_s: f64,
    ) -> Result<Self, SimError> {
        let config = HostLinkConfig {
            bandwidth_bytes_per_sec,
            per_invoke_latency_s,
        };
        config.validate()?;
        Ok(config)
    }

    /// Creates a link configuration with explicit parameters.
    ///
    /// Thin wrapper over [`HostLinkConfig::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive or the latency is
    /// negative.
    #[must_use]
    pub fn new(bandwidth_bytes_per_sec: f64, per_invoke_latency_s: f64) -> Self {
        match Self::try_new(bandwidth_bytes_per_sec, per_invoke_latency_s) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validates the channel parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.bandwidth_bytes_per_sec > 0.0 && self.bandwidth_bytes_per_sec.is_finite()) {
            return Err(SimError::InvalidConfig(format!(
                "link bandwidth must be positive (got {})",
                self.bandwidth_bytes_per_sec
            )));
        }
        if !(self.per_invoke_latency_s >= 0.0 && self.per_invoke_latency_s.is_finite()) {
            return Err(SimError::InvalidConfig(format!(
                "invoke latency cannot be negative (got {})",
                self.per_invoke_latency_s
            )));
        }
        Ok(())
    }
}

/// Full device description: compute target plus clock and link.
///
/// The default is the Edge-TPU-like profile used throughout the paper
/// reproduction: a 64x64 systolic MXU at 480 MHz (about 3.9 int8 TOPS,
/// matching the Edge TPU's advertised 4 TOPS), an 8 MiB on-chip parameter
/// buffer, and a USB 3.0 host link.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Compute-target geometry (array shape, parameter buffer).
    pub target: TargetSpec,
    /// Core clock in hertz.
    pub clock_hz: f64,
    /// Host link parameters.
    pub link: HostLinkConfig,
    /// Average active power draw of the accelerator while computing,
    /// watts (the USB Edge TPU is a ~2 W device).
    pub active_power_w: f64,
    /// Seeded fault-injection schedule (default: fully disabled).
    pub fault: FaultConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            target: TargetSpec::default(),
            clock_hz: 480.0e6,
            link: HostLinkConfig::default(),
            active_power_w: 2.0,
            fault: FaultConfig::default(),
        }
    }
}

impl DeviceConfig {
    /// Peak int8 multiply-accumulate throughput in operations per second
    /// (2 ops per MAC), for sanity checks and documentation.
    pub fn peak_ops_per_sec(&self) -> f64 {
        2.0 * self.clock_hz * (self.target.array_rows * self.target.array_cols) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_edge_tpu_headline_throughput() {
        let cfg = DeviceConfig::default();
        let tops = cfg.peak_ops_per_sec() / 1e12;
        assert!(
            (3.5..4.5).contains(&tops),
            "peak {tops} TOPS not Edge-TPU-like"
        );
    }

    #[test]
    fn default_power_is_edge_tpu_like() {
        let cfg = DeviceConfig::default();
        assert!((1.0..4.0).contains(&cfg.active_power_w));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = HostLinkConfig::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency cannot be negative")]
    fn negative_latency_rejected() {
        let _ = HostLinkConfig::new(1.0, -1.0);
    }

    #[test]
    fn try_new_returns_typed_error() {
        let err = HostLinkConfig::try_new(-3.0, 0.0).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("bandwidth must be positive"));
        let cfg = HostLinkConfig::default();
        assert_eq!(
            HostLinkConfig::try_new(cfg.bandwidth_bytes_per_sec, cfg.per_invoke_latency_s),
            Ok(cfg)
        );
    }

    #[test]
    fn default_link_is_usb3_like() {
        let link = HostLinkConfig::default();
        assert!(link.bandwidth_bytes_per_sec > 100e6);
        assert!(link.per_invoke_latency_s < 5e-3);
    }
}
