use crate::config::HostLinkConfig;

/// The host-to-accelerator channel: a finite-bandwidth pipe with a fixed
/// per-invocation dispatch latency.
///
/// # Examples
///
/// ```
/// use tpu_sim::{HostLink, HostLinkConfig};
///
/// let link = HostLink::new(HostLinkConfig {
///     bandwidth_bytes_per_sec: 100.0e6,
///     per_invoke_latency_s: 1.0e-3,
/// });
/// assert_eq!(link.transfer_time_s(100_000_000), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLink {
    config: HostLinkConfig,
}

impl HostLink {
    /// Creates a link with the given parameters, rejecting invalid ones
    /// with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] if the bandwidth is not
    /// positive or the latency is negative (see
    /// [`HostLinkConfig::validate`]).
    pub fn try_new(config: HostLinkConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(HostLink { config })
    }

    /// Creates a link with the given parameters.
    ///
    /// Thin panicking wrapper over [`HostLink::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive or the latency is negative.
    #[must_use]
    pub fn new(config: HostLinkConfig) -> Self {
        match Self::try_new(config) {
            Ok(link) => link,
            Err(e) => panic!("{e}"),
        }
    }

    /// Seconds to move `bytes` across the link (payload only).
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.config.bandwidth_bytes_per_sec
    }

    /// The underlying configuration.
    pub fn config(&self) -> HostLinkConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_linearly() {
        let link = HostLink::new(HostLinkConfig {
            bandwidth_bytes_per_sec: 1e6,
            per_invoke_latency_s: 0.0,
        });
        assert_eq!(link.transfer_time_s(0), 0.0);
        assert_eq!(link.transfer_time_s(500_000), 0.5);
        assert_eq!(link.transfer_time_s(2_000_000), 2.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = HostLink::new(HostLinkConfig {
            bandwidth_bytes_per_sec: 0.0,
            per_invoke_latency_s: 0.0,
        });
    }

    #[test]
    #[should_panic(expected = "latency cannot be negative")]
    fn negative_latency_rejected() {
        let _ = HostLink::new(HostLinkConfig {
            bandwidth_bytes_per_sec: 1.0,
            per_invoke_latency_s: -1.0,
        });
    }

    #[test]
    fn try_new_returns_typed_error() {
        let err = HostLink::try_new(HostLinkConfig {
            bandwidth_bytes_per_sec: -3.0,
            per_invoke_latency_s: 0.0,
        })
        .unwrap_err();
        assert!(matches!(err, crate::SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("bandwidth must be positive"));
        assert!(HostLink::try_new(HostLinkConfig::default()).is_ok());
    }

    #[test]
    fn default_roundtrips_config() {
        let cfg = HostLinkConfig::default();
        assert_eq!(HostLink::new(cfg).config(), cfg);
    }
}
