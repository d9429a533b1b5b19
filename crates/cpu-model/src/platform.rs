/// Sustained-throughput profile of a host processor.
///
/// All figures are *sustained* rates for the kind of kernels an HDC
/// framework actually runs (large single-precision GEMM through a generic
/// ML runtime, element-wise vector updates, `tanh` evaluation), not
/// datasheet peaks.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Human-readable processor name.
    pub name: String,
    /// Sustained single-precision GEMM throughput, FLOP/s.
    pub gemm_flops: f64,
    /// Sustained element-wise arithmetic throughput, op/s.
    pub elementwise_ops: f64,
    /// Sustained `tanh` evaluation throughput, op/s.
    pub tanh_ops: f64,
    /// Average active power draw while running these kernels, watts.
    pub active_power_w: f64,
}

impl PlatformSpec {
    /// Creates a custom profile.
    ///
    /// # Panics
    ///
    /// Panics if any rate is not positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        gemm_flops: f64,
        elementwise_ops: f64,
        tanh_ops: f64,
    ) -> Self {
        assert!(
            gemm_flops > 0.0 && elementwise_ops > 0.0 && tanh_ops > 0.0,
            "throughputs must be positive"
        );
        PlatformSpec {
            name: name.into(),
            gemm_flops,
            elementwise_ops,
            tanh_ops,
            active_power_w: 10.0,
        }
    }

    /// Sets the average active power draw.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is not positive.
    #[must_use]
    pub fn with_power(mut self, watts: f64) -> Self {
        assert!(watts > 0.0, "power must be positive");
        self.active_power_w = watts;
        self
    }
}

/// The host processors evaluated in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Platform {
    /// Mobile Intel i5-5250U (the paper's lower-end laptop host): dual-core
    /// Broadwell-U with AVX2; sustained GEMM around 35 GFLOP/s.
    MobileI5,
    /// ARM Cortex-A53 as in the Raspberry Pi 3 (Table II's comparison
    /// platform): roughly 2.6x slower than the i5 across kernels, the
    /// ratio Table II implies relative to Figs. 5-6.
    CortexA53,
    /// A user-supplied profile.
    Custom(PlatformSpec),
}

impl Platform {
    /// The throughput profile for this platform.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpu_model::Platform;
    ///
    /// let i5 = Platform::MobileI5.spec();
    /// let pi = Platform::CortexA53.spec();
    /// assert!(i5.gemm_flops > pi.gemm_flops);
    /// ```
    pub fn spec(&self) -> PlatformSpec {
        match self {
            // 15 W TDP part; sustained package power under GEMM load.
            Platform::MobileI5 => {
                PlatformSpec::new("intel-i5-5250u", 35.0e9, 2.4e9, 2.4e9).with_power(12.0)
            }
            // Raspberry Pi 3 under CPU load draws roughly 4 W at the wall.
            Platform::CortexA53 => {
                PlatformSpec::new("arm-cortex-a53", 13.2e9, 0.9e9, 0.9e9).with_power(4.0)
            }
            Platform::Custom(spec) => spec.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i5_is_faster_than_a53_everywhere() {
        let i5 = Platform::MobileI5.spec();
        let a53 = Platform::CortexA53.spec();
        assert!(i5.gemm_flops > a53.gemm_flops);
        assert!(i5.elementwise_ops > a53.elementwise_ops);
        assert!(i5.tanh_ops > a53.tanh_ops);
    }

    #[test]
    fn a53_gap_matches_table_ii_regime() {
        // Table II speedups are about 2.5-3x the Fig. 5/6 speedups, which
        // pins the i5:A53 ratio to that band.
        let ratio = Platform::MobileI5.spec().gemm_flops / Platform::CortexA53.spec().gemm_flops;
        assert!((2.0..3.5).contains(&ratio), "i5/A53 ratio {ratio}");
    }

    #[test]
    fn power_figures_are_ordered() {
        // The Pi draws less power but delivers far less throughput; the
        // paper's claim is that the TPU platform wins at similar power.
        let i5 = Platform::MobileI5.spec();
        let pi = Platform::CortexA53.spec();
        assert!(i5.active_power_w > pi.active_power_w);
        let i5_eff = i5.gemm_flops / i5.active_power_w;
        let pi_eff = pi.gemm_flops / pi.active_power_w;
        assert!((0.2..5.0).contains(&(i5_eff / pi_eff)));
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let _ = PlatformSpec::new("p", 1.0, 1.0, 1.0).with_power(0.0);
    }

    #[test]
    fn custom_spec_roundtrips() {
        let spec = PlatformSpec::new("test", 1e9, 1e8, 1e7);
        assert_eq!(Platform::Custom(spec.clone()).spec(), spec);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_throughput_rejected() {
        let _ = PlatformSpec::new("bad", 0.0, 1.0, 1.0);
    }
}
