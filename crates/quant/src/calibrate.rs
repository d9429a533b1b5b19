use crate::error::QuantError;
use crate::params::QuantParams;
use crate::Result;

/// Lanes of the running minima and maxima in [`Calibrator::observe`].
const LANES: usize = 16;

/// Streaming min/max range observer for post-training quantization — the
/// TFLite post-training default.
///
/// Feed it representative activations (for HDC encoding: a batch of raw
/// samples, and the resulting encoded hypervectors), then convert to
/// [`QuantParams`] covering the exact observed `[min, max]` range.
///
/// # Examples
///
/// ```
/// use hd_quant::Calibrator;
///
/// # fn main() -> Result<(), hd_quant::QuantError> {
/// let mut cal = Calibrator::new();
/// cal.observe(&[-0.8, 0.3, 0.9]);
/// let params = cal.to_params()?;
/// assert!(params.real_min() <= -0.8);
/// assert!(params.real_max() >= 0.9 - params.scale());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// `+inf`/`-inf` until a finite value is observed.
    min: f32,
    max: f32,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Creates a calibrator that has observed nothing.
    #[must_use]
    pub fn new() -> Self {
        Calibrator {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        }
    }

    /// Observes a batch of values. Non-finite values are ignored.
    ///
    /// The scan keeps 16 running minima and maxima, one per lane of
    /// a block, so it vectorizes; a non-finite value enters the minima as
    /// `+inf` and the maxima as `-inf`, which no comparison keeps. Only
    /// the sign of a zero extreme can differ from a scan in order, and
    /// [`QuantParams::from_min_max`] widens every range to include 0, so
    /// the parameters cannot.
    pub fn observe(&mut self, values: &[f32]) {
        let mut min = [f32::INFINITY; LANES];
        let mut max = [f32::NEG_INFINITY; LANES];
        let blocks = values.chunks_exact(LANES);
        let tail = blocks.remainder();
        for block in blocks {
            for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(block) {
                let finite = v.is_finite();
                let low = if finite { v } else { f32::INFINITY };
                let high = if finite { v } else { f32::NEG_INFINITY };
                *lo = if low < *lo { low } else { *lo };
                *hi = if high > *hi { high } else { *hi };
            }
        }
        for &v in min.iter().chain(tail) {
            if v.is_finite() && v < self.min {
                self.min = v;
            }
        }
        for &v in max.iter().chain(tail) {
            if v.is_finite() && v > self.max {
                self.max = v;
            }
        }
    }

    /// Produces asymmetric quantization parameters for the observed range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCalibration`] if no finite value was
    /// observed.
    pub fn to_params(&self) -> Result<QuantParams> {
        if self.min > self.max {
            return Err(QuantError::EmptyCalibration);
        }
        QuantParams::from_min_max(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_max_tracks_extremes() {
        let mut cal = Calibrator::new();
        cal.observe(&[1.0, -3.0]);
        cal.observe(&[2.0]);
        let p = cal.to_params().unwrap();
        // Range [-3, 2] must be covered.
        assert!(p.real_min() <= -3.0 + p.scale());
        assert!(p.real_max() >= 2.0 - p.scale());
    }

    #[test]
    fn empty_calibration_is_error() {
        let cal = Calibrator::new();
        assert_eq!(cal.to_params().unwrap_err(), QuantError::EmptyCalibration);
    }

    /// The scan in order that the lane-wise `observe` replaces.
    fn sequential(batches: &[Vec<f32>]) -> Calibrator {
        let mut cal = Calibrator::new();
        for &v in batches.iter().flatten() {
            if v.is_finite() && v < cal.min {
                cal.min = v;
            }
            if v.is_finite() && v > cal.max {
                cal.max = v;
            }
        }
        cal
    }

    /// Mostly ordinary values, with NaN payloads, ±inf and ±0 mixed in.
    fn value() -> impl Strategy<Value = f32> {
        (0u8..14, -50.0f32..50.0, any::<u32>()).prop_map(|(kind, v, bits)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::from_bits(0xffc0_0001),
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => f32::from_bits(bits),
            _ => v,
        })
    }

    proptest! {
        #[test]
        fn lanes_give_the_parameters_of_a_scan_in_order(
            batches in proptest::collection::vec(proptest::collection::vec(value(), 0..70), 0..4),
            sign in 0..3u8,
        ) {
            // Also all-non-negative and all-non-positive batches, where a
            // zero can be the extreme the parameters are built from.
            let batches: Vec<Vec<f32>> = batches
                .into_iter()
                .map(|b| {
                    b.into_iter()
                        .map(|v| match sign {
                            0 => v,
                            1 => v.abs(),
                            _ => -v.abs(),
                        })
                        .collect()
                })
                .collect();
            let mut cal = Calibrator::new();
            for batch in &batches {
                cal.observe(batch);
            }
            let reference = sequential(&batches);
            prop_assert_eq!(cal.to_params(), reference.to_params());
            prop_assert!(cal.min == reference.min && cal.max == reference.max);
        }
    }

    #[test]
    fn zero_extremes_give_the_same_parameters_whatever_their_sign() {
        for batch in [
            [0.0f32, -0.0, 1.0],
            [-0.0, 0.0, 1.0],
            [0.0, -0.0, -1.0],
            [-0.0, 0.0, -0.0],
        ] {
            let mut cal = Calibrator::new();
            cal.observe(&batch);
            assert_eq!(cal.to_params(), sequential(&[batch.to_vec()]).to_params());
        }
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut cal = Calibrator::new();
        cal.observe(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert!(cal.to_params().is_err());
        cal.observe(&[0.5]);
        assert!(cal.to_params().is_ok());
    }
}
