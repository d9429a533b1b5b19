use crate::error::QuantError;
use crate::params::QuantParams;
use crate::Result;

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
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
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

    #[test]
    fn non_finite_values_are_ignored() {
        let mut cal = Calibrator::new();
        cal.observe(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert!(cal.to_params().is_err());
        cal.observe(&[0.5]);
        assert!(cal.to_params().is_ok());
    }
}
