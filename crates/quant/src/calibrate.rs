use hd_tensor::stats;

use crate::error::QuantError;
use crate::params::QuantParams;
use crate::Result;

/// Strategy for choosing the real-value range covered by the int8 mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationMethod {
    /// Cover the exact observed `[min, max]` range.
    MinMax,
    /// Clip to the `[1-q, q]` percentile band (e.g. `q = 0.999`) to stop a
    /// handful of outliers from inflating the scale and crushing the rest
    /// of the distribution into a few integer levels.
    Percentile(f64),
}

/// Streaming range observer for post-training quantization.
///
/// Feed it representative activations (for HDC encoding: a batch of raw
/// samples, and the resulting encoded hypervectors), then convert to
/// [`QuantParams`].
///
/// # Examples
///
/// ```
/// use hd_quant::{CalibrationMethod, Calibrator};
///
/// # fn main() -> Result<(), hd_quant::QuantError> {
/// let mut cal = Calibrator::new(CalibrationMethod::MinMax);
/// cal.observe(&[-0.8, 0.3, 0.9]);
/// let params = cal.to_params()?;
/// assert!(params.real_min() <= -0.8);
/// assert!(params.real_max() >= 0.9 - params.scale());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    method: CalibrationMethod,
    min: f32,
    max: f32,
    /// Retained samples; only populated for percentile calibration.
    samples: Vec<f32>,
    observed: bool,
}

impl Calibrator {
    /// Creates a calibrator with the given range-selection method.
    #[must_use]
    pub fn new(method: CalibrationMethod) -> Self {
        Calibrator {
            method,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            samples: Vec::new(),
            observed: false,
        }
    }

    /// Observes a batch of values. Non-finite values are ignored.
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            self.observed = true;
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
            if matches!(self.method, CalibrationMethod::Percentile(_)) {
                self.samples.push(v);
            }
        }
    }

    /// Number of retained samples (percentile mode only).
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Produces asymmetric quantization parameters for the observed range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCalibration`] if no finite value was
    /// observed.
    pub fn to_params(&self) -> Result<QuantParams> {
        let (lo, hi) = self.range()?;
        QuantParams::from_min_max(lo, hi)
    }

    /// Produces symmetric (zero zero-point) parameters covering the
    /// observed absolute maximum — the weight-tensor convention.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCalibration`] if no finite value was
    /// observed.
    pub fn to_symmetric_params(&self) -> Result<QuantParams> {
        let (lo, hi) = self.range()?;
        QuantParams::symmetric(lo.abs().max(hi.abs()))
    }

    fn range(&self) -> Result<(f32, f32)> {
        if !self.observed {
            return Err(QuantError::EmptyCalibration);
        }
        match self.method {
            CalibrationMethod::MinMax => Ok((self.min, self.max)),
            CalibrationMethod::Percentile(q) => {
                let hi = stats::percentile(&self.samples, q).ok_or(QuantError::EmptyCalibration)?;
                let lo = stats::percentile(&self.samples, 1.0 - q)
                    .ok_or(QuantError::EmptyCalibration)?;
                Ok((lo, hi))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_tracks_extremes() {
        let mut cal = Calibrator::new(CalibrationMethod::MinMax);
        cal.observe(&[1.0, -3.0]);
        cal.observe(&[2.0]);
        let p = cal.to_params().unwrap();
        // Range [-3, 2] must be covered.
        assert!(p.real_min() <= -3.0 + p.scale());
        assert!(p.real_max() >= 2.0 - p.scale());
    }

    #[test]
    fn empty_calibration_is_error() {
        let cal = Calibrator::new(CalibrationMethod::MinMax);
        assert_eq!(cal.to_params().unwrap_err(), QuantError::EmptyCalibration);
        assert_eq!(
            cal.to_symmetric_params().unwrap_err(),
            QuantError::EmptyCalibration
        );
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut cal = Calibrator::new(CalibrationMethod::MinMax);
        cal.observe(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert!(cal.to_params().is_err());
        cal.observe(&[0.5]);
        assert!(cal.to_params().is_ok());
    }

    #[test]
    fn percentile_clips_outliers() {
        let mut values: Vec<f32> = (0..1000).map(|i| (i as f32 / 1000.0) * 2.0 - 1.0).collect();
        values.push(1000.0); // single extreme outlier

        let mut minmax = Calibrator::new(CalibrationMethod::MinMax);
        minmax.observe(&values);
        let mut pct = Calibrator::new(CalibrationMethod::Percentile(0.999));
        pct.observe(&values);

        let scale_minmax = minmax.to_params().unwrap().scale();
        let scale_pct = pct.to_params().unwrap().scale();
        assert!(
            scale_pct < scale_minmax / 50.0,
            "percentile scale {scale_pct} should be much finer than min/max {scale_minmax}"
        );
    }

    #[test]
    fn symmetric_params_cover_abs_max() {
        let mut cal = Calibrator::new(CalibrationMethod::MinMax);
        cal.observe(&[-5.0, 2.0]);
        let p = cal.to_symmetric_params().unwrap();
        assert_eq!(p.zero_point(), 0);
        assert!((p.dequantize(p.quantize(-5.0)) + 5.0).abs() < p.scale());
    }

    #[test]
    fn sample_count_only_in_percentile_mode() {
        let mut a = Calibrator::new(CalibrationMethod::MinMax);
        a.observe(&[1.0, 2.0]);
        assert_eq!(a.sample_count(), 0);

        let mut b = Calibrator::new(CalibrationMethod::Percentile(0.99));
        b.observe(&[1.0, 2.0]);
        assert_eq!(b.sample_count(), 2);
    }
}
