use crate::error::QuantError;
use crate::Result;

/// The affine int8 quantization mapping `real = scale * (q - zero_point)`.
///
/// `scale` is always positive; `zero_point` lies in the `i8` range so that
/// real zero is exactly representable (a TFLite requirement that matters for
/// zero-padded bagging merges: a zeroed weight column must dequantize to
/// exactly `0.0`).
///
/// # Examples
///
/// ```
/// use hd_quant::QuantParams;
///
/// # fn main() -> Result<(), hd_quant::QuantError> {
/// let p = QuantParams::from_min_max(-1.0, 1.0)?;
/// let q = p.quantize(0.5);
/// assert!((p.dequantize(q) - 0.5).abs() < p.scale());
/// assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Quantized value range lower bound.
    pub const QMIN: i32 = i8::MIN as i32;
    /// Quantized value range upper bound.
    pub const QMAX: i32 = i8::MAX as i32;

    /// Creates parameters covering the real range `[min, max]`.
    ///
    /// The range is widened to include zero if necessary so that real zero
    /// is exactly representable.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if `min > max` or either bound
    /// is non-finite, and [`QuantError::InvalidScale`] if the range
    /// degenerates to a single point at zero width.
    pub fn from_min_max(min: f32, max: f32) -> Result<Self> {
        if !min.is_finite() || !max.is_finite() || min > max {
            return Err(QuantError::InvalidRange { min, max });
        }
        // Force the range to include zero (TFLite convention).
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = max - min;
        if span == 0.0 {
            // All-zero tensor: any positive scale works; pick 1.0.
            return Ok(QuantParams {
                scale: 1.0,
                zero_point: 0,
            });
        }
        let scale = span / (Self::QMAX - Self::QMIN) as f32;
        // Choose the zero point so that real 0.0 maps to an exact integer.
        let zp_real = Self::QMIN as f32 - min / scale;
        let zero_point = zp_real.round().clamp(Self::QMIN as f32, Self::QMAX as f32) as i32;
        Ok(QuantParams { scale, zero_point })
    }

    /// Creates *symmetric* parameters for the range `[-max_abs, max_abs]`
    /// with a zero point of 0 — the convention used for weights, where a
    /// zero zero-point keeps the accelerator's MAC loop free of zero-point
    /// correction terms.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if `max_abs` is negative or
    /// non-finite.
    pub fn symmetric(max_abs: f32) -> Result<Self> {
        if !max_abs.is_finite() || max_abs < 0.0 {
            return Err(QuantError::InvalidRange {
                min: -max_abs,
                max: max_abs,
            });
        }
        if max_abs == 0.0 {
            return Ok(QuantParams {
                scale: 1.0,
                zero_point: 0,
            });
        }
        Ok(QuantParams {
            scale: max_abs / Self::QMAX as f32,
            zero_point: 0,
        })
    }

    /// Creates parameters from raw scale and zero point.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] for a non-positive or
    /// non-finite scale, and [`QuantError::InvalidRange`] if the zero point
    /// falls outside the `i8` range.
    pub fn from_raw(scale: f32, zero_point: i32) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(QuantError::InvalidScale { scale });
        }
        if !(Self::QMIN..=Self::QMAX).contains(&zero_point) {
            return Err(QuantError::InvalidRange {
                min: zero_point as f32,
                max: zero_point as f32,
            });
        }
        Ok(QuantParams { scale, zero_point })
    }

    /// The positive scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero point, guaranteed to be within the `i8` range.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes a real value to `i8`, rounding to nearest and saturating.
    pub fn quantize(&self, value: f32) -> i8 {
        let q = (value / self.scale).round() + self.zero_point as f32;
        q.clamp(Self::QMIN as f32, Self::QMAX as f32) as i8
    }

    /// Recovers the real value represented by a quantized `i8`.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }

    /// Requantizes an `i32` accumulator carrying `acc_scale`-scaled values
    /// into this parameter set — the accelerator's output stage.
    ///
    /// `real = acc_scale * acc`, so `q_out = real / scale + zp`.
    pub fn requantize_accumulator(&self, acc: i32, acc_scale: f32) -> i8 {
        let real = acc_scale * acc as f32;
        self.quantize(real)
    }

    /// Smallest representable real value.
    pub fn real_min(&self) -> f32 {
        self.dequantize(i8::MIN)
    }

    /// Largest representable real value.
    pub fn real_max(&self) -> f32 {
        self.dequantize(i8::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_exactly_representable() {
        for &(lo, hi) in &[(-1.0, 1.0), (0.0, 6.0), (-3.0, 0.5), (-0.1, 7.3)] {
            let p = QuantParams::from_min_max(lo, hi).unwrap();
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_scale() {
        let p = QuantParams::from_min_max(-2.0, 2.0).unwrap();
        for i in -20..=20 {
            let v = i as f32 / 10.0;
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale() / 2.0 + 1e-6, "value {v} error {err}");
        }
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let p = QuantParams::from_min_max(-1.0, 1.0).unwrap();
        assert_eq!(p.quantize(100.0), i8::MAX);
        assert_eq!(p.quantize(-100.0), i8::MIN);
    }

    #[test]
    fn symmetric_has_zero_zero_point() {
        let p = QuantParams::symmetric(3.0).unwrap();
        assert_eq!(p.zero_point(), 0);
        assert_eq!(p.quantize(0.0), 0);
        assert!((p.dequantize(p.quantize(3.0)) - 3.0).abs() < p.scale());
    }

    #[test]
    fn symmetric_negative_max_rejected() {
        assert!(QuantParams::symmetric(-1.0).is_err());
        assert!(QuantParams::symmetric(f32::NAN).is_err());
    }

    #[test]
    fn degenerate_all_zero_range() {
        let p = QuantParams::from_min_max(0.0, 0.0).unwrap();
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.dequantize(0), 0.0);
    }

    #[test]
    fn invalid_ranges_rejected() {
        assert!(QuantParams::from_min_max(1.0, -1.0).is_err());
        assert!(QuantParams::from_min_max(f32::NAN, 1.0).is_err());
        assert!(QuantParams::from_min_max(0.0, f32::INFINITY).is_err());
    }

    #[test]
    fn from_raw_validates() {
        assert!(QuantParams::from_raw(0.0, 0).is_err());
        assert!(QuantParams::from_raw(-0.5, 0).is_err());
        assert!(QuantParams::from_raw(0.5, 200).is_err());
        let p = QuantParams::from_raw(0.5, -3).unwrap();
        assert_eq!(p.scale(), 0.5);
        assert_eq!(p.zero_point(), -3);
    }

    #[test]
    fn asymmetric_range_covers_bounds() {
        let p = QuantParams::from_min_max(0.0, 6.0).unwrap();
        assert!(p.real_min() <= 0.0 + p.scale());
        assert!(p.real_max() >= 6.0 - p.scale());
    }

    #[test]
    fn requantize_accumulator_matches_direct_quantization() {
        let out = QuantParams::from_min_max(-4.0, 4.0).unwrap();
        // acc carries values at combined scale 0.01.
        let acc = 250; // real 2.5
        let q = out.requantize_accumulator(acc, 0.01);
        assert_eq!(q, out.quantize(2.5));
    }

    #[test]
    fn monotonicity_of_quantization() {
        let p = QuantParams::from_min_max(-1.0, 1.0).unwrap();
        let mut prev = p.quantize(-1.0);
        for i in -9..=10 {
            let q = p.quantize(i as f32 / 10.0);
            assert!(q >= prev);
            prev = q;
        }
    }
}
