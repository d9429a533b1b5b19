//! Activation lookup tables for int8 datapaths.
//!
//! Edge accelerators do not evaluate transcendental functions; they apply
//! activations through a 256-entry table indexed by the quantized input
//! byte. The paper's non-linear encoder needs `tanh`; this module builds
//! the table once per (input params, output params) pair. The one int8
//! stage loop (`wide-nn`'s `QuantizedModel::run_quantized`, which the
//! `tpu-sim` device and the host fallback both run) applies activations
//! through [`ActivationLut`].

use crate::params::QuantParams;

/// A 256-entry `i8 -> i8` lookup table implementing a scalar activation
/// function under affine quantization.
///
/// # Examples
///
/// ```
/// use hd_quant::{lut::ActivationLut, QuantParams};
///
/// # fn main() -> Result<(), hd_quant::QuantError> {
/// let input = QuantParams::from_min_max(-8.0, 8.0)?;
/// let output = QuantParams::from_min_max(-1.0, 1.0)?;
/// let tanh = ActivationLut::tanh(input, output);
/// let q_in = input.quantize(0.0);
/// let q_out = tanh.apply(q_in);
/// assert_eq!(output.dequantize(q_out), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationLut {
    table: Vec<i8>,
    input_params: QuantParams,
    output_params: QuantParams,
}

impl ActivationLut {
    /// Builds a table for an arbitrary scalar function.
    #[must_use]
    pub fn from_fn(
        input_params: QuantParams,
        output_params: QuantParams,
        f: impl Fn(f32) -> f32,
    ) -> Self {
        let table = (i8::MIN as i32..=i8::MAX as i32)
            .map(|q| {
                let real_in = input_params.dequantize(q as i8);
                output_params.quantize(f(real_in))
            })
            .collect();
        ActivationLut {
            table,
            input_params,
            output_params,
        }
    }

    /// Builds the hyperbolic-tangent table used by the paper's non-linear
    /// encoding layer, from [`hd_tensor::ops::tanh`]: the same function
    /// the host encoder applies.
    #[must_use]
    pub fn tanh(input_params: QuantParams, output_params: QuantParams) -> Self {
        Self::from_fn(input_params, output_params, hd_tensor::ops::tanh)
    }

    /// Builds an identity (requantization-only) table.
    #[must_use]
    pub fn identity(input_params: QuantParams, output_params: QuantParams) -> Self {
        Self::from_fn(input_params, output_params, |v| v)
    }

    /// Reassembles a table from raw parts (used by model deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `table.len() != 256`.
    #[must_use]
    pub fn from_parts(
        table: Vec<i8>,
        input_params: QuantParams,
        output_params: QuantParams,
    ) -> Self {
        assert_eq!(table.len(), 256, "activation table must have 256 entries");
        ActivationLut {
            table,
            input_params,
            output_params,
        }
    }

    /// The raw 256-entry table, indexed by `q - i8::MIN`.
    pub fn table(&self) -> &[i8] {
        &self.table
    }

    /// Applies the activation to a single quantized value.
    pub fn apply(&self, q: i8) -> i8 {
        self.table[(q as i32 - i8::MIN as i32) as usize]
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice(&self, values: &mut [i8]) {
        for v in values {
            *v = self.apply(*v);
        }
    }

    /// Quantization parameters expected on the input side.
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// Quantization parameters produced on the output side.
    pub fn output_params(&self) -> QuantParams {
        self.output_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(in_lo: f32, in_hi: f32, out_lo: f32, out_hi: f32) -> (QuantParams, QuantParams) {
        (
            QuantParams::from_min_max(in_lo, in_hi).unwrap(),
            QuantParams::from_min_max(out_lo, out_hi).unwrap(),
        )
    }

    #[test]
    fn tanh_lut_tracks_float_tanh() {
        let (pin, pout) = mk(-4.0, 4.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        for q in i8::MIN..=i8::MAX {
            let real_in = pin.dequantize(q);
            let expected = real_in.tanh();
            let actual = pout.dequantize(lut.apply(q));
            assert!(
                (expected - actual).abs() <= pout.scale(),
                "tanh({real_in}) = {expected}, lut gave {actual}"
            );
        }
    }

    #[test]
    fn tanh_lut_is_monotonic() {
        let (pin, pout) = mk(-4.0, 4.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        let mut prev = lut.apply(i8::MIN);
        for q in (i8::MIN + 1)..=i8::MAX {
            let cur = lut.apply(q);
            assert!(cur >= prev, "lut not monotonic at q={q}");
            prev = cur;
        }
    }

    #[test]
    fn tanh_lut_saturates() {
        let (pin, pout) = mk(-8.0, 8.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        // tanh(±8) is ±1 to float precision, so the extremes map to the
        // quantized representations of ±1.
        assert_eq!(lut.apply(i8::MIN), pout.quantize(-1.0));
        assert_eq!(lut.apply(i8::MAX), pout.quantize(1.0));
    }

    #[test]
    fn zero_maps_to_zero() {
        let (pin, pout) = mk(-4.0, 4.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        let q_zero = pin.quantize(0.0);
        assert_eq!(pout.dequantize(lut.apply(q_zero)), 0.0);
    }

    #[test]
    fn identity_lut_requantizes() {
        let (pin, pout) = mk(-2.0, 2.0, -2.0, 2.0);
        let lut = ActivationLut::identity(pin, pout);
        for q in [-100i8, -1, 0, 1, 100] {
            let real = pin.dequantize(q);
            let rt = pout.dequantize(lut.apply(q));
            assert!((real - rt).abs() <= pout.scale());
        }
    }

    #[test]
    fn apply_slice_matches_apply() {
        let (pin, pout) = mk(-4.0, 4.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        let mut values: Vec<i8> = (-5..5).collect();
        let expected: Vec<i8> = values.iter().map(|&v| lut.apply(v)).collect();
        lut.apply_slice(&mut values);
        assert_eq!(values, expected);
    }

    #[test]
    fn accessors_return_construction_params() {
        let (pin, pout) = mk(-1.0, 1.0, -1.0, 1.0);
        let lut = ActivationLut::tanh(pin, pout);
        assert_eq!(lut.input_params(), pin);
        assert_eq!(lut.output_params(), pout);
    }
}
