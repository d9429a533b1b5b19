//! The owned `tanh` ([`hd_tensor::ops::tanh`]): sampled properties in the
//! tier-1 run, and an exhaustive check over all 2^32 inputs that runs with
//! `cargo test --release -p hd-tensor --test tanh -- --ignored`.

use proptest::prelude::*;

use hd_tensor::ops;

const SIGN: u32 = 0x8000_0000;

/// Position of a non-NaN `f32` on the number line, in units in the last
/// place, with `-0.0` and `+0.0` both at 0.
fn ordinal(x: f32) -> i64 {
    let bits = x.to_bits();
    let magnitude = i64::from(bits & !SIGN);
    if bits & SIGN == 0 {
        magnitude
    } else {
        -magnitude
    }
}

/// ULP distance of `y` from `(x as f64).tanh()` rounded to `f32`.
fn ulp_error(x: f32, y: f32) -> u64 {
    let reference = (f64::from(x)).tanh() as f32;
    (ordinal(y) - ordinal(reference)).unsigned_abs()
}

/// The error bound the exhaustive test measures over all inputs.
const MAX_ULP: u64 = 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tanh_is_odd_bounded_monotone_and_accurate(
        bits in proptest::collection::vec(any::<u32>(), 0..32),
        near in proptest::collection::vec(-12.0f32..12.0, 0..32),
    ) {
        let mut xs: Vec<f32> = bits
            .into_iter()
            .map(f32::from_bits)
            .filter(|x| !x.is_nan())
            .chain(near)
            .collect();
        xs.sort_by(f32::total_cmp);
        let mut prev = f32::NEG_INFINITY;
        for x in xs {
            let y = ops::tanh(x);
            prop_assert_eq!(ops::tanh(-x).to_bits(), (-y).to_bits(), "odd at {:e}", x);
            prop_assert!(y.abs() <= 1.0, "tanh({:e}) = {:e}", x, y);
            prop_assert!(y >= prev, "decreases at {:e}", x);
            prop_assert!(ulp_error(x, y) <= MAX_ULP, "tanh({:e}) = {:e}", x, y);
            // The next float up never maps lower.
            if x.is_finite() && x >= 0.0 {
                let up = f32::from_bits(x.to_bits() + 1);
                prop_assert!(ops::tanh(up) >= y, "decreases after {:e}", x);
            }
            prev = y;
        }
    }
}

#[test]
fn tanh_special_values() {
    for nan in [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_1234),
    ] {
        assert_eq!(
            ops::tanh(nan).to_bits(),
            nan.to_bits(),
            "NaN passes through"
        );
    }
    assert_eq!(ops::tanh(f32::INFINITY), 1.0);
    assert_eq!(ops::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(ops::tanh(f32::MAX), 1.0);
    assert_eq!(ops::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(ops::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    for bits in [1, 0x0000_1234, 0x007f_ffff] {
        let x = f32::from_bits(bits);
        assert_eq!(ops::tanh(x), x, "subnormal {x:e}");
        assert_eq!(ops::tanh(-x), -x, "subnormal {:e}", -x);
    }
    assert_eq!(ops::tanh(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
}

/// All 2^32 inputs: every NaN passes through, negative inputs are the
/// bit-exact negation of positive ones, and over the non-negative
/// inputs in order the result never decreases and stays within
/// [`MAX_ULP`] of the `f64` reference. About two minutes in release.
#[test]
#[ignore = "exhaustive over 2^32 inputs; run with --release -- --ignored"]
fn tanh_exhaustive_odd_monotone_within_ulp_bound() {
    let infinity = f32::INFINITY.to_bits();
    let mut prev = f32::NEG_INFINITY;
    let mut worst = (0, 0.0f32);
    let mut inexact = 0u64;
    for bits in 0..=infinity {
        let x = f32::from_bits(bits);
        let y = ops::tanh(x);
        assert_eq!(ops::tanh(-x).to_bits(), (-y).to_bits(), "odd at {x:e}");
        assert!(y >= prev, "decreases at {x:e}: {prev:e} -> {y:e}");
        let err = ulp_error(x, y);
        inexact += u64::from(err > 0);
        if err > worst.0 {
            worst = (err, x);
        }
        prev = y;
    }
    println!(
        "worst {} ULP at {:e}; {inexact} of {} non-negative inputs differ from the reference",
        worst.0,
        worst.1,
        u64::from(infinity) + 1
    );
    assert!(worst.0 <= MAX_ULP, "{} ULP at {:e}", worst.0, worst.1);
    for bits in (infinity + 1..SIGN).chain(SIGN | (infinity + 1)..=u32::MAX) {
        let x = f32::from_bits(bits);
        assert_eq!(ops::tanh(x).to_bits(), bits, "NaN {bits:#x}");
    }
}
