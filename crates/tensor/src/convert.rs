//! The int8 conversion kernel: `f32 → i8` quantization and `i32 → i8`
//! requantization, the host's half of every quantized device call.
//!
//! Both forms are one formula, [`quantize_value`]: the exact result of
//!
//! ```text
//! ((v / scale).round() + zero_point as f32).clamp(-128.0, 127.0) as i8
//! ```
//!
//! rounding half away from zero, saturating, and mapping NaN to 0,
//! written with IEEE `+ − ÷`, compares, selects and bit operations only,
//! so a loop over it vectorizes without branches or libm calls:
//!
//! * the quotient stays a true division: `v * (1 / scale)` rounds twice
//!   and gives different bits for some inputs;
//! * it is clamped to ±256. The zero point is an `i8`, so every quotient
//!   past ±256 saturates to the same rail either way, and the clamp keeps
//!   the next step exact;
//! * adding and subtracting `1.5 · 2^23` rounds it to the nearest
//!   integer, ties to even;
//! * an exact `.5` tie that went toward zero is moved one step away from
//!   zero (the remainder `x − r` is exact, and is ±0.5 only at a tie);
//! * the zero point is added and the sum clamped to `[-128, 127]`; the
//!   integer is the low byte of the bits of `q + 1.5 · 2^23`;
//! * NaN gives 0.
//!
//! Requantization is the same formula applied to `acc_scale * acc as f32`.
//!
//! The slice forms, [`quantize`] and [`requantize`], run one safe loop
//! over that formula at the widest vector width the host has: the loop
//! is compiled for AVX-512, for AVX2, and for the build's baseline (SSE2
//! on x86-64). Every width gives the same bits as the one-value form.
//! The baseline loop runs under [`crate::kernels::set_simd_enabled`]`(false)`,
//! `HD_NO_SIMD` and Miri. The conversion is not a GEMM and bumps no
//! kernel counter.
//!
//! # Examples
//!
//! ```
//! use hd_tensor::convert;
//!
//! let q = convert::quantize(&[0.0, 0.25, -0.25, 100.0, f32::NAN], 0.5, 3);
//! assert_eq!(q, [3, 4, 2, 127, 0]);
//! // Ties round away from zero, as `f32::round` does.
//! assert_eq!(convert::quantize_value(2.5, 1.0, 0), 3);
//! assert_eq!(convert::requantize(&[-7, i32::MAX], 0.5, 1.0, 0), [-4, 127]);
//! ```

/// `1.5 · 2^23`: adding it to an `f32` of magnitude at most `2^22`
/// rounds away every fraction bit, and the sum's low mantissa bits hold
/// the integer in two's complement.
const ROUND: f32 = 12_582_912.0;

/// Past this magnitude every quotient saturates whatever the `i8` zero
/// point; within it, adding [`ROUND`] is exact.
const SATURATED: f32 = 256.0;

/// Quantizes one value: `v / scale`, rounded to nearest with ties away
/// from zero, plus `zero_point`, saturated to `[-128, 127]`; NaN gives 0.
/// Bit-identical to `((v / scale).round() + zero_point as f32)
/// .clamp(-128.0, 127.0) as i8` for every `v` and `scale`.
#[inline(always)]
#[must_use]
pub fn quantize_value(value: f32, scale: f32, zero_point: i8) -> i8 {
    let x = value / scale;
    // NaN compares false through both clamps; it is mapped to 0 below.
    let x = if x < -SATURATED { -SATURATED } else { x };
    let x = if x > SATURATED { SATURATED } else { x };
    let r = (x + ROUND) - ROUND;
    let t = x - r;
    let r = if t >= 0.5 && x > 0.0 {
        r + 1.0
    } else if t <= -0.5 && x < 0.0 {
        r - 1.0
    } else {
        r
    };
    let q = r + f32::from(zero_point);
    let q = if q < -128.0 { -128.0 } else { q };
    let q = if q > 127.0 { 127.0 } else { q };
    // The low byte of `q + 1.5 · 2^23` is `q` in two's complement.
    let byte = (q + ROUND).to_bits() as u8 as i8;
    if x.is_nan() {
        0
    } else {
        byte
    }
}

/// Requantizes one `i32` accumulator that carries `acc_scale`-scaled
/// values: [`quantize_value`] of `acc_scale * acc as f32`.
#[inline(always)]
#[must_use]
pub fn requantize_value(acc: i32, acc_scale: f32, scale: f32, zero_point: i8) -> i8 {
    quantize_value(acc_scale * acc as f32, scale, zero_point)
}

/// Quantizes every value of `values` with [`quantize_value`], at the
/// widest vector width the host has.
#[must_use]
pub fn quantize(values: &[f32], scale: f32, zero_point: i8) -> Vec<i8> {
    quantize_on(Width::selected(), values, scale, zero_point)
}

/// Requantizes every accumulator of `acc` with [`requantize_value`], at
/// the widest vector width the host has.
#[must_use]
pub fn requantize(acc: &[i32], acc_scale: f32, scale: f32, zero_point: i8) -> Vec<i8> {
    requantize_on(Width::selected(), acc, acc_scale, scale, zero_point)
}

fn quantize_on(width: Width, values: &[f32], scale: f32, zero_point: i8) -> Vec<i8> {
    let mut out = vec![0i8; values.len()];
    crate::gemm::run_on(
        width,
        #[inline(always)]
        || {
            convert_portable(values, &mut out, |v| quantize_value(v, scale, zero_point));
        },
    );
    out
}

fn requantize_on(width: Width, acc: &[i32], acc_scale: f32, scale: f32, zero_point: i8) -> Vec<i8> {
    let mut out = vec![0i8; acc.len()];
    crate::gemm::run_on(
        width,
        #[inline(always)]
        || {
            convert_portable(acc, &mut out, |a| {
                requantize_value(a, acc_scale, scale, zero_point)
            });
        },
    );
    out
}

/// The loop every width compiles: `out[i] = f(src[i])`.
#[inline(always)]
fn convert_portable<T: Copy>(src: &[T], out: &mut [i8], f: impl Fn(T) -> i8) {
    for (o, &s) in out.iter_mut().zip(src) {
        *o = f(s);
    }
}

/// The vector widths the conversion loop is compiled for. All of them
/// run the same safe loop and produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// 16 lanes (`avx512f`, with `avx512bw` for the byte stores).
    Avx512,
    /// 8 lanes (`avx2`).
    Avx2,
    /// The build's baseline: Miri, `HD_NO_SIMD`, and hosts without AVX2.
    Baseline,
}

impl Width {
    /// Every width, in order of preference.
    pub(crate) const ALL: [Width; 3] = [Width::Avx512, Width::Avx2, Width::Baseline];

    /// Whether this host can run the width.
    pub(crate) fn supported(self) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Width::Avx512 => has!("avx512f") && has!("avx512bw"),
                Width::Avx2 => has!("avx2"),
                Width::Baseline => true,
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            self == Width::Baseline
        }
    }

    /// The width the dispatcher runs right now: the first one the host
    /// supports, or the baseline when SIMD is not permitted.
    pub(crate) fn selected() -> Width {
        if !crate::kernels::simd_permitted() {
            return Width::Baseline;
        }
        Width::ALL
            .into_iter()
            .find(|width| width.supported())
            .unwrap_or(Width::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The formula the kernel replaces, kept as its reference.
    fn reference(value: f32, scale: f32, zero_point: i8) -> i8 {
        let q = (value / scale).round() + f32::from(zero_point);
        q.clamp(-128.0, 127.0) as i8
    }

    fn requantize_reference(acc: i32, acc_scale: f32, scale: f32, zero_point: i8) -> i8 {
        reference(acc_scale * acc as f32, scale, zero_point)
    }

    /// Every width this host can run: the baseline everywhere, the SIMD
    /// widths where their features are detected.
    fn host_widths() -> impl Iterator<Item = Width> {
        Width::ALL.into_iter().filter(|width| width.supported())
    }

    /// Checks every host width and the one-value form against the
    /// reference on `values`.
    fn check_quantize(values: &[f32], scale: f32, zero_point: i8) {
        let expected: Vec<i8> = values
            .iter()
            .map(|&v| reference(v, scale, zero_point))
            .collect();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                quantize_value(v, scale, zero_point),
                expected[i],
                "{v:e} / {scale:e} + {zero_point}"
            );
        }
        for width in host_widths() {
            let got = quantize_on(width, values, scale, zero_point);
            for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    g, e,
                    "{width:?}: {:e} / {scale:e} + {zero_point}",
                    values[i]
                );
            }
            assert_eq!(got.len(), values.len());
        }
        assert_eq!(quantize(values, scale, zero_point), expected);
    }

    fn check_requantize(acc: &[i32], acc_scale: f32, scale: f32, zero_point: i8) {
        let expected: Vec<i8> = acc
            .iter()
            .map(|&a| requantize_reference(a, acc_scale, scale, zero_point))
            .collect();
        for (&a, &e) in acc.iter().zip(&expected) {
            assert_eq!(requantize_value(a, acc_scale, scale, zero_point), e, "{a}");
        }
        for width in host_widths() {
            let got = requantize_on(width, acc, acc_scale, scale, zero_point);
            assert_eq!(got, expected, "{width:?}: x{acc_scale:e} / {scale:e}");
        }
        assert_eq!(requantize(acc, acc_scale, scale, zero_point), expected);
    }

    /// Values the formula treats specially, at scale 1: NaN payloads of
    /// both signs, ±inf, ±0, every exact `.5` tie near the rails, and the
    /// ±256 clamp from both sides.
    fn special_values() -> Vec<f32> {
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            0.499_999_97,
            -0.499_999_97,
            256.0,
            -256.0,
            SATURATED.next_up(),
            (-SATURATED).next_down(),
            SATURATED.next_down(),
            (-SATURATED).next_up(),
            255.5,
            -255.5,
            4_194_304.5,
            8_388_607.5,
            ROUND,
            -ROUND,
        ];
        for i in -300..=300 {
            let v = i as f32 + 0.5;
            values.extend([v, v.next_up(), v.next_down()]);
        }
        values
    }

    #[test]
    fn special_values_match_the_reference_at_every_width() {
        let values = special_values();
        for (scale, zero_point) in [(1.0, 0), (1.0, -128), (1.0, 127), (0.5, 5), (2.0, -7)] {
            check_quantize(&values, scale, zero_point);
        }
        // Scales that overflow, underflow or reach NaN in the quotient.
        for scale in [
            f32::from_bits(1),
            f32::MAX,
            f32::INFINITY,
            0.0,
            -1.0,
            f32::NAN,
        ] {
            check_quantize(&values, scale, 3);
        }
    }

    #[test]
    fn requantize_matches_the_reference_at_the_extremes() {
        let acc = [
            i32::MIN,
            i32::MIN + 1,
            -1,
            0,
            1,
            i32::MAX - 1,
            i32::MAX,
            255,
            -255,
        ];
        for acc_scale in [
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1e-30,
            4.6566e-10,
            1.0,
            1e30,
            f32::MAX,
        ] {
            for (scale, zero_point) in [(1.0, 0), (3.7e-3, 127), (250.0, -128)] {
                check_requantize(&acc, acc_scale, scale, zero_point);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random bit patterns, lengths 0..=70 so every width's vector
        /// body and scalar tail run.
        #[test]
        fn quantize_matches_the_reference(
            bits in proptest::collection::vec(any::<u32>(), 0..71),
            near in proptest::collection::vec(-300.0f32..300.0, 0..71),
            (kind, scale_bits, scale) in (0u8..3, any::<u32>(), 1e-6f32..1e3),
            zero_point in any::<i8>(),
        ) {
            let scale = match kind {
                0 => 1.0,
                1 => f32::from_bits(scale_bits),
                _ => scale,
            };
            let values: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            check_quantize(&values, scale, zero_point);
            let ties: Vec<f32> = near.iter().map(|v| v.trunc() + 0.5).collect();
            check_quantize(&ties, 1.0, zero_point);
            check_quantize(&near, scale, zero_point);
        }

        #[test]
        fn requantize_matches_the_reference(
            acc in proptest::collection::vec(any::<i32>(), 0..71),
            (wide, scale_bits, acc_scale) in (any::<bool>(), any::<u32>(), 1e-12f32..1e-3),
            scale in 1e-6f32..1e3,
            zero_point in any::<i8>(),
        ) {
            let acc_scale = if wide { f32::from_bits(scale_bits) } else { acc_scale };
            check_requantize(&acc, acc_scale, scale, zero_point);
        }
    }

    #[test]
    fn simd_switch_selects_the_baseline() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::kernels::set_simd_enabled(false);
        assert_eq!(Width::selected(), Width::Baseline);
        check_quantize(&special_values(), 0.5, -3);
        crate::kernels::set_simd_enabled(true);
        assert!(Width::selected().supported());
    }

    /// Inputs per chunk of the exhaustive tests.
    const CHUNK: u32 = 1 << 20;

    /// Calls `check(first)` for the chunk of `CHUNK` bit patterns from
    /// `first`, for every chunk of the 2^32, split over the host's threads.
    fn exhaustively(check: impl Fn(u32) + Sync) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let chunks = (1u64 << 32) / u64::from(CHUNK);
        std::thread::scope(|scope| {
            for thread in 0..threads as u64 {
                let check = &check;
                scope.spawn(move || {
                    for chunk in (thread..chunks).step_by(threads) {
                        check((chunk * u64::from(CHUNK)) as u32);
                    }
                });
            }
        });
    }

    /// All 2^32 `f32` inputs at several scales and zero points, on every
    /// width this host has, against the reference formula. Run with
    /// `cargo test --release -p hd-tensor --lib -- --ignored exhaustive`;
    /// the subnormal scale makes every division slow, so it takes
    /// minutes.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn exhaustive_quantize_matches_the_reference() {
        let pairs: [(f32, i8); 5] = [
            (1e-40, -128),
            (3.7e-3, 127),
            (1.0, -7),
            (250.0, 5),
            (0.007_843_138, 0),
        ];
        for (scale, zero_point) in pairs {
            exhaustively(|first| {
                let values: Vec<f32> = (first..=first + (CHUNK - 1)).map(f32::from_bits).collect();
                let expected: Vec<i8> = values
                    .iter()
                    .map(|&v| reference(v, scale, zero_point))
                    .collect();
                for width in host_widths() {
                    let got = quantize_on(width, &values, scale, zero_point);
                    if let Some(i) = got.iter().zip(&expected).position(|(g, e)| g != e) {
                        panic!(
                            "{width:?}: {:e} (bits {:#x}) / {scale:e} + {zero_point} gives {}, not {}",
                            values[i],
                            values[i].to_bits(),
                            got[i],
                            expected[i]
                        );
                    }
                }
                for (&v, &e) in values.iter().zip(&expected).step_by(61) {
                    assert_eq!(quantize_value(v, scale, zero_point), e, "{v:e}");
                }
            });
        }
    }

    /// All 2^32 `i32` accumulators at two requantization scales, on every
    /// width this host has, against the reference formula.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn exhaustive_requantize_matches_the_reference() {
        for (acc_scale, scale, zero_point) in [(2.3e-5f32, 0.011f32, -9i8), (1e-9, 3.1e-6, 127)] {
            exhaustively(|first| {
                let acc: Vec<i32> = (first..=first + (CHUNK - 1))
                    .map(|bits| bits as i32)
                    .collect();
                let expected: Vec<i8> = acc
                    .iter()
                    .map(|&a| requantize_reference(a, acc_scale, scale, zero_point))
                    .collect();
                for width in host_widths() {
                    let got = requantize_on(width, &acc, acc_scale, scale, zero_point);
                    assert!(got == expected, "{width:?} at accumulators from {first:#x}");
                }
            });
        }
    }
}
