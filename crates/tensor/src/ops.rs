//! Vector kernels shared across the workspace.
//!
//! These are the scalar building blocks of both HDC proper (dot-product
//! similarity, `tanh` non-linearity, bundling/detaching updates) and the
//! execution engines that time them.

use crate::error::TensorError;
use crate::Result;

/// Dot product of two equal-length slices.
///
/// This is the paper's *approximate similarity check*
/// `delta(E, C) = E . C` used in place of full cosine similarity so the
/// operation lowers to a plain MAC loop on the accelerator.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// let d = hd_tensor::ops::dot(&[1.0, 2.0], &[3.0, 4.0])?;
/// assert_eq!(d, 11.0);
/// # Ok(())
/// # }
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> Result<f32> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: (1, a.len()),
            rhs: (1, b.len()),
        });
    }
    // Unrolled by 4 to let the compiler vectorize without fast-math flags.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    Ok(sum)
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Full cosine similarity `a . b / (|a| |b|)`.
///
/// Returns `0.0` when either vector has zero norm (the similarity of an
/// untrained, all-zero class hypervector to anything is defined as zero,
/// matching the paper's training start state).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
pub fn cosine(a: &[f32], b: &[f32]) -> Result<f32> {
    let d = dot(a, b)?;
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return Ok(0.0);
    }
    Ok(d / (na * nb))
}

/// In-place `y += alpha * x` (the HDC *bundling* update with learning rate
/// `alpha`; *detaching* is the same call with a negative `alpha`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) -> Result<()> {
    if x.len() != y.len() {
        return Err(TensorError::ShapeMismatch {
            op: "axpy",
            lhs: (1, x.len()),
            rhs: (1, y.len()),
        });
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// Below this magnitude [`tanh`] takes its odd polynomial, from it on the
/// exponential form.
const TANH_POLY_LIMIT: f32 = 0.55;

/// `tanh(a) = a + a·u·P(u)` with `u = a²` on `[0, 0.55]`: a degree-4
/// Chebyshev fit of `(tanh(a) − a) / a³`.
const TANH_ODD: [f32; 5] = [
    -3.333_333e-1,
    1.333_311_3e-1,
    -5.390_943e-2,
    2.130_938_9e-2,
    -6.610_227_7e-3,
];

/// `e^r = 1 + r·Q(r)` on `[0, ln 2)`: a degree-5 Chebyshev fit of
/// `(e^r − 1) / r`. Every coefficient is positive.
const EXP_Q: [f32; 6] = [
    1.0,
    5.000_014_3e-1,
    1.666_423_8e-1,
    4.181_424_5e-2,
    7.932_47e-3,
    1.877_087_3e-3,
];

/// `f32` rounds `tanh` to 1.0 from `13·ln 2 ≈ 9.011` on; clamping there
/// keeps `e^{2|x|}` finite.
const TANH_CLAMP: f32 = 10.0;
/// `ln 2` split so that `n·LN2_HI` is exact for every `n` reached here.
const LN2_HI: f32 = 6.931_457_5e-1;
const LN2_LO: f32 = 1.428_606_8e-6;
/// Adding and subtracting `2^23` rounds a small non-negative `f32` to an
/// integer.
const ROUND: f32 = 8_388_608.0;
const SIGN: u32 = 0x8000_0000;

/// `c[0] + x·(c[1] + x·(… + x·c[last]))`.
#[inline(always)]
fn horner<const N: usize>(x: f32, c: &[f32; N]) -> f32 {
    let (rest, last) = c.split_at(N - 1);
    rest.iter().rev().fold(last[0], |acc, &k| k + x * acc)
}

/// Hyperbolic tangent — the paper's non-linear encoding activation — as
/// the workspace computes it everywhere on the host.
///
/// Built only from IEEE `+ − × ÷`, compares, selects and bit operations
/// in a fixed order with no fused multiply-add, so it returns the same
/// bits on every host, libm and vector width. Both forms are evaluated
/// and one is selected, so a loop over it vectorizes without branches.
///
/// * `|x| < 0.55`: an odd polynomial.
/// * Otherwise `1 − 2/(e^{2|x|} + 1)`, with `e^z = 2^n · e^r`,
///   `n = ⌊z / ln 2⌋` and a polynomial for `e^r`, `r ∈ [0, ln 2)`.
///   Each step is a monotone function of the one before, so the result
///   is monotone; `r ≥ 0` and `e^r ≤ 2` are enforced so that neighbouring
///   `n` stay ordered where a rounded `z / ln 2` picks `n`.
/// * The sign of `x` is copied back by bit operation, so `tanh(−x)` is
///   bit-equal to `−tanh(x)`. NaN passes through, `±∞ → ±1`, `±0 → ±0`
///   and subnormals map to themselves.
///
/// Over all 2^32 inputs it is monotone non-decreasing and within 1 ULP
/// of `(x as f64).tanh() as f32` (`tests/tanh.rs`, an ignored exhaustive
/// test).
///
/// # Examples
///
/// ```
/// use hd_tensor::ops::tanh;
///
/// assert_eq!(tanh(0.0), 0.0);
/// assert_eq!(tanh(-2.0), -tanh(2.0));
/// assert_eq!(tanh(f32::INFINITY), 1.0);
/// assert!((tanh(0.5) - 0.462_117_16).abs() < 1e-7);
/// ```
#[inline]
pub fn tanh(x: f32) -> f32 {
    let bits = x.to_bits();
    let a = f32::from_bits(bits & !SIGN);

    let u = a * a;
    let odd = a + a * (u * horner(u, &TANH_ODD));

    // NaN compares false and takes the clamp; it is passed through below.
    let z = 2.0 * if a < TANH_CLAMP { a } else { TANH_CLAMP };
    let t = z * std::f32::consts::LOG2_E;
    let nearest = (t + ROUND) - ROUND;
    let n = if nearest > t { nearest - 1.0 } else { nearest };
    let r = (z - n * LN2_HI) - n * LN2_LO;
    let r = if r > 0.0 { r } else { 0.0 };
    let exp_r = 1.0 + r * horner(r, &EXP_Q);
    let exp_r = if exp_r < 2.0 { exp_r } else { 2.0 };
    // `n + 2^23 + 127` holds the biased exponent of 2^n in its low bits.
    let pow2_n = f32::from_bits((n + (ROUND + 127.0)).to_bits() << 23);
    let saturating = 1.0 - 2.0 / (exp_r * pow2_n + 1.0);

    let y = if a < TANH_POLY_LIMIT { odd } else { saturating };
    if x.is_nan() {
        x
    } else {
        f32::from_bits(y.to_bits() | (bits & SIGN))
    }
}

/// Applies [`tanh`] element-wise in place — the paper's non-linear
/// encoding activation. The loop auto-vectorizes to whatever lane width
/// the build targets; every width gives the same bits.
pub fn tanh_inplace(a: &mut [f32]) {
    for v in a.iter_mut() {
        *v = tanh(*v);
    }
}

/// Index of the maximum element, breaking ties toward the lower index —
/// the paper's `arg max` class prediction.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for an empty slice.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// assert_eq!(hd_tensor::ops::argmax(&[0.1, 0.9, 0.9])?, 1);
/// # Ok(())
/// # }
/// ```
pub fn argmax(a: &[f32]) -> Result<usize> {
    if a.is_empty() {
        return Err(TensorError::EmptyDimension { op: "argmax" });
    }
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > a[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Scales a slice in place.
pub fn scale_inplace(a: &mut [f32], factor: f32) {
    for v in a.iter_mut() {
        *v *= factor;
    }
}

/// Normalizes a slice to unit L2 norm in place; leaves a zero vector
/// untouched.
pub fn normalize_inplace(a: &mut [f32]) {
    let n = norm(a);
    if n > 0.0 {
        scale_inplace(a, 1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
    }

    #[test]
    fn dot_handles_remainder_lanes() {
        // Length 7 exercises both the unrolled body and the tail loop.
        let a = [1.0; 7];
        let b = [2.0; 7];
        assert_eq!(dot(&a, &b).unwrap(), 14.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let c = cosine(&[1.0, 2.0], &[2.0, 4.0]).unwrap();
        assert!((c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let c = cosine(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn axpy_bundles() {
        let mut y = vec![1.0, 1.0];
        axpy(0.5, &[2.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn axpy_negative_detaches() {
        let mut y = vec![2.0, 3.0];
        axpy(-0.5, &[2.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![1.0, 1.0]);
    }

    #[test]
    fn axpy_rejects_mismatch() {
        let mut y = vec![0.0];
        assert!(axpy(1.0, &[1.0, 2.0], &mut y).is_err());
    }

    #[test]
    fn tanh_saturates() {
        let mut v = vec![-100.0, 0.0, 100.0];
        tanh_inplace(&mut v);
        assert!((v[0] + 1.0).abs() < 1e-6);
        assert_eq!(v[1], 0.0);
        assert!((v[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_ties_break_low() {
        assert_eq!(argmax(&[5.0, 5.0, 1.0]).unwrap(), 0);
    }

    #[test]
    fn argmax_rejects_empty() {
        assert!(argmax(&[]).is_err());
    }

    #[test]
    fn argmax_finds_last_position() {
        assert_eq!(argmax(&[1.0, 2.0, 9.0]).unwrap(), 2);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_inplace(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector() {
        let mut v = vec![0.0, 0.0];
        normalize_inplace(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }
}
