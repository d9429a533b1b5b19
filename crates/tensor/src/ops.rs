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

/// Rows [`dots`] scores per pass over the sample.
const DOTS_GROUP: usize = 8;

/// Dot products of `sample` with every row of `rows`, written to `scores`:
/// the perceptron update's similarity against all classes.
///
/// Each row keeps [`dot`]'s own four lane accumulators and final
/// reduction, so `scores[j]` is bit-identical to `dot(sample, &rows[j])`.
/// Scoring eight rows per pass over `sample` gives the CPU 32 independent
/// adds per step instead of the four that one `dot` waits on.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if a row's length differs from
/// `sample`'s or `scores` does not hold one score per row.
pub fn dots<R: AsRef<[f32]>>(sample: &[f32], rows: &[R], scores: &mut [f32]) -> Result<()> {
    let d = sample.len();
    if let Some(row) = rows.iter().find(|r| r.as_ref().len() != d) {
        return Err(TensorError::ShapeMismatch {
            op: "dots",
            lhs: (1, d),
            rhs: (1, row.as_ref().len()),
        });
    }
    if scores.len() != rows.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dots (scores)",
            lhs: (1, scores.len()),
            rhs: (rows.len(), d),
        });
    }
    let grouped = rows.len() / DOTS_GROUP * DOTS_GROUP;
    for (group, out) in rows[..grouped]
        .chunks_exact(DOTS_GROUP)
        .zip(scores.chunks_exact_mut(DOTS_GROUP))
    {
        let group: [&[f32]; DOTS_GROUP] = std::array::from_fn(|c| &group[c].as_ref()[..d]);
        out.copy_from_slice(&dot_group(sample, &group));
    }
    for (row, score) in rows[grouped..].iter().zip(&mut scores[grouped..]) {
        *score = dot(sample, row.as_ref())?;
    }
    Ok(())
}

/// [`dot`] of `sample` with each of `rows` (all of `sample`'s length),
/// interleaved so the rows' accumulator chains overlap.
fn dot_group(sample: &[f32], rows: &[&[f32]; DOTS_GROUP]) -> [f32; DOTS_GROUP] {
    let mut acc = [[0.0f32; 4]; DOTS_GROUP];
    let body = sample.len() / 4 * 4;
    for (base, s) in (0..body).step_by(4).zip(sample.chunks_exact(4)) {
        for (acc, row) in acc.iter_mut().zip(rows) {
            let r = &row[base..base + 4];
            for lane in 0..4 {
                acc[lane] += s[lane] * r[lane];
            }
        }
    }
    std::array::from_fn(|c| {
        let acc = acc[c];
        let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
        for (s, r) in sample[body..].iter().zip(&rows[c][body..]) {
            sum += s * r;
        }
        sum
    })
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

/// Applies `tanh` element-wise in place — the paper's non-linear encoding
/// activation.
pub fn tanh_inplace(a: &mut [f32]) {
    for v in a.iter_mut() {
        *v = v.tanh();
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
