//! Quantized matrix multiplication with `i32` accumulators.
//!
//! Every int8 product of the workspace runs here, over weights in their
//! one stored form: [`PackedQuantizedMatrix`] (and, per channel,
//! [`crate::per_channel::ChannelQuantizedMatrix`]), packed for the
//! `hd_tensor` `i8` kernel when they were quantized or read from a model
//! file. `wide-nn`'s `QuantizedModel::run_quantized` is the one stage
//! loop over these products; the simulated device and the host fallback
//! both run it, so their outputs are the same by construction.
//!
//! The affine algebra: with `a = sa (qa - za)` and `b = sb (qb - zb)`,
//!
//! ```text
//! sum_p a[i,p] b[p,j] = sa sb * sum_p (qa[i,p] - za)(qb[p,j] - zb)
//! ```
//!
//! so the integer kernel accumulates `(qa - za)(qb - zb)` in `i32` and the
//! combined scale `sa * sb` converts the accumulator to real values.

use hd_tensor::gemm::PackedI8;
use hd_tensor::{Matrix, TensorError};

use crate::matrix::{PackedQuantizedMatrix, QuantizedMatrix};
use crate::params::QuantParams;
use crate::Result;

/// Checks that `a (m x k)` can multiply a `k`-deep `b`.
fn check(a: &QuantizedMatrix, b: &PackedI8) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "quantized matmul",
            lhs: a.shape(),
            rhs: (b.rows(), b.cols()),
        }
        .into());
    }
    Ok(())
}

/// Deepest reduction for which every accumulator in this module is exact
/// whatever the operand values: `floor((2^31 - 1) / 255^2)`.
///
/// Operands are `i8` and zero points lie in `[-128, 127]`, so each
/// centred term satisfies `|(qa - za)(qb - zb)| <= 255^2 = 65025` and a
/// `k`-deep sum fits `i32` for every `k <= 33025`. Every intermediate of
/// the zero-point decomposition in [`matmul_accumulate`] is bounded by
/// `3 * 128^2 * k` and fits too. The bound needs nothing from the weight
/// values, so it also covers weights flipped by fault injection.
pub const MAX_EXACT_DEPTH: usize = 33_025;

/// `sum_p (qa[i,p] - za)(qb[p,j] - zb)` for a packed `k x n` right
/// operand `b` with zero point `zb`: the raw `qa·qb` product through the
/// SIMD-dispatched int8 kernel, then the zero-point decomposition
///
/// ```text
/// sum_p (qa - za)(qb - zb)
///   = sum_p qa qb - za * colsum_b[j] - zb * rowsum_a[i] + k za zb
/// ```
///
/// with `colsum_b` read from the packed copy. Exact for
/// `k <= MAX_EXACT_DEPTH`.
pub(crate) fn centred_product(a: &QuantizedMatrix, b: &PackedI8, zb: i32) -> Result<Vec<i32>> {
    let (m, k) = a.shape();
    let n = b.cols();
    let za = a.params().zero_point();
    let mut acc = hd_tensor::gemm::matmul_i8_packed(a.as_slice(), b, m)?;
    if za != 0 || zb != 0 {
        let row_sums = (0..m).map(|i| a.row(i).iter().map(|&aq| i32::from(aq)).sum::<i32>());
        let k_za_zb = crate::narrow::saturate_i64_to_i32(i64::from(za) * i64::from(zb) * k as i64);
        for (out_row, rs) in acc.chunks_mut(n.max(1)).zip(row_sums) {
            let row_corr = zb * rs;
            for (o, &cs) in out_row.iter_mut().zip(b.col_sums()) {
                *o = *o - za * cs - row_corr + k_za_zb;
            }
        }
    }
    Ok(acc)
}

/// Multiplies activations `a` by weights `b`, returning the raw `i32`
/// accumulator matrix and the combined accumulator scale.
///
/// `real[i][j] = acc_scale * acc[i][j]`. The accumulator is exact for any
/// operand values while `a.cols() <= MAX_EXACT_DEPTH`.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
pub fn matmul_accumulate(
    a: &QuantizedMatrix,
    b: &PackedQuantizedMatrix,
) -> Result<(Vec<i32>, f32)> {
    check(a, b.packed())?;
    let acc = centred_product(a, b.packed(), b.params().zero_point())?;
    Ok((acc, a.params().scale() * b.params().scale()))
}

/// Multiplies activations `a` by weights `b` and dequantizes the result
/// to `f32`.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use hd_quant::{gemm, PackedQuantizedMatrix, QuantParams, QuantizedMatrix};
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = QuantizedMatrix::quantize(
///     &Matrix::from_rows(&[&[1.0, 0.5]])?,
///     QuantParams::from_min_max(-1.0, 1.0)?,
/// );
/// let b = PackedQuantizedMatrix::quantize(
///     &Matrix::from_rows(&[&[1.0], &[1.0]])?,
///     QuantParams::symmetric(1.0)?,
/// );
/// let c = gemm::matmul_dequantized(&a, &b)?;
/// assert!((c[(0, 0)] - 1.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn matmul_dequantized(a: &QuantizedMatrix, b: &PackedQuantizedMatrix) -> Result<Matrix> {
    let (acc, scale) = matmul_accumulate(a, b)?;
    let data: Vec<f32> = acc.iter().map(|&v| scale * v as f32).collect();
    Matrix::from_vec(a.rows(), b.cols(), data).map_err(Into::into)
}

/// Multiplies activations `a` by weights `b` and requantizes the result
/// into `out_params` — the full accelerator datapath for one layer.
///
/// # Errors
///
/// Returns a wrapped [`TensorError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
pub fn matmul_requantized(
    a: &QuantizedMatrix,
    b: &PackedQuantizedMatrix,
    out_params: QuantParams,
) -> Result<QuantizedMatrix> {
    let (acc, scale) = matmul_accumulate(a, b)?;
    let data = out_params.requantize_all(&acc, scale);
    Ok(QuantizedMatrix::from_raw(
        a.rows(),
        b.cols(),
        data,
        out_params,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::gemm as fgemm;
    use hd_tensor::rng::DetRng;

    fn quantize_pair(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> (Matrix, Matrix, QuantizedMatrix, PackedQuantizedMatrix) {
        let mut rng = DetRng::new(seed);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let qa = QuantizedMatrix::quantize(&a, QuantParams::from_min_max(-1.0, 1.0).unwrap());
        let qb = PackedQuantizedMatrix::quantize(&b, QuantParams::symmetric(1.0).unwrap());
        (a, b, qa, qb)
    }

    #[test]
    fn quantized_product_approximates_float_product() {
        let (a, b, qa, qb) = quantize_pair(6, 40, 5, 1);
        let exact = fgemm::matmul(&a, &b).unwrap();
        let approx = matmul_dequantized(&qa, &qb).unwrap();
        // Error per output element is ~ sqrt(k) * scale; k=40 and scale
        // ~1/127 gives a generous bound of 0.4.
        for (x, y) in exact.iter().zip(approx.iter()) {
            assert!((x - y).abs() < 0.4, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_point_correction_is_exact_for_representable_values() {
        // Values exactly representable under the chosen params: the
        // quantized product must match the float product exactly.
        let params_a = QuantParams::from_raw(0.5, 10).unwrap();
        let params_b = QuantParams::from_raw(0.25, 0).unwrap();
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap(); // multiples of 0.5
        let b = Matrix::from_rows(&[&[0.75], &[-0.5]]).unwrap(); // multiples of 0.25
        let qa = QuantizedMatrix::quantize(&a, params_a);
        let qb = PackedQuantizedMatrix::quantize(&b, params_b);
        let c = matmul_dequantized(&qa, &qb).unwrap();
        assert_eq!(c[(0, 0)], 1.0 * 0.75 + (-2.0) * (-0.5));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let p = QuantParams::symmetric(1.0).unwrap();
        let a = QuantizedMatrix::from_raw(2, 3, vec![0; 6], p);
        let b = PackedQuantizedMatrix::from_raw(2, 2, &[0; 4], p);
        assert!(matmul_accumulate(&a, &b).is_err());
        assert!(matmul_dequantized(&a, &b).is_err());
        assert!(matmul_requantized(&a, &b, p).is_err());
    }

    #[test]
    fn requantized_output_uses_out_params() {
        let (_, _, qa, qb) = quantize_pair(3, 16, 3, 2);
        let out_params = QuantParams::from_min_max(-16.0, 16.0).unwrap();
        let rq = matmul_requantized(&qa, &qb, out_params).unwrap();
        assert_eq!(rq.params(), out_params);
        // Dequantized requantized result approximates the dequantized
        // accumulator result to within one output step.
        let full = matmul_dequantized(&qa, &qb).unwrap();
        let approx = rq.dequantize();
        for (x, y) in full.iter().zip(approx.iter()) {
            assert!((x - y).abs() <= out_params.scale() / 2.0 + 1e-5);
        }
    }

    /// The fused scalar kernel this module used before the SIMD reroute;
    /// kept as the ground-truth reference for the decomposition.
    fn fused_reference(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Vec<i32> {
        let n = b.cols();
        let za = a.params().zero_point();
        let zb = b.params().zero_point();
        let mut acc = vec![0i32; a.rows() * n];
        for (i, out_row) in acc.chunks_mut(n.max(1)).enumerate() {
            for (p, &aq) in a.row(i).iter().enumerate() {
                let av = i32::from(aq) - za;
                for (o, &bq) in out_row.iter_mut().zip(b.row(p)) {
                    *o += av * (i32::from(bq) - zb);
                }
            }
        }
        acc
    }

    #[test]
    fn zero_point_decomposition_matches_fused_reference() {
        for (seed, m, k, n, za, zb) in [
            (10u64, 4usize, 33usize, 7usize, 10i32, -3i32),
            (11, 1, 1, 1, -128, 127),
            (12, 6, 64, 16, 0, 5),
            (13, 3, 17, 2, 7, 0),
            (14, 5, 100, 9, 0, 0),
        ] {
            let mut rng = DetRng::new(seed);
            let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
            let qa = QuantizedMatrix::quantize(&a, QuantParams::from_raw(0.01, za).unwrap());
            let qb = QuantizedMatrix::quantize(&b, QuantParams::from_raw(0.01, zb).unwrap());
            let packed = PackedQuantizedMatrix::from_raw(k, n, qb.as_slice(), qb.params());
            let (acc, _) = matmul_accumulate(&qa, &packed).unwrap();
            assert_eq!(acc, fused_reference(&qa, &qb), "seed {seed}");
        }
    }

    #[test]
    fn max_exact_depth_is_the_i32_bound_for_centred_terms() {
        let term = 255i64 * 255;
        let depth = MAX_EXACT_DEPTH as i64;
        assert!(depth * term <= i64::from(i32::MAX));
        assert!((depth + 1) * term > i64::from(i32::MAX));
    }

    #[test]
    fn accumulator_is_deterministic() {
        let (_, _, qa, qb) = quantize_pair(4, 20, 4, 3);
        let (acc1, s1) = matmul_accumulate(&qa, &qb).unwrap();
        let (acc2, s2) = matmul_accumulate(&qa, &qb).unwrap();
        assert_eq!(acc1, acc2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn zero_lhs_row_gives_zero_outputs() {
        let pa = QuantParams::from_raw(1.0, 0).unwrap();
        let a = QuantizedMatrix::from_raw(1, 3, vec![0, 0, 0], pa);
        let b = PackedQuantizedMatrix::from_raw(3, 2, &[1, 2, 3, 4, 5, 6], pa);
        let (acc, _) = matmul_accumulate(&a, &b).unwrap();
        assert_eq!(acc, vec![0, 0]);
    }
}
