//! Blocked, optionally multi-threaded matrix multiplication.
//!
//! HDC encoding is "indeed a vector–matrix multiplication that is ready to
//! accelerate on most hardware accelerators" (paper, Section III-A); on the
//! host CPU baseline it is a plain SGEMM. This module provides a cache
//! blocked kernel plus a row-parallel driver — a two-stage SDF schedule
//! (plan → rows) executed through the generic runtime in
//! [`hd_dataflow::runtime`] — so that the *functional* parts of the
//! experiments (accuracy measurements) finish in reasonable wall-clock
//! time. The *analytic* runtime models in the `cpu-model` and `tpu-sim`
//! crates are what reproduce the paper's timing figures; this kernel's
//! real speed is never reported as an experiment result.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};

use hd_dataflow::runtime::{self, Binding, ExecutablePlan, Fire};
use hd_dataflow::{Resource, SdfGraph};

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// Cache-block edge length used by the inner kernel.
const BLOCK: usize = 64;

/// Process-wide worker-thread cap set via [`set_thread_cap`]; `0` means
/// uncapped (use every hardware thread).
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Minimum per-thread work (in output elements) before threads are spawned.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

fn check_compatible(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Multiplies `a (m x k)` by `b (k x n)`, producing an `m x n` matrix.
///
/// Uses a blocked kernel, and splits rows across threads when the output is
/// large enough to amortize thread startup.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use hd_tensor::{Matrix, gemm};
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0]])?;
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]])?;
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 11.0);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_compatible(a, b, "matmul")?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// Multiplies `a` by `b`, writing into the caller-provided `out` matrix to
/// reuse its allocation across training iterations.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operand shapes are
/// incompatible or `out` has the wrong shape.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    check_compatible(a, b, "matmul_into")?;
    if out.shape() != (a.rows(), b.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_into (output)",
            lhs: out.shape(),
            rhs: (a.rows(), b.cols()),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    out.as_mut_slice().fill(0.0);

    let work = m.saturating_mul(n);
    let threads = available_threads();
    if work >= PARALLEL_THRESHOLD && threads > 1 && m > 1 {
        parallel_rows(a, b, out, threads);
    } else {
        block_kernel(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    }
    Ok(())
}

/// Vector–matrix product `x (1 x k) * b (k x n)`, returning a length-`n`
/// vector. This is the per-sample encoding step `E = F x B`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != b.rows()`.
pub fn matvec(x: &[f32], b: &Matrix) -> Result<Vec<f32>> {
    if x.len() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: (1, x.len()),
            rhs: b.shape(),
        });
    }
    let n = b.cols();
    let mut out = vec![0.0f32; n];
    // Row-major b: accumulate row-by-row, which is sequential in memory.
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = b.row(i);
        for (o, &bv) in out.iter_mut().zip(row) {
            *o += xi * bv;
        }
    }
    Ok(out)
}

/// Caps the number of worker threads the parallel kernels may use; `0`
/// clears the cap. `1` forces the exact sequential kernel, which callers
/// use to pin bit-exact reproductions and to keep wall-clock measurements
/// of *other* parallelism (e.g. per-member training threads) honest.
pub fn set_thread_cap(threads: usize) {
    THREAD_CAP.store(threads, Ordering::Relaxed);
}

/// The worker-thread budget currently in effect: hardware parallelism,
/// clamped by [`set_thread_cap`] and by the `HD_THREADS` environment
/// variable (when set to a positive integer).
pub fn available_threads() -> usize {
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = THREAD_CAP.load(Ordering::Relaxed);
    if cap > 0 {
        threads = threads.min(cap);
    }
    if let Some(env_cap) = std::env::var("HD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        threads = threads.min(env_cap);
    }
    threads.max(1)
}

/// One row-band of the output, paired with the matching band of `a`.
struct RowJob<'a> {
    a: &'a [f32],
    out: &'a mut [f32],
    rows: usize,
}

fn parallel_rows(a: &Matrix, b: &Matrix, out: &mut Matrix, threads: usize) {
    let (m, k) = a.shape();
    let n = b.cols();
    let rows_per_chunk = m.div_ceil(threads).max(1);
    let a_data = a.as_slice();
    let b_data = b.as_slice();

    // Carve the output into disjoint row bands up front; the plan stage
    // hands one band per firing to the worker-pooled rows stage.
    let mut jobs = Vec::new();
    let mut remaining = out.as_mut_slice();
    let mut row_start = 0;
    while row_start < m {
        let rows_here = rows_per_chunk.min(m - row_start);
        let (chunk, rest) = remaining.split_at_mut(rows_here * n);
        remaining = rest;
        jobs.push(RowJob {
            a: &a_data[row_start * k..(row_start + rows_here) * k],
            out: chunk,
            rows: rows_here,
        });
        row_start += rows_here;
    }

    let bands = jobs.len();
    let mut graph = SdfGraph::new("gemm-rows");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let rows = graph.add_stage("rows", Resource::Host, 0.0);
    graph.add_channel(plan, rows, bands, 1, Some(bands));
    let plan = ExecutablePlan::validate(graph).expect("gemm row schedule is statically valid");

    let mut jobs = Some(jobs);
    let bindings: Vec<Binding<'_, RowJob<'_>, Infallible>> = vec![
        Binding::Map(Box::new(move |_, _| {
            Ok((jobs.take().unwrap_or_default(), Fire::Continue))
        })),
        Binding::ParMap {
            workers: threads,
            f: Box::new(move |_, mut inputs| {
                let job = inputs.pop().expect("one row band per firing");
                block_kernel(job.a, b_data, job.out, job.rows, k, n);
                Ok(Vec::new())
            }),
        },
    ];
    runtime::run(&plan, 1, bindings).expect("gemm row schedule cannot fail");
}

/// The serial blocked kernel: `out (m x n) += a (m x k) * b (k x n)`.
///
/// `out` must be zeroed by the caller. Iteration order is (i, p, j) within
/// blocks so the innermost loop streams both `b` and `out` rows.
fn block_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n + jb..i * n + j_end];
                    for p in pb..p_end {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n + jb..p * n + j_end];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Checks the slice lengths for an `m x k` by `k x n` int8 product.
fn check_i8_shapes(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<()> {
    if a.len() != m.saturating_mul(k) {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: a.len(),
        });
    }
    if b.len() != k.saturating_mul(n) {
        return Err(TensorError::LengthMismatch {
            expected: k * n,
            actual: b.len(),
        });
    }
    Ok(())
}

/// Whether the SIMD `i8` kernel would be selected right now: policy
/// (`set_simd_enabled` / `HD_NO_SIMD`) plus runtime feature detection.
fn i8_simd_selected() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        crate::kernels::simd_permitted() && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Name of the `i8` GEMM kernel the dispatcher would select right now
/// (`"avx2"` or `"portable"`). Exposed via
/// [`crate::kernels::i8_gemm_kernel_name`].
pub(crate) fn selected_i8_kernel() -> &'static str {
    if i8_simd_selected() {
        "avx2"
    } else {
        "portable"
    }
}

/// Blocked `i8 x i8 -> i32` GEMM: multiplies row-major `a (m x k)` by
/// `b (k x n)`, returning the `m x n` accumulator matrix as a flat
/// vector.
///
/// Dispatches to a runtime-detected AVX2 kernel when permitted (see
/// [`crate::kernels::set_simd_enabled`] and the `HD_NO_SIMD` variable)
/// and to a portable chunked kernel otherwise; both are bit-exact with
/// [`matmul_i8_i32_reference`]. Large products split into row bands
/// across worker threads under the same [`set_thread_cap`] /
/// `HD_THREADS` budget as the `f32` kernel.
///
/// The caller owns overflow. Raw products reach `128^2`, so the
/// accumulator is exact for any values while `k <= 131071`. Callers that
/// centre operands by zero points in `[-128, 127]` (`hd_quant::gemm`)
/// have terms up to `255^2` and are exact whatever the values for
/// `k <= 33025`; that is the bound the device enforces at model load.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length does not
/// match its declared shape.
pub fn matmul_i8_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_i8_shapes(a, b, m, k, n)?;
    let mut out = vec![0i32; m.saturating_mul(n)];
    let use_simd = i8_simd_selected();
    if use_simd {
        crate::kernels::note_simd_gemm();
    } else {
        crate::kernels::note_portable_gemm();
    }
    let threads = available_threads();
    if m.saturating_mul(n) >= PARALLEL_THRESHOLD && threads > 1 && m > 1 {
        parallel_rows_i8(a, b, &mut out, m, k, n, threads, use_simd);
    } else {
        i8_band_kernel(a, b, &mut out, m, k, n, use_simd);
    }
    Ok(out)
}

/// Reference (naive triple-loop) `i8` multiplication used by the
/// equivalence suites to pin [`matmul_i8_i32`] bit-exact.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length does not
/// match its declared shape.
pub fn matmul_i8_i32_reference(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<i32>> {
    check_i8_shapes(a, b, m, k, n)?;
    let mut out = vec![0i32; m.saturating_mul(n)];
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0i32;
            for p in 0..k {
                sum += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
            }
            out[i * n + j] = sum;
        }
    }
    Ok(out)
}

/// One row-band of an `i8` product.
struct RowJobI8<'a> {
    a: &'a [i8],
    out: &'a mut [i32],
    rows: usize,
}

/// Row-band parallel driver for the `i8` kernel: the same two-stage SDF
/// schedule (plan -> rows) as the `f32` path, executed through the
/// generic runtime.
#[allow(clippy::too_many_arguments)]
fn parallel_rows_i8(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    use_simd: bool,
) {
    let rows_per_chunk = m.div_ceil(threads).max(1);
    let mut jobs = Vec::new();
    let mut remaining = out;
    let mut row_start = 0;
    while row_start < m {
        let rows_here = rows_per_chunk.min(m - row_start);
        let (chunk, rest) = remaining.split_at_mut(rows_here * n);
        remaining = rest;
        jobs.push(RowJobI8 {
            a: &a[row_start * k..(row_start + rows_here) * k],
            out: chunk,
            rows: rows_here,
        });
        row_start += rows_here;
    }

    let bands = jobs.len();
    let mut graph = SdfGraph::new("gemm-i8-rows");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let rows = graph.add_stage("rows", Resource::Host, 0.0);
    graph.add_channel(plan, rows, bands, 1, Some(bands));
    let plan = ExecutablePlan::validate(graph).expect("gemm row schedule is statically valid");

    let mut jobs = Some(jobs);
    let bindings: Vec<Binding<'_, RowJobI8<'_>, Infallible>> = vec![
        Binding::Map(Box::new(move |_, _| {
            Ok((jobs.take().unwrap_or_default(), Fire::Continue))
        })),
        Binding::ParMap {
            workers: threads,
            f: Box::new(move |_, mut inputs| {
                let job = inputs.pop().expect("one row band per firing");
                i8_band_kernel(job.a, b, job.out, job.rows, k, n, use_simd);
                Ok(Vec::new())
            }),
        },
    ];
    runtime::run(&plan, 1, bindings).expect("gemm row schedule cannot fail");
}

/// Serial `i8` band kernel: dispatches one row band to the AVX2 or
/// portable implementation. `out` must be zeroed by the caller.
fn i8_band_kernel(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    use_simd: bool,
) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if use_simd {
        // SAFETY: `use_simd` is only true after the dispatcher observed
        // `is_x86_feature_detected!("avx2")`; slice bounds are checked by
        // `check_i8_shapes` and the band carving above.
        #[allow(unsafe_code)]
        unsafe {
            simd::gemm_i8_avx2(a, b, out, m, k, n)
        };
        return;
    }
    let _ = use_simd;
    i8_portable_kernel(a, b, out, m, k, n);
}

/// Portable blocked `i8` kernel: (i, p, j) loops with `i32` accumulation,
/// written so the inner `j` loop is a flat multiply-add stream LLVM can
/// autovectorize on any target.
fn i8_portable_kernel(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for pb in (0..k).step_by(BLOCK) {
            let p_end = (pb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n + jb..i * n + j_end];
                    for p in pb..p_end {
                        let av = i32::from(a_row[p]);
                        if av == 0 {
                            continue;
                        }
                        let b_row = &b[p * n + jb..p * n + j_end];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * i32::from(bv);
                        }
                    }
                }
            }
        }
    }
}

/// The AVX2 `i8` kernel. Isolated in its own module so the crate-level
/// `deny(unsafe_code)` stays intact everywhere else; this is the only
/// unsafe code in the workspace's algorithm crates.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// `out (m x n) += a (m x k) * b (k x n)` with 16-lane widening
    /// multiply-accumulate: per scalar `a[i,p]`, 16 `i8` values of the
    /// `b` row are sign-extended to `i16`, multiplied (products fit
    /// `i16`: |a·b| <= 128·128), widened to `i32`, and accumulated.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 is available and that slice lengths
    /// match the declared shapes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i8_avx2(
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &ap) in a_row.iter().enumerate() {
                if ap == 0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                let va = _mm256_set1_epi16(i16::from(ap));
                let mut j = 0usize;
                while j + 16 <= n {
                    // SAFETY: j + 16 <= n bounds every 16-lane access.
                    unsafe {
                        let vb8 = _mm_loadu_si128(b_row.as_ptr().add(j).cast());
                        let vb = _mm256_cvtepi8_epi16(vb8);
                        let prod = _mm256_mullo_epi16(va, vb);
                        let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
                        let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
                        let out_lo: *mut __m256i = out_row.as_mut_ptr().add(j).cast();
                        _mm256_storeu_si256(
                            out_lo,
                            _mm256_add_epi32(_mm256_loadu_si256(out_lo), lo),
                        );
                        let out_hi: *mut __m256i = out_row.as_mut_ptr().add(j + 8).cast();
                        _mm256_storeu_si256(
                            out_hi,
                            _mm256_add_epi32(_mm256_loadu_si256(out_hi), hi),
                        );
                    }
                    j += 16;
                }
                let av = i32::from(ap);
                for (o, &bv) in out_row[j..].iter_mut().zip(&b_row[j..]) {
                    *o += av * i32::from(bv);
                }
            }
        }
    }
}

/// Reference (naive triple-loop) multiplication used by tests to validate
/// the blocked/parallel kernels.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_compatible(a, b, "matmul_reference")?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0;
            for p in 0..k {
                sum += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = sum;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = DetRng::new(1);
        let a = Matrix::random_normal(5, 5, &mut rng);
        let c = matmul(&a, &Matrix::identity(5)).unwrap();
        assert_close(&c, &a, 0.0);
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn blocked_matches_reference_non_square() {
        let mut rng = DetRng::new(2);
        let a = Matrix::random_normal(17, 93, &mut rng);
        let b = Matrix::random_normal(93, 41, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn parallel_path_matches_reference() {
        // Large enough to cross PARALLEL_THRESHOLD.
        let mut rng = DetRng::new(3);
        let a = Matrix::random_normal(192, 80, &mut rng);
        let b = Matrix::random_normal(80, 512, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(2, 3);
        assert!(matmul_into(&a, &b, &mut out).is_err());
    }

    #[test]
    fn matmul_into_overwrites_previous_contents() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 2.0);
        let mut out = Matrix::filled(2, 2, 99.0);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_close(&out, &b, 0.0);
    }

    #[test]
    fn matvec_matches_matmul_row() {
        let mut rng = DetRng::new(4);
        let b = Matrix::random_normal(30, 17, &mut rng);
        let x = Matrix::random_normal(1, 30, &mut rng);
        let via_matmul = matmul(&x, &b).unwrap();
        let via_matvec = matvec(x.row(0), &b).unwrap();
        for (a, b) in via_matmul.row(0).iter().zip(&via_matvec) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_rejects_mismatch() {
        let b = Matrix::zeros(3, 2);
        assert!(matvec(&[1.0, 2.0], &b).is_err());
    }

    #[test]
    fn matvec_skips_zero_inputs() {
        let b = Matrix::from_rows(&[&[1.0], &[f32::NAN]]).unwrap();
        // The zero coefficient must not propagate the NaN row.
        let out = matvec(&[1.0, 0.0], &b).unwrap();
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn multiply_by_zero_matrix_is_zero() {
        let mut rng = DetRng::new(5);
        let a = Matrix::random_normal(8, 8, &mut rng);
        let z = Matrix::zeros(8, 8);
        let c = matmul(&a, &z).unwrap();
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn one_by_one_product() {
        let a = Matrix::from_vec(1, 1, vec![3.0]).unwrap();
        let b = Matrix::from_vec(1, 1, vec![4.0]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap()[(0, 0)], 12.0);
    }

    #[test]
    fn thread_cap_clamps_and_clears() {
        set_thread_cap(1);
        assert_eq!(available_threads(), 1);
        // A parallel-sized product must stay correct on the forced
        // sequential path.
        let mut rng = DetRng::new(7);
        let a = Matrix::random_normal(192, 80, &mut rng);
        let b = Matrix::random_normal(80, 512, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_close(&fast, &slow, 1e-3);
        set_thread_cap(0);
        assert!(available_threads() >= 1);
    }

    fn random_i8(len: usize, rng: &mut DetRng) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.next_normal() * 50.0).clamp(-127.0, 127.0) as i8)
            .collect()
    }

    #[test]
    fn i8_gemm_matches_reference_all_kernels() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = DetRng::new(8);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (17, 93, 41),
            (64, 64, 64),
            (5, 40, 33),
        ] {
            let a = random_i8(m * k, &mut rng);
            let b = random_i8(k * n, &mut rng);
            let slow = matmul_i8_i32_reference(&a, &b, m, k, n).unwrap();
            let fast = matmul_i8_i32(&a, &b, m, k, n).unwrap();
            assert_eq!(fast, slow, "({m},{k},{n}) selected kernel");
            // Force the portable kernel and re-check bit-exactness.
            crate::kernels::set_simd_enabled(false);
            let portable = matmul_i8_i32(&a, &b, m, k, n).unwrap();
            crate::kernels::set_simd_enabled(true);
            assert_eq!(portable, slow, "({m},{k},{n}) portable kernel");
        }
    }

    #[test]
    fn i8_gemm_parallel_path_matches_reference() {
        let mut rng = DetRng::new(9);
        let (m, k, n) = (192, 80, 512);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let slow = matmul_i8_i32_reference(&a, &b, m, k, n).unwrap();
        let fast = matmul_i8_i32(&a, &b, m, k, n).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn i8_gemm_rejects_bad_lengths() {
        assert!(matmul_i8_i32(&[0; 5], &[0; 6], 2, 3, 2).is_err());
        assert!(matmul_i8_i32(&[0; 6], &[0; 5], 2, 3, 2).is_err());
        assert!(matmul_i8_i32_reference(&[0; 5], &[0; 6], 2, 3, 2).is_err());
    }

    #[test]
    fn i8_gemm_extreme_values_do_not_overflow_within_contract() {
        // k * 128 * 128 far below 2^31: exact accumulation required.
        let k = 1024;
        let a = vec![-128i8; k];
        let b = vec![127i8; k];
        let out = matmul_i8_i32(&a, &b, 1, k, 1).unwrap();
        assert_eq!(out, vec![-128 * 127 * 1024]);
    }

    #[test]
    fn i8_kernel_name_is_reported() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let name = selected_i8_kernel();
        assert!(name == "avx2" || name == "portable");
        crate::kernels::set_simd_enabled(false);
        assert_eq!(selected_i8_kernel(), "portable");
        crate::kernels::set_simd_enabled(true);
    }

    #[test]
    fn block_boundary_sizes() {
        // Sizes straddling the 64-wide block boundary.
        for &(m, k, n) in &[(63, 65, 64), (64, 64, 64), (65, 63, 66), (1, 128, 1)] {
            let mut rng = DetRng::new(6);
            let a = Matrix::random_normal(m, k, &mut rng);
            let b = Matrix::random_normal(k, n, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            assert_close(&fast, &slow, 1e-3);
        }
    }
}
