//! Packed, register-tiled, optionally multi-threaded matrix multiplication.
//!
//! HDC encoding is "indeed a vector–matrix multiplication that is ready to
//! accelerate on most hardware accelerators" (paper, Section III-A). On the
//! host CPU baseline it is a plain SGEMM, and the device simulator's
//! functional int8 path is an `i8 x i8 -> i32` GEMM. Both dtypes run one
//! kernel shape, the host's small-scale version of the paper's
//! weight-stationary array:
//!
//! * **Packing.** The f32 `b` is packed per call, one `KC x NC` slab (256
//!   rows by 256 columns, cut into 16-column panels) at a time, into one
//!   scratch buffer of at most 256 KiB per row band. The `i8` `b` is
//!   packed whole into a [`PackedI8`]: 16-column panels of `k`-quads (four
//!   consecutive rows of a column side by side, the operand layout of
//!   `vpdpbusd`) plus each column's sum, in the weights' own size. It is
//!   the one form `hd_quant` keeps its weights in, built where they are
//!   quantized or read from a model file, so every product over them
//!   reads it as it is; [`matmul_i8_i32`] packs for one call.
//! * **Register tile.** A block of up to 12 (AVX-512 f32) or 6 (every
//!   other tile) rows by `NR` = 16 columns of the output stays in
//!   registers while a slab streams past it. The f32 tiles keep each
//!   output's ascending-`p` order with a separate multiply and add (no
//!   FMA), so [`matmul_into`] is bit-identical to [`matmul_reference`]; the
//!   `i8` tiles' `i32` sums are exact, so [`matmul_i8_i32`] equals
//!   [`matmul_i8_i32_reference`]. A narrow last panel is zero-padded; its
//!   store writes only the real columns (under a lane mask in the AVX-512
//!   f32 tile).
//! * **Zero skip.** The f32 kernel skips products whose `a` is zero, so a
//!   zero in `a` never picks up a NaN or infinity from `b`. An
//!   accumulator starts at `+0` and never becomes `-0`, so adding a `±0`
//!   product is a no-op whenever `b` is finite: the pack pass checks each
//!   slab, the SIMD tiles run finite slabs without the test, and the
//!   scalar tile, which keeps it, runs the rest. For `i8` a zero product
//!   is always a no-op.
//! * **Dispatch.** SIMD tiles run only when SIMD is permitted
//!   ([`crate::kernels::set_simd_enabled`], `HD_NO_SIMD`) and the host has
//!   the features; otherwise, and under Miri, a scalar tile runs over the
//!   same packing. Each product takes the first tile the host has. The f32
//!   product has an AVX-512F tile, which holds one 16-column panel row in
//!   one `zmm` and one accumulator per output row; an AVX2 tile, two
//!   `ymm` per row; and the scalar tile
//!   ([`crate::kernels::f32_gemm_kernel_name`]). The `i8` product has
//!   three tiles over the same packed bytes: a `vpdpbusd` tile
//!   (AVX-VNNI), which multiplies `a ^ 0x80` as its unsigned side and
//!   subtracts `128 * colsum`; an AVX2 `vpmaddwd` tile, which widens the
//!   quads to `i16` pairs in registers; and the scalar tile
//!   ([`crate::kernels::i8_gemm_kernel_name`]).
//! * **Threads.** Large products split into row bands, a two-stage SDF
//!   schedule (plan -> rows) executed through the generic runtime in
//!   [`hd_dataflow::runtime`]; each f32 band packs its own slabs, and the
//!   `i8` bands share one packed `b`.
//!
//! The *analytic* runtime models in the `cpu-model` and `tpu-sim` crates
//! reproduce the paper's timing figures. The wall-clock speed of these
//! kernels is what the `fig_kernels` bench and the end-to-end benchmark
//! measure.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use hd_dataflow::runtime::{self, Binding, ExecutablePlan, Fire, Supervised, Supervision};
use hd_dataflow::{Resource, SdfGraph};

use crate::convert::Width;
use crate::error::TensorError;
use crate::interleaved::ScoreTile;
use crate::matrix::Matrix;
use crate::Result;

/// Rows of one register tile of the output, in every tile but the
/// AVX-512 f32 one ([`ZMM_ROWS`]).
const MR: usize = 6;
/// Columns of one register tile, and the width of one packed panel of `b`.
const NR: usize = 16;
/// Depth of one packed f32 slab of `b`.
const KC: usize = 256;
/// Columns of one packed f32 slab of `b`: 16 panels, so a slab
/// (`KC x NC`) is 256 KiB.
const NC: usize = 256;
/// Depth of the part of one packed `i8` panel a tile runs over: 16 KiB,
/// so it stays in L1 while every row tile of the band passes it. A
/// multiple of 4, so only a product's last part can end in a partial
/// quad.
const I8_KC: usize = 1024;

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
/// Uses the packed register-tiled kernel, and splits rows across threads
/// when the output is large enough to amortize thread startup.
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
    out.as_mut_slice().fill(0.0);
    matmul_f32(
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
        (a.rows(), a.cols(), b.cols()),
    );
    Ok(())
}

/// Vector–matrix product `x (1 x k) * b (k x n)`, returning a length-`n`
/// vector: the per-sample encoding step `E = F x B`, run as a one-row
/// [`matmul_into`].
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
    let mut out = vec![0.0f32; b.cols()];
    matmul_f32(x, b.as_slice(), &mut out, (1, x.len(), b.cols()));
    Ok(out)
}

/// `out (m x n) += a (m x k) * b (k x n)` over row-major slices, with
/// `out` zeroed by the caller.
fn matmul_f32(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    let tile = F32Tile::selected();
    banded(a, out, (m, k, n), |a, out, rows| {
        f32_kernel(a, b, out, (rows, k, n), tile);
    });
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
/// variable (when set to a positive integer). The hardware count is read
/// once per process (each read walks the cgroup files, tens of
/// microseconds); the cap and the variable apply on every call.
pub fn available_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let mut threads = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
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

/// Runs `kernel` over the whole product, or over row bands through
/// [`parallel_bands`] when the output is large enough and more than one
/// thread is available.
fn banded<A: Sync, O: Send>(
    a: &[A],
    out: &mut [O],
    (m, k, n): (usize, usize, usize),
    kernel: impl Fn(&[A], &mut [O], usize) + Sync,
) {
    if m.saturating_mul(n) >= PARALLEL_THRESHOLD && m > 1 {
        let threads = available_threads();
        if threads > 1 {
            return parallel_bands(a, out, (m, k, n), threads, kernel);
        }
    }
    kernel(a, out, m);
}

/// One row band of an `m x k` by `k x n` product: the band's rows of
/// `a`, the matching disjoint rows of the output, and the row count.
struct Band<'a, A, O> {
    a: &'a [A],
    out: &'a mut [O],
    rows: usize,
}

/// Row-band parallel driver shared by the `f32` and `i8` products: a
/// two-stage SDF schedule (plan -> rows) executed through the generic
/// runtime. `out` (`m x n`, `n > 0`) is carved into up to `threads`
/// disjoint row bands, the plan firing hands them out, and the
/// worker-pooled rows stage runs `kernel(a_band, out_band, rows)` once
/// per band. Both GEMM kernels compute each output row from its own row
/// of `a` alone, so the result is bit-identical to one serial kernel
/// call over the whole product.
fn parallel_bands<A: Sync, O: Send>(
    a: &[A],
    out: &mut [O],
    (m, k, n): (usize, usize, usize),
    threads: usize,
    kernel: impl Fn(&[A], &mut [O], usize) + Sync,
) {
    let rows_per_band = m.div_ceil(threads).max(1);
    // Slice `a` by row index rather than chunking it: with `k == 0` the
    // band of `a` is empty but the band of `out` is not.
    let bands: Vec<Band<'_, A, O>> = out
        .chunks_mut(rows_per_band * n)
        .enumerate()
        .map(|(i, out)| {
            let rows = out.len() / n;
            let start = i * rows_per_band;
            Band {
                a: &a[start * k..(start + rows) * k],
                out,
                rows,
            }
        })
        .collect();

    let count = bands.len();
    let mut graph = SdfGraph::new("gemm-rows");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let rows = graph.add_stage("rows", Resource::Host, 0.0);
    graph.add_channel(plan, rows, count, 1, Some(count));
    let plan = ExecutablePlan::validate(graph).expect("gemm row schedule is statically valid");

    let kernel = &kernel;
    let mut bands = Some(bands);
    let bindings: Vec<Binding<'_, Band<'_, A, O>, Infallible>> = vec![
        Supervised::map(Supervision::none(), move |_, _| {
            Ok((bands.take().unwrap_or_default(), Fire::Continue))
        })
        .into_binding(),
        Binding::SupervisedParMap {
            workers: threads,
            policy: Supervision::none(),
            f: Box::new(move |_, inputs: &mut [Band<'_, A, O>]| {
                let band = &mut inputs[0];
                kernel(band.a, band.out, band.rows);
                Ok(Vec::new())
            }),
            recover: None,
        },
    ];
    runtime::run(&plan, 1, bindings).expect("gemm row schedule cannot fail");
}

/// One register tile's place in a product: the row strides of `a` (`k`)
/// and of the output (`n`), the depth of the slab it runs over, and how
/// many of its rows and `NR` columns are real.
#[derive(Debug, Clone, Copy)]
struct Tile {
    k: usize,
    n: usize,
    depth: usize,
    rows: usize,
    cols: usize,
}

/// The f32 kernel over one row band: `out (m x n) += a (m x k) * b (k x n)`
/// with `out` zeroed by the caller. For each `KC x NC` block of `b` it
/// packs one slab, then runs every `tile.rows()`-row tile of the band
/// across the slab's panels; each output sums its products in ascending
/// `p`. A slab holding NaN or an infinity runs on the scalar tile, which
/// skips zeros in `a` (see the module docs).
///
/// # Panics
///
/// If this host cannot run `tile`, which would be a bug in the tile's
/// selection.
fn f32_kernel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    tile: F32Tile,
) {
    assert!(tile.supported(), "{tile:?} is not supported on this host");
    let mut slab = vec![0.0f32; KC.min(k) * NC.min(n).next_multiple_of(NR)];
    for j0 in (0..n).step_by(NC) {
        let width = NC.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let depth = KC.min(k - p0);
            let on = if pack_f32(b, n, (p0, j0), (depth, width), &mut slab) {
                tile
            } else {
                F32Tile::Scalar
            };
            for i0 in (0..m).step_by(tile.rows()) {
                let a = &a[i0 * k + p0..];
                for (panel, jp) in (0..width).step_by(NR).enumerate() {
                    let shape = Tile {
                        k,
                        n,
                        depth,
                        rows: tile.rows().min(m - i0),
                        cols: NR.min(width - jp),
                    };
                    let slab = &slab[panel * depth * NR..][..depth * NR];
                    tile_f32(on, a, slab, &mut out[i0 * n + j0 + jp..], shape);
                }
            }
        }
    }
}

/// Packs the `depth x width` block of row-major `b (.. x n)` whose
/// top-left element is `b[p0][j0]` as `NR`-column panels, each `depth`
/// rows of `NR` lanes, zero-padding the last panel's lanes past `width`.
/// Returns whether every packed value is finite.
fn pack_f32(
    b: &[f32],
    n: usize,
    (p0, j0): (usize, usize),
    (depth, width): (usize, usize),
    slab: &mut [f32],
) -> bool {
    let mut max_magnitude = 0u32;
    for p in 0..depth {
        let row = &b[(p0 + p) * n + j0..][..width];
        // Non-finite values are exactly those with all exponent bits set.
        max_magnitude = row
            .iter()
            .fold(max_magnitude, |max, v| max.max(v.to_bits() & 0x7FFF_FFFF));
        for (panel, cols) in row.chunks(NR).enumerate() {
            slab[(panel * depth + p) * NR..][..NR].copy_from_slice(&padded(cols));
        }
    }
    max_magnitude < f32::INFINITY.to_bits()
}

/// One panel row: `cols` (at most `NR` values) zero-padded to `NR` lanes.
fn padded<T: Copy + Default>(cols: &[T]) -> [T; NR] {
    <[T; NR]>::try_from(cols).unwrap_or_else(|_| {
        let mut lanes = [T::default(); NR];
        lanes[..cols.len()].copy_from_slice(cols);
        lanes
    })
}

/// Runs one f32 register tile of `shape` on `tile`.
fn tile_f32(tile: F32Tile, a: &[f32], slab: &[f32], out: &mut [f32], shape: Tile) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `f32_kernel` checked that the host supports the tile it was
    // given, and falls back only to the scalar tile; the tiles check their
    // own slice bounds.
    #[allow(unsafe_code)]
    match tile {
        F32Tile::Avx512 => return unsafe { simd::tile_f32_avx512(a, slab, out, shape) },
        F32Tile::Avx2 => return unsafe { simd::tile_f32_avx2(a, slab, out, shape) },
        F32Tile::Scalar => {}
    }
    tile_f32_portable(a, slab, out, shape);
}

/// The scalar f32 tile: the SIMD tiles' arithmetic one lane at a time,
/// plus the `a == 0` skip (see the module docs). It takes up to
/// [`ZMM_ROWS`] rows, so it can stand in for any tile on a non-finite
/// slab.
fn tile_f32_portable(a: &[f32], slab: &[f32], out: &mut [f32], tile: Tile) {
    let mut acc = [[0.0f32; NR]; ZMM_ROWS];
    for (r, acc) in acc.iter_mut().enumerate().take(tile.rows) {
        acc[..tile.cols].copy_from_slice(&out[r * tile.n..][..tile.cols]);
    }
    for (p, b) in slab.chunks_exact(NR).enumerate() {
        for (r, acc) in acc.iter_mut().enumerate().take(tile.rows) {
            let av = a[r * tile.k + p];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate().take(tile.rows) {
        out[r * tile.n..][..tile.cols].copy_from_slice(&acc[..tile.cols]);
    }
}

/// Checks that `len` is the `rows x cols` a slice claims to hold.
fn check_len(len: usize, rows: usize, cols: usize) -> Result<()> {
    if len != rows.saturating_mul(cols) {
        return Err(TensorError::LengthMismatch {
            expected: rows * cols,
            actual: len,
        });
    }
    Ok(())
}

/// Output rows of the AVX-512 f32 tile, one `zmm` accumulator each: the
/// most any f32 tile takes.
const ZMM_ROWS: usize = 12;

/// The register tiles of the f32 product. All of them read the same
/// `KC x NC` slab packing and produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum F32Tile {
    /// Up to 12 rows x 16 columns, one `zmm` per row (AVX-512F).
    Avx512,
    /// Up to 6 rows x 16 columns, two `ymm` per row.
    Avx2,
    /// The scalar tile: Miri, `HD_NO_SIMD`, hosts without AVX2, and any
    /// slab holding NaN or an infinity.
    Scalar,
}

impl F32Tile {
    /// Every tile, in order of preference.
    const ALL: [F32Tile; 3] = [F32Tile::Avx512, F32Tile::Avx2, F32Tile::Scalar];

    /// Output rows of one register tile: the row step of the kernel's
    /// loop nest.
    const fn rows(self) -> usize {
        match self {
            F32Tile::Avx512 => ZMM_ROWS,
            F32Tile::Avx2 | F32Tile::Scalar => MR,
        }
    }

    /// Whether this host can run the tile.
    fn supported(self) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                F32Tile::Avx512 => has!("avx512f"),
                F32Tile::Avx2 => has!("avx2"),
                F32Tile::Scalar => true,
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            self == F32Tile::Scalar
        }
    }

    /// The tile the dispatcher runs right now: the first one the host
    /// supports, or the scalar tile when SIMD is not permitted
    /// ([`crate::kernels::set_simd_enabled`], `HD_NO_SIMD`).
    fn selected() -> F32Tile {
        if !crate::kernels::simd_permitted() {
            return F32Tile::Scalar;
        }
        F32Tile::ALL
            .into_iter()
            .find(|tile| tile.supported())
            .unwrap_or(F32Tile::Scalar)
    }

    fn name(self) -> &'static str {
        match self {
            F32Tile::Avx512 => "avx512",
            F32Tile::Avx2 => "avx2",
            F32Tile::Scalar => "portable",
        }
    }
}

/// Name of the f32 GEMM tile the dispatcher would select right now
/// (`"avx512"`, `"avx2"` or `"portable"`). Exposed via
/// [`crate::kernels::f32_gemm_kernel_name`].
pub(crate) fn selected_f32_kernel() -> &'static str {
    F32Tile::selected().name()
}

/// The register tiles of the `i8` product. All of them read the same
/// [`PackedI8`] bytes and produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum I8Tile {
    /// `vpdpbusd` (AVX-VNNI).
    AvxVnni,
    /// `vpmaddwd` over quads widened to `i16` pairs in registers.
    Avx2,
    /// The scalar tile: Miri, `HD_NO_SIMD`, and hosts without AVX2.
    Scalar,
}

impl I8Tile {
    /// Every tile, in order of preference.
    const ALL: [I8Tile; 3] = [I8Tile::AvxVnni, I8Tile::Avx2, I8Tile::Scalar];

    /// Whether this host can run the tile.
    fn supported(self) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                I8Tile::AvxVnni => has!("avx2") && has!("avxvnni"),
                I8Tile::Avx2 => has!("avx2"),
                I8Tile::Scalar => true,
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            self == I8Tile::Scalar
        }
    }

    /// The tile the dispatcher runs right now: the first one the host
    /// supports, or the scalar tile when SIMD is not permitted
    /// ([`crate::kernels::set_simd_enabled`], `HD_NO_SIMD`).
    fn selected() -> I8Tile {
        if !crate::kernels::simd_permitted() {
            return I8Tile::Scalar;
        }
        I8Tile::ALL
            .into_iter()
            .find(|tile| tile.supported())
            .unwrap_or(I8Tile::Scalar)
    }

    fn name(self) -> &'static str {
        match self {
            I8Tile::AvxVnni => "avxvnni",
            I8Tile::Avx2 => "avx2",
            I8Tile::Scalar => "portable",
        }
    }
}

/// Name of the `i8` GEMM tile the dispatcher would select right now
/// (`"avxvnni"`, `"avx2"` or `"portable"`). Exposed via
/// [`crate::kernels::i8_gemm_kernel_name`].
pub(crate) fn selected_i8_kernel() -> &'static str {
    I8Tile::selected().name()
}

/// `k` rows per packed quad: the four `i8` products one `i32` lane of
/// `vpdpbusd` sums.
const QUAD: usize = 4;

/// The right operand `b (k x n)` of the `i8` product, packed once.
///
/// `b` is cut into 16-column panels, the last one zero-padded. A panel
/// holds `k.div_ceil(4)` quad rows; quad row `q` holds, for each of the
/// panel's columns in turn, `b[4q..4q + 4]` of that column, four
/// contiguous bytes, with rows past `k` zero. That is the operand layout
/// of `vpdpbusd`, and the AVX2 and scalar tiles read the same bytes. The
/// copy takes the weights' own size up to the padding, plus one `i32`
/// sum per column, which the VNNI tile's sign correction and
/// `hd_quant`'s zero-point correction read instead of summing `b` again.
///
/// This is how `hd_quant` stores every weight matrix, from quantization
/// or deserialization on. [`PackedI8::get`] and [`PackedI8::set`] read
/// and change single values in place (fault injection flips bits through
/// them), so no caller needs a row-major copy.
///
/// # Examples
///
/// ```
/// use hd_tensor::gemm::{self, PackedI8};
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// let b = [1i8, 2, 3, 4, 5, 6]; // 3 x 2
/// let packed = PackedI8::pack(&b, 3, 2)?;
/// assert_eq!(packed.col_sums(), &[9, 12]);
/// let a = [1i8, 0, -1]; // 1 x 3
/// assert_eq!(gemm::matmul_i8_packed(&a, &packed, 1)?, vec![-4, -4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    panels: Vec<i8>,
    col_sums: Vec<i32>,
}

impl PackedI8 {
    /// Packs row-major `b (k x n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `b.len() != k * n`.
    pub fn pack(b: &[i8], k: usize, n: usize) -> Result<Self> {
        check_len(b.len(), k, n)?;
        let panel_len = Self::panel_len(k);
        let mut panels = vec![0i8; n.div_ceil(NR) * panel_len];
        for (q, quad) in b.chunks(QUAD * n.max(1)).enumerate() {
            let rows: [&[i8]; QUAD] =
                std::array::from_fn(|t| quad.get(t * n..(t + 1) * n).unwrap_or_default());
            for (panel, j0) in (0..n).step_by(NR).enumerate() {
                let dst: &mut [i8; QUAD * NR] = (&mut panels[panel * panel_len + q * QUAD * NR..]
                    [..QUAD * NR])
                    .try_into()
                    .unwrap();
                let lanes = rows.map(|row| row.get(j0..j0 + NR).and_then(|r| r.try_into().ok()));
                match lanes {
                    [Some(r0), Some(r1), Some(r2), Some(r3)] => interleave([r0, r1, r2, r3], dst),
                    // The last quad or panel: zero-pad it first.
                    _ => {
                        let lanes =
                            rows.map(|row| padded(row.get(j0..n.min(j0 + NR)).unwrap_or_default()));
                        interleave(lanes.each_ref(), dst);
                    }
                }
            }
        }
        Ok(PackedI8 {
            k,
            n,
            panels,
            col_sums: col_sums(b, n),
        })
    }

    /// Bytes of one packed panel of a `k`-deep operand.
    fn panel_len(k: usize) -> usize {
        k.div_ceil(QUAD) * QUAD * NR
    }

    /// Rows of `b`: the depth of the product.
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of `b`: the width of the product.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The sum of each column of `b`, wrapped to `i32` (exact for any
    /// `k` below `2^24`).
    pub fn col_sums(&self) -> &[i32] {
        &self.col_sums
    }

    /// `b[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()` or `c >= self.cols()`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> i8 {
        self.panels[self.index(r, c)]
    }

    /// Sets `b[r][c]` to `v`, keeping its column sum exact (wrapped to
    /// `i32`, as [`PackedI8::pack`] sums).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()` or `c >= self.cols()`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: i8) {
        let i = self.index(r, c);
        let old = std::mem::replace(&mut self.panels[i], v);
        self.col_sums[c] = self.col_sums[c].wrapping_add(i32::from(v) - i32::from(old));
    }

    /// Columns per packed panel.
    pub const PANEL_COLS: usize = NR;

    /// The panels in column order, each as its rows in ascending order:
    /// row `r` of the panel that starts at column `j0` holds
    /// `b[r][j0..j0 + 16]`, zero past the last column. A reader that folds
    /// every column down its rows can keep one lane per column and
    /// vectorize across the panel.
    pub fn panel_rows(&self) -> impl Iterator<Item = impl Iterator<Item = [i8; NR]> + '_> + '_ {
        let k = self.k;
        self.panels
            .chunks_exact(Self::panel_len(k))
            .map(move |panel| {
                (0..k).map(move |r| {
                    let quads = &panel[(r / QUAD) * QUAD * NR..][..QUAD * NR];
                    std::array::from_fn(|c| quads[c * QUAD + r % QUAD])
                })
            })
    }

    /// Where `b[r][c]` lives: in column `c`'s panel, quad row `r / 4`,
    /// the column's quad, lane `r % 4`.
    #[inline]
    fn index(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.k && c < self.n,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.k,
            self.n
        );
        (c / NR) * Self::panel_len(self.k) + (r / QUAD) * QUAD * NR + (c % NR) * QUAD + r % QUAD
    }
}

/// Writes one panel's quad row: for each of the `NR` columns, its value
/// in each of the quad's four `rows`.
fn interleave(rows: [&[i8; NR]; QUAD], dst: &mut [i8; QUAD * NR]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    simd::interleave(rows, dst);
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    interleave_portable(rows, dst);
}

/// [`interleave`] one byte at a time.
#[cfg_attr(all(target_arch = "x86_64", not(miri)), allow(dead_code))]
fn interleave_portable(rows: [&[i8; NR]; QUAD], dst: &mut [i8; QUAD * NR]) {
    for c in 0..NR {
        for (t, row) in rows.iter().enumerate() {
            dst[c * QUAD + t] = row[c];
        }
    }
}

/// The column sums of row-major `b (.. x n)`, wrapped to `i32`. Sums run
/// in `i16` over blocks of 256 rows, which cannot overflow
/// (`256 * -128 = i16::MIN`), and then widen.
fn col_sums(b: &[i8], n: usize) -> Vec<i32> {
    let mut sums = vec![0i32; n];
    let mut block_sums = vec![0i16; n];
    for block in b.chunks(256 * n.max(1)) {
        block_sums.fill(0);
        for row in block.chunks_exact(n) {
            for (sum, &v) in block_sums.iter_mut().zip(row) {
                *sum += i16::from(v);
            }
        }
        for (sum, &block_sum) in sums.iter_mut().zip(&block_sums) {
            *sum = sum.wrapping_add(i32::from(block_sum));
        }
    }
    sums
}

/// `i8 x i8 -> i32` GEMM: multiplies row-major `a (m x k)` by `b (k x n)`,
/// returning the `m x n` accumulator matrix as a flat vector. Packs `b`
/// and runs [`matmul_i8_packed`]; a caller that multiplies by the same
/// `b` again should keep the [`PackedI8`] instead.
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
    check_len(a.len(), m, k)?;
    matmul_i8_packed(a, &PackedI8::pack(b, k, n)?, m)
}

/// `i8 x i8 -> i32` GEMM of row-major `a (m x k)` by a packed `b`, with
/// the exactness contract of [`matmul_i8_i32`].
///
/// Runs the first tile the host supports when SIMD is permitted (see
/// [`crate::kernels::set_simd_enabled`] and the `HD_NO_SIMD` variable),
/// the scalar tile otherwise; every tile is bit-exact with
/// [`matmul_i8_i32_reference`]. Large products split into row bands
/// across worker threads under the same [`set_thread_cap`] /
/// `HD_THREADS` budget as the `f32` kernel.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `a.len() != m * k`.
pub fn matmul_i8_packed(a: &[i8], b: &PackedI8, m: usize) -> Result<Vec<i32>> {
    check_len(a.len(), m, b.k)?;
    let tile = I8Tile::selected();
    if tile == I8Tile::Scalar {
        crate::kernels::note_portable_gemm();
    } else {
        crate::kernels::note_simd_gemm();
    }
    let mut out = vec![0i32; m.saturating_mul(b.n)];
    banded(a, &mut out, (m, b.k, b.n), |a, out, rows| {
        i8_kernel(a, b, out, rows, tile);
    });
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
    check_len(a.len(), m, k)?;
    check_len(b.len(), k, n)?;
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

/// The `i8` kernel over one row band, `out (m x n) = a (m x k) * b`. For
/// each panel of `b`, in parts of at most [`I8_KC`] rows, every `MR`-row
/// tile of the band runs over that part of the panel, read in place.
///
/// The tiles read `a` a quad at a time, from a copy of the band whose
/// rows are zero-padded to whole quads (the padded rows of `b` are zero
/// too). `vpdpbusd` multiplies an unsigned byte by a signed one, so for
/// the VNNI tile the copy holds `a ^ 0x80`, which read unsigned is
/// `a + 128`, and the band's outputs start at `-128 * colsum(b)` instead
/// of zero. Past `k = 65793` the partial sums `(a + 128) b` leave `i32`;
/// they and the correction wrap, so the result is exact wherever the
/// true product fits `i32`. The AVX2 and scalar tiles read a copy
/// widened to `i16`, so a row's quad is two `i16` pairs as they are.
fn i8_kernel(a: &[i8], b: &PackedI8, out: &mut [i32], m: usize, tile: I8Tile) {
    let k = b.k;
    if k == 0 || b.n == 0 {
        return;
    }
    debug_assert!(tile.supported(), "{tile:?} is not supported on this host");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: every tile but the scalar one is selected only after
    // `I8Tile::supported` detected its features at run time; the tiles
    // check their own slice bounds.
    #[allow(unsafe_code)]
    match tile {
        I8Tile::AvxVnni => {
            for row in out.chunks_exact_mut(b.n) {
                for (o, &sum) in row.iter_mut().zip(&b.col_sums) {
                    *o = sum.wrapping_mul(-128);
                }
            }
            let a = quad_band(a, k, |v| v ^ i8::MIN);
            return for_each_tile(&a, b, out, m, |a, part, out, shape| unsafe {
                simd::tile_i8_avxvnni(a, part, out, shape);
            });
        }
        I8Tile::Avx2 => {
            let a = quad_band(a, k, i16::from);
            return for_each_tile(&a, b, out, m, |a, part, out, shape| unsafe {
                simd::tile_i8_avx2(a, part, out, shape);
            });
        }
        I8Tile::Scalar => {}
    }
    for_each_tile(&quad_band(a, k, i16::from), b, out, m, tile_i8_portable);
}

/// The reduced body sums of [`crate::interleaved::InterleavedClasses`]
/// scoring on `tile`: for each `d`-wide row `r` of `samples` (at most
/// `tile.rows()`) and each class `j < k = out.len() / rows`,
/// `acc0 + acc1 + acc2 + acc3` of `ops::dot` over the first `4 * chunks`
/// floats, written to `out[r * k + j]`. `body` holds `chunks` 16-float
/// blocks per class group.
///
/// # Panics
///
/// If this host cannot run `tile`, which would be a bug in the tile's
/// selection.
pub(crate) fn score_interleaved(
    tile: ScoreTile,
    body: &[f32],
    chunks: usize,
    samples: &[f32],
    d: usize,
    out: &mut [f32],
) {
    if chunks == 0 || out.is_empty() {
        out.fill(0.0);
        return;
    }
    assert!(tile.supported(), "{tile:?} is not supported on this host");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: the tile's features were detected at run time just above;
    // the tiles check their own slice bounds.
    #[allow(unsafe_code)]
    match tile {
        ScoreTile::Avx512 => {
            return unsafe { simd::score_avx512(body, chunks, samples, d, out) };
        }
        ScoreTile::Avx2 => return unsafe { simd::score_avx2(body, chunks, samples, d, out) },
        ScoreTile::Scalar => {}
    }
    crate::interleaved::score_portable(body, chunks, samples, d, out);
}

/// `f()`, with the loops it inlines compiled for `width`: the dispatch of
/// the conversion kernel ([`crate::convert`]) and of
/// [`crate::kernels::at_widest_width`].
///
/// # Panics
///
/// If this host cannot run `width`, which would be a bug in the width's
/// selection.
pub(crate) fn run_on<R>(width: Width, f: impl FnOnce() -> R) -> R {
    assert!(width.supported(), "{width:?} is not supported on this host");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: the width's features were detected at run time just above;
    // `f` is safe code.
    #[allow(unsafe_code)]
    match width {
        Width::Avx512 => return unsafe { simd::run_avx512(f) },
        Width::Avx2 => return unsafe { simd::run_avx2(f) },
        Width::Baseline => {}
    }
    f()
}

/// The band `a (.. x k)` with each row zero-padded to whole quads, every
/// value mapped by `f`.
fn quad_band<T: Copy + Default>(a: &[i8], k: usize, f: impl Fn(i8) -> T) -> Vec<T> {
    let k4 = k.next_multiple_of(QUAD);
    let mut band = vec![T::default(); a.len() / k * k4];
    for (dst, src) in band.chunks_exact_mut(k4).zip(a.chunks_exact(k)) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = f(v);
        }
    }
    band
}

/// Runs `tile` over every part of every panel of `b` for each `MR`-row
/// tile of the quad-padded band `a (m x ..)`.
fn for_each_tile<A>(
    a: &[A],
    b: &PackedI8,
    out: &mut [i32],
    m: usize,
    mut tile: impl FnMut(&[A], &[i8], &mut [i32], Tile),
) {
    let (k4, n) = (b.k.next_multiple_of(QUAD), b.n);
    let panel_len = PackedI8::panel_len(b.k);
    for p0 in (0..k4).step_by(I8_KC) {
        let depth = I8_KC.min(k4 - p0);
        for (panel, j0) in (0..n).step_by(NR).enumerate() {
            let part = &b.panels[panel * panel_len + p0 * NR..][..depth * NR];
            for i0 in (0..m).step_by(MR) {
                let shape = Tile {
                    k: k4,
                    n,
                    depth,
                    rows: MR.min(m - i0),
                    cols: NR.min(n - j0),
                };
                tile(&a[i0 * k4 + p0..], part, &mut out[i0 * n + j0..], shape);
            }
        }
    }
}

/// The scalar `i8` tile: each output adds its quads' four products one
/// lane at a time. Reads `a` as [`i8_kernel`] lays it out, widened and
/// in whole quads, so `shape.depth` is a multiple of 4.
fn tile_i8_portable(a: &[i16], slab: &[i8], out: &mut [i32], shape: Tile) {
    let mut acc = [[0i32; NR]; MR];
    for (r, acc) in acc.iter_mut().enumerate().take(shape.rows) {
        acc[..shape.cols].copy_from_slice(&out[r * shape.n..][..shape.cols]);
    }
    for (q, b) in slab.chunks_exact(QUAD * NR).enumerate() {
        for (r, acc) in acc.iter_mut().enumerate().take(shape.rows) {
            let quad = &a[r * shape.k + q * QUAD..][..QUAD];
            for (o, b) in acc.iter_mut().zip(b.chunks_exact(QUAD)) {
                *o += quad
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum::<i32>();
            }
        }
    }
    for (r, acc) in acc.iter().enumerate().take(shape.rows) {
        out[r * shape.n..][..shape.cols].copy_from_slice(&acc[..shape.cols]);
    }
}

/// The SIMD register tiles, the `i8` pack's interleave and the class
/// scoring tiles. Isolated in their own module so the crate-level
/// `deny(unsafe_code)` stays intact everywhere else; this is the only
/// unsafe code in the workspace's algorithm crates.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    use super::{Tile, MR, NR, QUAD, ZMM_ROWS};

    /// Runs `rows::<R>` for `R = tile.rows`, the tile's real row count,
    /// one of `1..=MR` or, with a list of larger counts first, of those.
    macro_rules! by_rows {
        ($rows:ident, $a:expr, $slab:expr, $out:expr, $tile:expr) => {
            by_rows!($rows, $a, $slab, $out, $tile, [])
        };
        ($rows:ident, $a:expr, $slab:expr, $out:expr, $tile:expr, [$($r:literal),*]) => {
            match $tile.rows {
                $($r => $rows::<$r>($a, $slab, $out, $tile),)*
                6 => $rows::<6>($a, $slab, $out, $tile),
                5 => $rows::<5>($a, $slab, $out, $tile),
                4 => $rows::<4>($a, $slab, $out, $tile),
                3 => $rows::<3>($a, $slab, $out, $tile),
                2 => $rows::<2>($a, $slab, $out, $tile),
                _ => $rows::<1>($a, $slab, $out, $tile),
            }
        };
    }

    /// Asserts that every access a tile of at most `max_rows` rows over a
    /// `depth`-deep slab makes through `a` and `out` is in bounds.
    fn check_bounds<A, O>(a: &[A], out: &[O], tile: Tile, max_rows: usize) {
        assert!(
            (1..=max_rows).contains(&tile.rows) && (1..=NR).contains(&tile.cols),
            "{tile:?}"
        );
        assert!(a.len() >= (tile.rows - 1) * tile.k + tile.depth, "{tile:?}");
        assert!(
            out.len() >= (tile.rows - 1) * tile.n + tile.cols,
            "{tile:?}"
        );
    }

    /// AVX2 f32 tile: up to 6 rows x 16 columns of the output in two
    /// registers per row. Per `p`: two slab loads, one broadcast per row,
    /// and a separate multiply and add per register (no FMA), so every
    /// output rounds exactly as the scalar loop does.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    ///
    /// # Panics
    ///
    /// If `a`, `slab` or `out` is shorter than `tile` says, which would
    /// be a bug in the kernel's loop nest.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_f32_avx2(a: &[f32], slab: &[f32], out: &mut [f32], tile: Tile) {
        check_bounds(a, out, tile, MR);
        assert_eq!(slab.len(), tile.depth * NR);
        // SAFETY: AVX2 is guaranteed by the caller; bounds checked above.
        unsafe { by_rows!(avx2_f32_rows, a, slab, out, tile) }
    }

    /// # Safety
    ///
    /// AVX2, `tile.rows == R`, and the bounds [`tile_f32_avx2`] checks.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_f32_rows<const R: usize>(a: &[f32], slab: &[f32], out: &mut [f32], tile: Tile) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for (r, acc) in acc.iter_mut().enumerate() {
            let mut lanes = [0.0f32; NR];
            lanes[..tile.cols].copy_from_slice(&out[r * tile.n..][..tile.cols]);
            // SAFETY: `lanes` holds NR = 16 floats.
            unsafe {
                *acc = [
                    _mm256_loadu_ps(lanes.as_ptr()),
                    _mm256_loadu_ps(lanes.as_ptr().add(8)),
                ];
            }
        }
        let a = a.as_ptr();
        for (p, b) in slab.chunks_exact(NR).enumerate() {
            // SAFETY: `b` holds NR = 16 floats; `r * k + p` is below
            // `(R - 1) * k + depth <= a.len()`, checked by the caller.
            unsafe {
                let b0 = _mm256_loadu_ps(b.as_ptr());
                let b1 = _mm256_loadu_ps(b.as_ptr().add(8));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*a.add(r * tile.k + p));
                    acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(av, b0));
                    acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(av, b1));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let mut lanes = [0.0f32; NR];
            // SAFETY: `lanes` holds NR = 16 floats.
            unsafe {
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc[0]);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc[1]);
            }
            out[r * tile.n..][..tile.cols].copy_from_slice(&lanes[..tile.cols]);
        }
    }

    /// AVX-512 f32 tile: up to 12 rows x 16 columns of the output, one
    /// `zmm` per row, so one packed panel row is one register. Per `p`:
    /// one slab load, one broadcast per row, and a separate multiply and
    /// add (no FMA), so every output rounds exactly as the scalar loop
    /// does. A narrow last panel is loaded and stored under a lane mask.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512F.
    ///
    /// # Panics
    ///
    /// If `a`, `slab` or `out` is shorter than `tile` says, which would
    /// be a bug in the kernel's loop nest.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_f32_avx512(a: &[f32], slab: &[f32], out: &mut [f32], tile: Tile) {
        check_bounds(a, out, tile, ZMM_ROWS);
        assert_eq!(slab.len(), tile.depth * NR);
        // SAFETY: AVX-512F is guaranteed by the caller; bounds checked
        // above.
        unsafe { by_rows!(avx512_f32_rows, a, slab, out, tile, [12, 11, 10, 9, 8, 7]) }
    }

    /// # Safety
    ///
    /// AVX-512F, `tile.rows == R`, and the bounds [`tile_f32_avx512`]
    /// checks.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_f32_rows<const R: usize>(
        a: &[f32],
        slab: &[f32],
        out: &mut [f32],
        tile: Tile,
    ) {
        // The tile's real columns: `cols` is in `1..=16`.
        let mask: __mmask16 = u16::MAX >> (NR - tile.cols);
        let (a, out) = (a.as_ptr(), out.as_mut_ptr());
        // SAFETY: row `r < R` of the tile reads and writes only its
        // `cols` lanes from `out + r * n`, which end at `(R - 1) * n +
        // cols <= out.len()`; `b` holds NR = 16 floats; `r * k + p` is
        // below `(R - 1) * k + depth <= a.len()`. All checked by the
        // caller.
        unsafe {
            let mut acc: [__m512; R] =
                std::array::from_fn(|r| _mm512_maskz_loadu_ps(mask, out.add(r * tile.n)));
            for (p, b) in slab.chunks_exact(NR).enumerate() {
                let b = _mm512_loadu_ps(b.as_ptr());
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a.add(r * tile.k + p));
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(av, b));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(r * tile.n), mask, *acc);
            }
        }
    }

    /// Asserts what a class-scoring tile of at most `max_rows` samples
    /// reads and writes is in bounds; returns the sample count.
    fn check_score_bounds(
        body: &[f32],
        chunks: usize,
        samples: &[f32],
        d: usize,
        out: &[f32],
        max_rows: usize,
    ) -> usize {
        assert!(chunks >= 1 && chunks * 4 <= d, "{chunks} chunks of {d}");
        let rows = samples.len() / d;
        assert!((1..=max_rows).contains(&rows) && samples.len() == rows * d);
        let k = out.len() / rows;
        assert!(out.len() == rows * k && body.len() == k.div_ceil(4) * chunks * NR);
        rows
    }

    /// Writes the reduced sums of a class group's 4 classes from the
    /// accumulator lanes `lanes` (class `c` in lanes `4c..4c + 4`), in
    /// `ops::dot`'s order, to the real classes of `out` from class `j0`.
    #[inline(always)]
    fn reduce_group(lanes: &[f32; NR], out: &mut [f32], j0: usize) {
        for (c, a) in lanes.chunks_exact(4).enumerate() {
            if let Some(o) = out.get_mut(j0 + c) {
                *o = a[0] + a[1] + a[2] + a[3];
            }
        }
    }

    /// Runs `groups::<R, 2>` over each pair of class groups of `body`,
    /// then `groups::<R, 1>` over a last, odd one.
    macro_rules! by_group_pairs {
        ($groups:ident, $r:literal, $body:expr, $chunks:expr, $samples:expr, $d:expr, $out:expr) => {{
            let mut pairs = $body.chunks_exact(2 * $chunks * NR);
            let mut g0 = 0;
            for pair in &mut pairs {
                $groups::<$r, 2>(pair, $chunks, $samples, $d, $out, g0);
                g0 += 2;
            }
            if !pairs.remainder().is_empty() {
                $groups::<$r, 1>(pairs.remainder(), $chunks, $samples, $d, $out, g0);
            }
        }};
    }

    /// AVX-512 class scoring: up to 4 samples per sweep, over two class
    /// groups at a time. Per class group and sample, one `zmm` holds the
    /// four classes' four `ops::dot` lane accumulators; per chunk, one
    /// load per group, then per sample a broadcast of its 4-float chunk
    /// to all four 128-bit lanes and a separate multiply and add per
    /// group (no FMA).
    ///
    /// # Safety
    ///
    /// The host must support AVX-512F.
    ///
    /// # Panics
    ///
    /// If the slices disagree with `chunks` and `d`, which would be a bug
    /// in `InterleavedClasses`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn score_avx512(
        body: &[f32],
        chunks: usize,
        samples: &[f32],
        d: usize,
        out: &mut [f32],
    ) {
        let rows = check_score_bounds(body, chunks, samples, d, out, 4);
        // SAFETY: AVX-512F is guaranteed by the caller; bounds checked.
        unsafe {
            match rows {
                4 => by_group_pairs!(avx512_groups, 4, body, chunks, samples, d, out),
                3 => by_group_pairs!(avx512_groups, 3, body, chunks, samples, d, out),
                2 => by_group_pairs!(avx512_groups, 2, body, chunks, samples, d, out),
                _ => by_group_pairs!(avx512_groups, 1, body, chunks, samples, d, out),
            }
        }
    }

    /// The sums of `G` class groups (the first one group `g0`) for `R`
    /// samples.
    ///
    /// # Safety
    ///
    /// AVX-512F, `groups` holding `G` groups of `chunks` blocks, `R`
    /// samples, and the bounds [`check_score_bounds`] checks.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_groups<const R: usize, const G: usize>(
        groups: &[f32],
        chunks: usize,
        samples: &[f32],
        d: usize,
        out: &mut [f32],
        g0: usize,
    ) {
        assert_eq!(groups.len(), G * chunks * NR);
        let k = out.len() / R;
        let (c, s) = (groups.as_ptr(), samples.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); G]; R];
        for i in 0..chunks {
            // SAFETY: block `i` of group `h` ends at `(h * chunks + i + 1)
            // * 16 <= groups.len()`; sample `r`'s chunk `i` ends at
            // `r * d + 4i + 4 <= (R - 1) * d + 4 * chunks`, within
            // `samples`.
            unsafe {
                let mut b = [_mm512_setzero_ps(); G];
                for (h, b) in b.iter_mut().enumerate() {
                    *b = _mm512_loadu_ps(c.add((h * chunks + i) * NR));
                }
                for (r, acc) in acc.iter_mut().enumerate() {
                    let x = _mm512_broadcast_f32x4(_mm_loadu_ps(s.add(r * d + i * 4)));
                    for (acc, &b) in acc.iter_mut().zip(&b) {
                        *acc = _mm512_add_ps(*acc, _mm512_mul_ps(x, b));
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (h, acc) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; NR];
                // SAFETY: `lanes` holds 16 floats.
                unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), *acc) };
                reduce_group(&lanes, &mut out[r * k..(r + 1) * k], (g0 + h) * 4);
            }
        }
    }

    /// AVX2 class scoring: up to 2 samples per sweep, over two class
    /// groups at a time. Per class group and sample, two `ymm` hold the
    /// four classes' `ops::dot` lane accumulators, two classes each; per
    /// chunk, two loads per group, then per sample its 4-float chunk in
    /// both 128-bit lanes and a separate multiply and add per register
    /// (no FMA).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    ///
    /// # Panics
    ///
    /// If the slices disagree with `chunks` and `d`, which would be a bug
    /// in `InterleavedClasses`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn score_avx2(
        body: &[f32],
        chunks: usize,
        samples: &[f32],
        d: usize,
        out: &mut [f32],
    ) {
        let rows = check_score_bounds(body, chunks, samples, d, out, 2);
        // SAFETY: AVX2 is guaranteed by the caller; bounds checked.
        unsafe {
            match rows {
                2 => by_group_pairs!(avx2_groups, 2, body, chunks, samples, d, out),
                _ => by_group_pairs!(avx2_groups, 1, body, chunks, samples, d, out),
            }
        }
    }

    /// The sums of `G` class groups (the first one group `g0`) for `R`
    /// samples.
    ///
    /// # Safety
    ///
    /// AVX2, `groups` holding `G` groups of `chunks` blocks, `R` samples,
    /// and the bounds [`check_score_bounds`] checks.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_groups<const R: usize, const G: usize>(
        groups: &[f32],
        chunks: usize,
        samples: &[f32],
        d: usize,
        out: &mut [f32],
        g0: usize,
    ) {
        assert_eq!(groups.len(), G * chunks * NR);
        let k = out.len() / R;
        let (c, s) = (groups.as_ptr(), samples.as_ptr());
        let mut acc = [[[_mm256_setzero_ps(); 2]; G]; R];
        for i in 0..chunks {
            // SAFETY: as in `avx512_groups`.
            unsafe {
                let mut b = [[_mm256_setzero_ps(); 2]; G];
                for (h, b) in b.iter_mut().enumerate() {
                    let block = c.add((h * chunks + i) * NR);
                    *b = [_mm256_loadu_ps(block), _mm256_loadu_ps(block.add(8))];
                }
                for (r, acc) in acc.iter_mut().enumerate() {
                    let chunk = _mm_loadu_ps(s.add(r * d + i * 4));
                    let x = _mm256_set_m128(chunk, chunk);
                    for (acc, b) in acc.iter_mut().zip(&b) {
                        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(x, b[0]));
                        acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(x, b[1]));
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (h, acc) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; NR];
                // SAFETY: `lanes` holds 16 floats.
                unsafe {
                    _mm256_storeu_ps(lanes.as_mut_ptr(), acc[0]);
                    _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc[1]);
                }
                reduce_group(&lanes, &mut out[r * k..(r + 1) * k], (g0 + h) * 4);
            }
        }
    }

    /// `f()` compiled for AVX-512: the loops it inlines take 16 lanes per
    /// step.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f` and `avx512bw`.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn run_avx512<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// `f()` compiled for AVX2: the loops it inlines take 8 lanes per
    /// step.
    ///
    /// # Safety
    ///
    /// The host must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn run_avx2<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// `super::interleave` in two rounds of SSE2 unpacks: bytes of rows
    /// 0 and 1 (and of 2 and 3) into pairs, then pairs into quads. SSE2
    /// is part of the x86-64 baseline, so it needs no detection.
    pub(super) fn interleave(rows: [&[i8; NR]; QUAD], dst: &mut [i8; QUAD * NR]) {
        // SAFETY: each row is 16 bytes and `dst` is four times that.
        unsafe {
            let [r0, r1, r2, r3] = rows.map(|row| _mm_loadu_si128(row.as_ptr().cast()));
            let (lo01, hi01) = (_mm_unpacklo_epi8(r0, r1), _mm_unpackhi_epi8(r0, r1));
            let (lo23, hi23) = (_mm_unpacklo_epi8(r2, r3), _mm_unpackhi_epi8(r2, r3));
            let dst = dst.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(dst, _mm_unpacklo_epi16(lo01, lo23));
            _mm_storeu_si128(dst.add(1), _mm_unpackhi_epi16(lo01, lo23));
            _mm_storeu_si128(dst.add(2), _mm_unpacklo_epi16(hi01, hi23));
            _mm_storeu_si128(dst.add(3), _mm_unpackhi_epi16(hi01, hi23));
        }
    }

    /// Asserts what every `i8` tile reads and writes is in bounds, and
    /// that the depth is whole quads.
    fn check_i8_bounds<A>(a: &[A], slab: &[i8], out: &[i32], tile: Tile) {
        check_bounds(a, out, tile, MR);
        assert!(tile.depth.is_multiple_of(QUAD), "{tile:?}");
        assert_eq!(slab.len(), tile.depth * NR);
    }

    /// Row `r`'s `a` quad facing quad row `q`, as the `i32` lane that
    /// holds its four bytes in order.
    ///
    /// # Safety
    ///
    /// `a` points at a band that [`check_i8_bounds`] accepted for `tile`,
    /// `r < tile.rows` and `4q < tile.depth`.
    #[inline(always)]
    unsafe fn a_word(a: *const i8, tile: Tile, r: usize, q: usize) -> i32 {
        // SAFETY: the depth is whole quads, so `r * k + 4q + 4 <=
        // (rows - 1) * k + depth <= a.len()`.
        let bytes = unsafe {
            a.add(r * tile.k + q * QUAD)
                .cast::<[u8; QUAD]>()
                .read_unaligned()
        };
        i32::from_le_bytes(bytes)
    }

    /// Loads a tile's running sums from `out` into two registers per row.
    ///
    /// # Safety
    ///
    /// AVX2, and the bounds [`check_i8_bounds`] checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_i32<const R: usize>(out: &[i32], tile: Tile) -> [[__m256i; 2]; R] {
        std::array::from_fn(|r| {
            let mut lanes = [0i32; NR];
            lanes[..tile.cols].copy_from_slice(&out[r * tile.n..][..tile.cols]);
            // SAFETY: `lanes` holds NR = 16 integers.
            unsafe {
                [
                    _mm256_loadu_si256(lanes.as_ptr().cast()),
                    _mm256_loadu_si256(lanes.as_ptr().add(8).cast()),
                ]
            }
        })
    }

    /// Stores a tile's sums back to the real columns of `out`.
    ///
    /// # Safety
    ///
    /// AVX2, and the bounds [`check_i8_bounds`] checks.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_i32<const R: usize>(acc: &[[__m256i; 2]; R], out: &mut [i32], tile: Tile) {
        for (r, acc) in acc.iter().enumerate() {
            let mut lanes = [0i32; NR];
            // SAFETY: `lanes` holds NR = 16 integers.
            unsafe {
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc[0]);
                _mm256_storeu_si256(lanes.as_mut_ptr().add(8).cast(), acc[1]);
            }
            out[r * tile.n..][..tile.cols].copy_from_slice(&lanes[..tile.cols]);
        }
    }

    /// VNNI `i8` tile: up to 6 rows x 16 columns of `i32` sums. Per quad
    /// row: two slab loads, one broadcast of the row's `a ^ 0x80` quad per
    /// row, and one `vpdpbusd` per register, which adds four `u8 x i8`
    /// products per lane with no intermediate saturation and wraps in
    /// `i32`. The kernel flips `a` and starts the sums at
    /// `-128 * colsum` (see `i8_kernel`).
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and AVX-VNNI.
    ///
    /// # Panics
    ///
    /// If `a`, `slab` or `out` is shorter than `tile` says, which would
    /// be a bug in the kernel's loop nest.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn tile_i8_avxvnni(a: &[i8], slab: &[i8], out: &mut [i32], tile: Tile) {
        check_i8_bounds(a, slab, out, tile);
        // SAFETY: the features are guaranteed by the caller; bounds
        // checked above.
        unsafe { by_rows!(avxvnni_rows, a, slab, out, tile) }
    }

    /// # Safety
    ///
    /// AVX2 and AVX-VNNI, `tile.rows == R`, and the bounds
    /// [`check_i8_bounds`] checks.
    #[target_feature(enable = "avx2,avxvnni")]
    unsafe fn avxvnni_rows<const R: usize>(a: &[i8], slab: &[i8], out: &mut [i32], tile: Tile) {
        // SAFETY: features and bounds as documented.
        unsafe {
            let mut acc = load_i32::<R>(out, tile);
            let a = a.as_ptr();
            for (q, b) in slab.chunks_exact(QUAD * NR).enumerate() {
                let b0 = _mm256_loadu_si256(b.as_ptr().cast());
                let b1 = _mm256_loadu_si256(b.as_ptr().add(8 * QUAD).cast());
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_epi32(a_word(a, tile, r, q));
                    acc[0] = _mm256_dpbusd_avx_epi32(acc[0], av, b0);
                    acc[1] = _mm256_dpbusd_avx_epi32(acc[1], av, b1);
                }
            }
            store_i32(&acc, out, tile);
        }
    }

    /// AVX2 `i8` tile over the same packed quads: up to 6 rows x 16
    /// columns of `i32` sums. Per quad row and 8-column half: one slab
    /// load, a byte shuffle and a lane permute that split each column's
    /// quad into its `k`-pairs `(b0, b1)` and `(b2, b3)`, two sign
    /// extensions to `i16`, then per row two `_mm256_madd_epi16` against
    /// the row's `a` pairs, broadcast from the widened band. Pair sums
    /// (at most `2^15` for `i8` operands) are exact in `i32`; `maddubs`
    /// would saturate in `i16`, so it is not used.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    ///
    /// # Panics
    ///
    /// If `a`, `slab` or `out` is shorter than `tile` says, which would
    /// be a bug in the kernel's loop nest.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_i8_avx2(a: &[i16], slab: &[i8], out: &mut [i32], tile: Tile) {
        check_i8_bounds(a, slab, out, tile);
        // SAFETY: AVX2 is guaranteed by the caller; bounds checked above.
        unsafe { by_rows!(avx2_rows, a, slab, out, tile) }
    }

    /// # Safety
    ///
    /// AVX2, `tile.rows == R`, and the bounds [`check_i8_bounds`] checks.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_rows<const R: usize>(a: &[i16], slab: &[i8], out: &mut [i32], tile: Tile) {
        // SAFETY: AVX2 and bounds as documented.
        unsafe {
            // Within each 128-bit lane (four columns' quads): the four
            // `(b0, b1)` pairs, then the four `(b2, b3)` pairs.
            let pairs_first = _mm256_setr_epi8(
                0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15, //
                0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15,
            );
            let mut acc = load_i32::<R>(out, tile);
            let a = a.as_ptr();
            for (q, b) in slab.chunks_exact(QUAD * NR).enumerate() {
                for (half, b) in b.chunks_exact(8 * QUAD).enumerate() {
                    let quads = _mm256_loadu_si256(b.as_ptr().cast());
                    // Low 128 bits: the eight columns' `(b0, b1)`; high
                    // 128 bits: their `(b2, b3)`.
                    let split = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_shuffle_epi8(
                        quads,
                        pairs_first,
                    ));
                    let b01 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(split));
                    let b23 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(split));
                    for (r, acc) in acc.iter_mut().enumerate() {
                        // Row `r`'s quad: the `i16` pairs `(a0, a1)` and
                        // `(a2, a3)`, each read as one `i32` lane. The
                        // depth is whole quads, so `r * k + 4q + 4 <=
                        // (rows - 1) * k + depth <= a.len()`.
                        let quad = a.add(r * tile.k + q * QUAD).cast::<i32>();
                        let lo = _mm256_set1_epi32(quad.read_unaligned());
                        let hi = _mm256_set1_epi32(quad.add(1).read_unaligned());
                        let sum = _mm256_add_epi32(
                            _mm256_madd_epi16(lo, b01),
                            _mm256_madd_epi16(hi, b23),
                        );
                        acc[half] = _mm256_add_epi32(acc[half], sum);
                    }
                }
            }
            store_i32(&acc, out, tile);
        }
    }
}

/// Reference (naive triple-loop) multiplication used by tests to validate
/// the packed/parallel kernel. It sums each output in ascending `p` from
/// `+0`, as the kernel does, so for finite operands the two agree
/// bit-for-bit.
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

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_bitwise(fast: &Matrix, slow: &Matrix, what: &str) {
        assert_eq!(fast.shape(), slow.shape(), "{what}");
        assert_eq!(bits(fast), bits(slow), "{what}");
    }

    /// Runs `check` with SIMD permitted and again with it forced off, so
    /// both the selected SIMD tiles (where the host has them) and the
    /// scalar tiles are held to it.
    fn with_simd_on_and_off(mut check: impl FnMut(&str)) {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        check("simd on");
        crate::kernels::set_simd_enabled(false);
        check("simd off");
        crate::kernels::set_simd_enabled(true);
    }

    /// Every f32 tile this host can run: the scalar tile everywhere, the
    /// SIMD tiles where their features are detected.
    fn host_f32_tiles() -> impl Iterator<Item = F32Tile> {
        F32Tile::ALL.into_iter().filter(|tile| tile.supported())
    }

    /// `a * b` on one explicit f32 tile, split into `threads` row bands
    /// by the band driver.
    fn f32_product_on(a: &Matrix, b: &Matrix, tile: F32Tile, threads: usize) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        parallel_bands(
            a.as_slice(),
            out.as_mut_slice(),
            (m, k, n),
            threads,
            |a, out, rows| f32_kernel(a, b.as_slice(), out, (rows, k, n), tile),
        );
        out
    }

    /// Holds every f32 tile the host has, at every thread count, to the
    /// bits of `expected`.
    fn assert_every_f32_tile(a: &Matrix, b: &Matrix, expected: &Matrix, what: &str) {
        for tile in host_f32_tiles() {
            for threads in THREADS {
                let fast = f32_product_on(a, b, tile, threads);
                assert_bitwise(&fast, expected, &format!("{what} x {threads}, {tile:?}"));
            }
        }
    }

    /// The bits of `m`, with every NaN equal to every other: which NaN an
    /// add of two NaNs returns depends on its operand order, which the
    /// compiler may swap.
    fn nan_blind_bits(m: &Matrix) -> Vec<Option<u32>> {
        m.iter()
            .map(|v| (!v.is_nan()).then(|| v.to_bits()))
            .collect()
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = DetRng::new(1);
        let a = Matrix::random_normal(5, 5, &mut rng);
        let c = matmul(&a, &Matrix::identity(5)).unwrap();
        assert_bitwise(&c, &a, "a * I");
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
        let slow = matmul_reference(&a, &b).unwrap();
        with_simd_on_and_off(|mode| {
            assert_bitwise(&matmul(&a, &b).unwrap(), &slow, mode);
        });
    }

    /// Tile and slab tails: `m` around the 6- and 12-row tiles, `n`
    /// around the 16-column panel (26 is the class-scoring width), `k`
    /// around the 256-deep slab.
    #[cfg(not(miri))]
    const TAIL_SHAPES: ([usize; 7], [usize; 6], [usize; 6]) = (
        [1, 5, 6, 7, 12, 13, 25],
        [1, 15, 16, 17, 26, 2048],
        [0, 1, 255, 256, 257, 617],
    );
    #[cfg(miri)]
    const TAIL_SHAPES: ([usize; 2], [usize; 2], [usize; 3]) = ([1, 13], [1, 17], [0, 1, 3]);

    #[cfg(not(miri))]
    const THREADS: [usize; 4] = [1, 2, 3, 7];
    #[cfg(miri)]
    const THREADS: [usize; 2] = [1, 3];

    #[test]
    fn parallel_path_matches_reference() {
        // The band driver is called directly with explicit thread counts,
        // so the threaded path runs whatever the host's core count or the
        // process-global thread cap; every tile the host has, at every
        // band count, must reproduce the reference's bits.
        let mut rng = DetRng::new(3);
        let (ms, ns, ks) = TAIL_SHAPES;
        for m in ms {
            for n in ns {
                for k in ks {
                    let a = Matrix::random_normal(m, k, &mut rng);
                    let b = Matrix::random_normal(k, n, &mut rng);
                    let slow = matmul_reference(&a, &b).unwrap();
                    assert_every_f32_tile(&a, &b, &slow, &format!("({m},{k},{n})"));
                }
            }
        }
    }

    #[test]
    fn non_finite_slabs_skip_zero_inputs_on_every_tile() {
        // `k` spans three slabs and only the middle one holds NaN and
        // infinities (one in each of three of every four columns), so one
        // product runs SIMD and scalar slabs side by side. `a` is about a
        // third zeros, and every fourth row is zero across the middle
        // slab, so some outputs face only zeros there. Every output is
        // held to an ascending-`p` sum that skips the zeros.
        let (m, k, n) = if cfg!(miri) {
            (13, 300, 17)
        } else {
            (25, 600, 37)
        };
        let mut rng = DetRng::new(11);
        let a = Matrix::from_fn(m, k, |i, p| {
            let v = rng.next_normal();
            let shielded = i % 4 == 0 && (KC..2 * KC).contains(&p);
            if shielded || rng.next_index(3) == 0 {
                0.0
            } else {
                v
            }
        });
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let b = Matrix::from_fn(k, n, |p, j| {
            if p == KC + j && j % 4 != 0 {
                specials[j % 3]
            } else {
                (p as f32 - j as f32) / 64.0
            }
        });
        let skipping = Matrix::from_fn(m, n, |i, j| {
            (0..k)
                .filter(|&p| a[(i, p)] != 0.0)
                .fold(0.0, |sum, p| sum + a[(i, p)] * b[(p, j)])
        });
        assert!(skipping.iter().any(|v| v.is_nan()));
        assert!(skipping.iter().any(|v| v.is_infinite()));
        assert!(skipping.iter().any(|v| v.is_finite()));
        for tile in host_f32_tiles() {
            for threads in THREADS {
                let fast = f32_product_on(&a, &b, tile, threads);
                assert_eq!(
                    nan_blind_bits(&fast),
                    nan_blind_bits(&skipping),
                    "({m},{k},{n}) x {threads}, {tile:?}"
                );
            }
        }
    }

    #[test]
    fn matmul_skips_zero_inputs() {
        // A zero in `a` facing NaN or ±inf in `b` contributes nothing, as
        // it always has; a non-zero `a` still propagates them.
        let b = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
            &[4.0, 5.0, 6.0],
        ])
        .unwrap();
        let a =
            Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[1.0, -0.0, 0.0], &[0.0, 2.0, 0.0]]).unwrap();
        with_simd_on_and_off(|mode| {
            let c = matmul(&a, &b).unwrap();
            assert_eq!(c.row(0), &[5.0, 7.0, 9.0], "{mode}");
            assert_eq!(c.row(1), &[1.0, 2.0, 3.0], "{mode}");
            assert!(c[(2, 0)].is_nan(), "{mode}");
            assert_eq!(c[(2, 1)], f32::INFINITY, "{mode}");
            assert_eq!(c[(2, 2)], f32::NEG_INFINITY, "{mode}");
        });
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
        assert_bitwise(&out, &b, "I * b");
    }

    #[test]
    fn matvec_matches_matmul_row() {
        let mut rng = DetRng::new(4);
        let b = Matrix::random_normal(30, 17, &mut rng);
        let x = Matrix::random_normal(1, 30, &mut rng);
        let via_matmul = matmul(&x, &b).unwrap();
        let via_matvec = matvec(x.row(0), &b).unwrap();
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(via_matmul.row(0)), bits_of(&via_matvec));
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
        // A parallel-sized product must stay exact on the forced
        // sequential path.
        let mut rng = DetRng::new(7);
        let (m, k, n) = if cfg!(miri) {
            (4, 9, 6)
        } else {
            (192, 80, 512)
        };
        let a = Matrix::random_normal(m, k, &mut rng);
        let b = Matrix::random_normal(k, n, &mut rng);
        let fast = matmul(&a, &b).unwrap();
        assert_bitwise(&fast, &matmul_reference(&a, &b).unwrap(), "capped");
        set_thread_cap(0);
        assert!(available_threads() >= 1);
    }

    fn random_i8(len: usize, rng: &mut DetRng) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.next_normal() * 50.0).clamp(-127.0, 127.0) as i8)
            .collect()
    }

    /// Every `i8` tile this host can run: the scalar tile everywhere,
    /// the SIMD tiles where their features are detected.
    fn host_tiles() -> impl Iterator<Item = I8Tile> {
        I8Tile::ALL.into_iter().filter(|tile| tile.supported())
    }

    /// `a (m x k) * b` on one explicit tile, split into `threads` row
    /// bands by the band driver.
    fn product_on(a: &[i8], b: &PackedI8, m: usize, tile: I8Tile, threads: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * b.cols()];
        parallel_bands(
            a,
            &mut out,
            (m, b.rows(), b.cols()),
            threads,
            |a, out, rows| {
                i8_kernel(a, b, out, rows, tile);
            },
        );
        out
    }

    #[test]
    fn i8_gemm_matches_reference_all_kernels() {
        let mut rng = DetRng::new(8);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (17, 93, 41),
            (64, 64, 64),
            (5, 40, 33),
            (7, 257, 17),
        ] {
            let a = random_i8(m * k, &mut rng);
            let b = random_i8(k * n, &mut rng);
            let slow = matmul_i8_i32_reference(&a, &b, m, k, n).unwrap();
            let packed = PackedI8::pack(&b, k, n).unwrap();
            for tile in host_tiles() {
                assert_eq!(
                    product_on(&a, &packed, m, tile, 1),
                    slow,
                    "({m},{k},{n}) {tile:?}"
                );
            }
            with_simd_on_and_off(|mode| {
                let fast = matmul_i8_i32(&a, &b, m, k, n).unwrap();
                assert_eq!(fast, slow, "({m},{k},{n}) {mode}");
            });
        }
    }

    #[test]
    fn i8_gemm_parallel_path_matches_reference() {
        // Every tile the host has, each through the band driver with
        // explicit thread counts.
        let mut rng = DetRng::new(9);
        let (ms, ns, ks) = TAIL_SHAPES;
        for m in ms {
            for n in ns {
                for k in ks {
                    let a = random_i8(m * k, &mut rng);
                    let b = random_i8(k * n, &mut rng);
                    let slow = matmul_i8_i32_reference(&a, &b, m, k, n).unwrap();
                    let packed = PackedI8::pack(&b, k, n).unwrap();
                    for tile in host_tiles() {
                        for threads in THREADS {
                            let fast = product_on(&a, &packed, m, tile, threads);
                            assert_eq!(fast, slow, "({m},{k},{n}) x {threads}, {tile:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 131071-deep product is too slow to interpret")]
    fn i8_gemm_is_exact_at_the_public_depth_bound() {
        // The deepest product `matmul_i8_i32` promises exact, with the
        // operands that push its sums furthest: `127 * -128` (whose VNNI
        // partial sums `255 * -128 * k` leave i32 long before the end)
        // and `-128 * -128` (whose true sum sits 16383 below i32::MAX).
        let (m, k, n) = (2, 131_071, 17);
        let a: Vec<i8> = [127i8, -128]
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, k))
            .collect();
        let b = vec![-128i8; k * n];
        let k_i64 = i64::try_from(k).unwrap();
        let exact: Vec<i32> = [127i64 * -128, 128 * 128]
            .iter()
            .flat_map(|&term| std::iter::repeat_n(i32::try_from(term * k_i64).unwrap(), n))
            .collect();
        let packed = PackedI8::pack(&b, k, n).unwrap();
        for tile in host_tiles() {
            assert_eq!(product_on(&a, &packed, m, tile, 1), exact, "{tile:?}");
        }
        assert_eq!(matmul_i8_i32(&a, &b, m, k, n).unwrap(), exact);
    }

    #[test]
    fn packed_operand_holds_quads_and_column_sums() {
        // 5 x 17: two quad rows (the second padded with three zero rows)
        // and two panels (the second holding one real column).
        let (k, n) = (5, 17);
        let b: Vec<i8> = (0..k * n)
            .map(|i| i8::try_from(i % 251).unwrap() - 100)
            .collect();
        let packed = PackedI8::pack(&b, k, n).unwrap();
        assert_eq!((packed.rows(), packed.cols()), (k, n));
        assert_eq!(packed.panels.len(), 2 * 2 * QUAD * NR);
        for j in 0..n {
            let column: Vec<i8> = (0..k).map(|p| b[p * n + j]).collect();
            let sum: i32 = column.iter().map(|&v| i32::from(v)).sum();
            assert_eq!(packed.col_sums()[j], sum, "column {j}");
            let (panel, c) = (j / NR, j % NR);
            for (p, &v) in column.iter().enumerate() {
                let at = panel * 2 * QUAD * NR + (p / QUAD) * QUAD * NR + c * QUAD + p % QUAD;
                assert_eq!(packed.panels[at], v, "b[{p}][{j}]");
            }
        }
        let real = |at: usize| {
            let (c, t) = ((at % (QUAD * NR)) / QUAD, at % QUAD);
            let (panel, q) = (at / (2 * QUAD * NR), (at / (QUAD * NR)) % 2);
            panel * NR + c < n && q * QUAD + t < k
        };
        assert!((0..packed.panels.len())
            .filter(|&at| !real(at))
            .all(|at| packed.panels[at] == 0));
        assert!(PackedI8::pack(&b[1..], k, n).is_err());
        assert!(matmul_i8_packed(&[0; 4], &packed, 1).is_err());

        let walked: Vec<Vec<[i8; NR]>> = packed.panel_rows().map(Iterator::collect).collect();
        assert_eq!(walked.len(), 2);
        for (panel, rows) in walked.iter().enumerate() {
            assert_eq!(rows.len(), k);
            for (p, row) in rows.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    let j = panel * NR + c;
                    let want = if j < n { b[p * n + j] } else { 0 };
                    assert_eq!(v, want, "panel row b[{p}][{j}]");
                }
            }
        }
    }

    #[test]
    fn quad_interleave_matches_the_byte_loop() {
        let mut rng = DetRng::new(12);
        let rows: [[i8; NR]; QUAD] =
            std::array::from_fn(|_| random_i8(NR, &mut rng).try_into().unwrap());
        let (mut fast, mut slow) = ([0i8; QUAD * NR], [0i8; QUAD * NR]);
        interleave(rows.each_ref(), &mut fast);
        interleave_portable(rows.each_ref(), &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn i8_gemm_skips_zero_inputs() {
        // The i8 analogue of `matmul_skips_zero_inputs`: zeros in `a`
        // facing the extreme values of `b` contribute exactly nothing,
        // including in the zero-padded last quad of a depth of 5.
        let (m, k, n) = (3, 5, 17);
        let a: Vec<i8> = vec![
            0, -128, 0, 127, 0, //
            -128, 0, 0, 0, 0, //
            0, 0, 0, 0, 0,
        ];
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 2 == 0 { -128 } else { 127 })
            .collect();
        let slow = matmul_i8_i32_reference(&a, &b, m, k, n).unwrap();
        assert!(slow[2 * n..].iter().all(|&v| v == 0));
        with_simd_on_and_off(|mode| {
            assert_eq!(matmul_i8_i32(&a, &b, m, k, n).unwrap(), slow, "{mode}");
        });
    }

    #[test]
    fn i8_gemm_rejects_bad_lengths() {
        assert!(matmul_i8_i32(&[0; 5], &[0; 6], 2, 3, 2).is_err());
        assert!(matmul_i8_i32(&[0; 6], &[0; 5], 2, 3, 2).is_err());
        assert!(matmul_i8_i32_reference(&[0; 5], &[0; 6], 2, 3, 2).is_err());
        assert!(matmul_i8_i32_reference(&[0; 6], &[0; 5], 2, 3, 2).is_err());
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
        let fastest = host_tiles().next().unwrap();
        if crate::kernels::simd_permitted() {
            assert_eq!(selected_i8_kernel(), fastest.name());
        }
        assert!(["avxvnni", "avx2", "portable"].contains(&fastest.name()));
        crate::kernels::set_simd_enabled(false);
        assert_eq!(selected_i8_kernel(), "portable");
        crate::kernels::set_simd_enabled(true);
    }

    #[test]
    fn f32_kernel_name_is_reported() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let fastest = host_f32_tiles().next().unwrap();
        if crate::kernels::simd_permitted() {
            assert_eq!(selected_f32_kernel(), fastest.name());
        }
        assert!(["avx512", "avx2", "portable"].contains(&fastest.name()));
        crate::kernels::set_simd_enabled(false);
        assert_eq!(selected_f32_kernel(), "portable");
        assert_eq!(F32Tile::selected(), F32Tile::Scalar);
        crate::kernels::set_simd_enabled(true);
    }

    #[test]
    fn block_boundary_sizes() {
        // Sizes straddling the 6- and 12-row tiles, the 16-column panel
        // and the 256-deep slab, on every f32 tile the host has; then the
        // workload shapes: the host encode (700 training rows, 617
        // features, d = 2048), a calibration pass (256 rows) and the class
        // scoring (26 classes).
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(7, 5, 17), (1, 9, 1)]
        } else {
            &[
                (63, 65, 64),
                (64, 64, 64),
                (65, 63, 66),
                (1, 128, 1),
                (13, 513, 33),
                (13, 100, 37),
                (700, 617, 2048),
                (256, 617, 2048),
                (700, 2048, 26),
            ]
        };
        for &(m, k, n) in shapes {
            let mut rng = DetRng::new(6);
            let a = Matrix::random_normal(m, k, &mut rng);
            let b = Matrix::random_normal(k, n, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            let what = format!("({m},{k},{n})");
            assert_bitwise(&fast, &slow, &what);
            assert_every_f32_tile(&a, &b, &slow, &what);
        }
    }
}
