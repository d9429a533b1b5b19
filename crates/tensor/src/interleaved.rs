//! Class rows stored class-interleaved, scored several samples per sweep.
//!
//! The perceptron pass scores every training sample against all `k`
//! class hypervectors, and on a miss changes two of them. On a general
//! purpose CPU that scoring is bound by the traffic over the class data,
//! not by arithmetic, so [`InterleavedClasses`] lays the classes out for
//! one sweep to serve several samples:
//!
//! * Classes go in groups of 4; the last group is zero-padded. Within a
//!   group, the 4-float chunk `i` of each of the 4 classes sits side by
//!   side in one 16-float block, so a block holds exactly the operands
//!   of [`crate::ops::dot`]'s four lane accumulators for 4 classes. The
//!   `d % 4` tail of each class is kept per class, apart.
//! * A scoring tile keeps one accumulator block per sample and class
//!   group, multiplies it with the sample's chunk broadcast to every
//!   class (a separate multiply and add, never FMA) and reduces each
//!   class in `dot`'s order: `acc0 + acc1 + acc2 + acc3`, then the tail
//!   terms. Every score is therefore bit-identical to `ops::dot`.
//! * The tile is picked per call from the host's features, the way the
//!   `i8` GEMM picks its tile: AVX-512 scores 4 samples per sweep (one
//!   `zmm` holds a class group's accumulators), AVX2 scores 2 (one `ymm`
//!   holds two classes'), and the scalar tile scores 2 with plain loops
//!   (Miri, `HD_NO_SIMD`, [`crate::kernels::set_simd_enabled`]`(false)`,
//!   hosts without AVX2). [`InterleavedClasses::sweep_rows`] says how
//!   many samples the selected tile takes.
//!
//! [`InterleavedClasses::dot`] scores one class alone and
//! [`InterleavedClasses::axpy`] updates one in place; both are
//! elementwise in `ops::dot`'s and `ops::axpy`'s order, so neither
//! depends on the layout's bits.

use crate::error::TensorError;
use crate::{Matrix, Result};

/// Classes per interleaved group.
const GROUP: usize = 4;
/// Floats per class chunk: one of `ops::dot`'s four lane accumulators
/// each.
const LANES: usize = 4;
/// Floats in one group block: 4 classes' chunks side by side.
const BLOCK: usize = GROUP * LANES;
/// Samples the scalar tile scores per sweep.
const SCALAR_ROWS: usize = 2;

/// `k` class rows of width `d`, class-interleaved (see the module docs).
///
/// # Examples
///
/// ```
/// use hd_tensor::interleaved::InterleavedClasses;
/// use hd_tensor::{ops, Matrix};
///
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// // d = 5, k = 2: classes are the columns.
/// let m = Matrix::from_fn(5, 2, |i, j| (i + 3 * j) as f32 - 2.0);
/// let mut classes = InterleavedClasses::from_matrix(&m);
/// let sample = [0.5, -1.0, 2.0, 0.25, 3.0];
/// let mut scores = [0.0; 2];
/// classes.scores(&sample, &mut scores)?;
/// assert_eq!(scores[1], ops::dot(&sample, &m.col(1)?)?);
/// assert_eq!(classes.dot(1, &sample)?, scores[1]);
/// classes.axpy(0, 2.0, &sample)?;
/// let mut back = Matrix::zeros(5, 2);
/// classes.write_to(&mut back)?;
/// assert_eq!(back[(4, 0)], m[(4, 0)] + 2.0 * 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedClasses {
    /// Width `d` of each class row.
    d: usize,
    /// Number of classes `k`.
    k: usize,
    /// `k.div_ceil(4)` groups of `d / 4` blocks of 16 floats: block `i`
    /// of group `g` holds floats `4i..4i + 4` of classes `4g..4g + 4`.
    body: Vec<f32>,
    /// The last `d % 4` floats of each class, class after class.
    tail: Vec<f32>,
}

impl InterleavedClasses {
    /// Interleaves the classes of a `d x k` class matrix (one class per
    /// column).
    #[must_use]
    pub fn from_matrix(classes: &Matrix) -> Self {
        let (d, k) = classes.shape();
        let (chunks, tail_len) = (d / LANES, d % LANES);
        let mut body = vec![0.0; k.div_ceil(GROUP) * chunks * BLOCK];
        let mut tail = vec![0.0; k * tail_len];
        for i in 0..d {
            let row = classes.row(i);
            if i < chunks * LANES {
                let (chunk, lane) = (i / LANES, i % LANES);
                for (j, &v) in row.iter().enumerate() {
                    body[Self::body_index(chunks, j, chunk) + lane] = v;
                }
            } else {
                for (j, &v) in row.iter().enumerate() {
                    tail[j * tail_len + i - chunks * LANES] = v;
                }
            }
        }
        InterleavedClasses { d, k, body, tail }
    }

    /// Writes the classes into `classes`, a `d x k` class matrix (one
    /// class per column).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `classes` is not
    /// `d x k`.
    pub fn write_to(&self, classes: &mut Matrix) -> Result<()> {
        if classes.shape() != (self.d, self.k) {
            return Err(TensorError::ShapeMismatch {
                op: "interleaved write_to",
                lhs: (self.d, self.k),
                rhs: classes.shape(),
            });
        }
        let (chunks, tail_len) = (self.d / LANES, self.d % LANES);
        for i in 0..self.d {
            for (j, v) in classes.row_mut(i).iter_mut().enumerate() {
                *v = if i < chunks * LANES {
                    self.body[Self::body_index(chunks, j, i / LANES) + i % LANES]
                } else {
                    self.tail[j * tail_len + i - chunks * LANES]
                };
            }
        }
        Ok(())
    }

    /// Number of classes `k`.
    pub fn class_count(&self) -> usize {
        self.k
    }

    /// Samples the selected scoring tile takes per sweep over the
    /// classes: 4 (AVX-512), or 2 (AVX2 and the scalar tile).
    pub fn sweep_rows() -> usize {
        ScoreTile::selected().rows()
    }

    /// Where class `j`'s chunk `chunk` starts in `body`.
    fn body_index(chunks: usize, j: usize, chunk: usize) -> usize {
        ((j / GROUP) * chunks + chunk) * BLOCK + (j % GROUP) * LANES
    }

    /// Scores each row of `samples` (row-major, `d` wide) against every
    /// class: `scores[r * k + j]` is bit-identical to
    /// `ops::dot(sample r, class j)`. The selected tile sweeps the
    /// classes once per [`InterleavedClasses::sweep_rows`] samples.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `samples` is not whole
    /// rows of width `d` or `scores` does not hold `k` scores per row.
    pub fn scores(&self, samples: &[f32], scores: &mut [f32]) -> Result<()> {
        self.scores_on(ScoreTile::selected(), samples, scores)
    }

    /// [`InterleavedClasses::scores`] on a given tile.
    fn scores_on(&self, tile: ScoreTile, samples: &[f32], scores: &mut [f32]) -> Result<()> {
        // With `d = 0` every sample is empty; `scores` says how many.
        let rows = samples
            .len()
            .checked_div(self.d)
            .unwrap_or(scores.len() / self.k.max(1));
        if samples.len() != rows * self.d {
            return Err(TensorError::LengthMismatch {
                expected: rows * self.d,
                actual: samples.len(),
            });
        }
        if scores.len() != rows * self.k {
            return Err(TensorError::LengthMismatch {
                expected: rows * self.k,
                actual: scores.len(),
            });
        }
        let (step, chunks) = (tile.rows(), self.d / LANES);
        for r0 in (0..rows).step_by(step) {
            let m = step.min(rows - r0);
            let block = &samples[r0 * self.d..(r0 + m) * self.d];
            let out = &mut scores[r0 * self.k..(r0 + m) * self.k];
            crate::gemm::score_interleaved(tile, &self.body, chunks, block, self.d, out);
            for (sample, out) in block
                .chunks_exact(self.d.max(1))
                .zip(out.chunks_exact_mut(self.k))
            {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = self.add_tail(j, *o, &sample[chunks * LANES..]);
                }
            }
        }
        Ok(())
    }

    /// `sum` plus class `j`'s tail terms against `tail`, in `dot`'s
    /// order.
    fn add_tail(&self, j: usize, mut sum: f32, tail: &[f32]) -> f32 {
        let tail_len = self.d % LANES;
        for (s, c) in tail.iter().zip(&self.tail[j * tail_len..][..tail_len]) {
            sum += s * c;
        }
        sum
    }

    /// Checks that class `j` exists and `x` is one class wide.
    fn check(&self, j: usize, x: &[f32], op: &'static str) -> Result<()> {
        if j >= self.k {
            return Err(TensorError::IndexOutOfBounds {
                index: j,
                bound: self.k,
            });
        }
        if x.len() != self.d {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: (1, x.len()),
                rhs: (self.k, self.d),
            });
        }
        Ok(())
    }

    /// Class `j`'s dot product with `sample`, bit-identical to
    /// `ops::dot(sample, class j)` and to its entry in
    /// [`InterleavedClasses::scores`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `j >= k` and
    /// [`TensorError::ShapeMismatch`] if `sample` is not `d` wide.
    pub fn dot(&self, j: usize, sample: &[f32]) -> Result<f32> {
        self.check(j, sample, "interleaved dot")?;
        let chunks = self.d / LANES;
        let mut acc = [0.0f32; LANES];
        for (chunk, s) in sample.chunks_exact(LANES).enumerate() {
            let c = &self.body[Self::body_index(chunks, j, chunk)..][..LANES];
            for lane in 0..LANES {
                acc[lane] += s[lane] * c[lane];
            }
        }
        let sum = acc[0] + acc[1] + acc[2] + acc[3];
        Ok(self.add_tail(j, sum, &sample[chunks * LANES..]))
    }

    /// In-place `class j += alpha * x`, elementwise as `ops::axpy`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `j >= k` and
    /// [`TensorError::ShapeMismatch`] if `x` is not `d` wide.
    pub fn axpy(&mut self, j: usize, alpha: f32, x: &[f32]) -> Result<()> {
        self.check(j, x, "interleaved axpy")?;
        let (chunks, tail_len) = (self.d / LANES, self.d % LANES);
        for (chunk, x) in x.chunks_exact(LANES).enumerate() {
            let c = &mut self.body[Self::body_index(chunks, j, chunk)..][..LANES];
            for (ci, xi) in c.iter_mut().zip(x) {
                *ci += alpha * xi;
            }
        }
        let tail = &mut self.tail[j * tail_len..][..tail_len];
        for (ci, xi) in tail.iter_mut().zip(&x[chunks * LANES..]) {
            *ci += alpha * xi;
        }
        Ok(())
    }
}

/// The scoring tiles. All of them read the same blocks and produce the
/// same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScoreTile {
    /// 4 samples per sweep, a class group's accumulators in one `zmm`.
    Avx512,
    /// 2 samples per sweep, two classes' accumulators in one `ymm`.
    Avx2,
    /// The scalar tile, 2 samples per sweep: Miri, `HD_NO_SIMD`, and
    /// hosts without AVX2.
    Scalar,
}

impl ScoreTile {
    /// Every tile, in order of preference.
    pub(crate) const ALL: [ScoreTile; 3] = [ScoreTile::Avx512, ScoreTile::Avx2, ScoreTile::Scalar];

    /// Samples the tile scores per sweep.
    pub(crate) fn rows(self) -> usize {
        match self {
            ScoreTile::Avx512 => 4,
            ScoreTile::Avx2 => 2,
            ScoreTile::Scalar => SCALAR_ROWS,
        }
    }

    /// Whether this host can run the tile.
    pub(crate) fn supported(self) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                ScoreTile::Avx512 => has!("avx512f"),
                ScoreTile::Avx2 => has!("avx2"),
                ScoreTile::Scalar => true,
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            self == ScoreTile::Scalar
        }
    }

    /// The tile the dispatcher runs right now: the first one the host
    /// supports, or the scalar tile when SIMD is not permitted.
    fn selected() -> ScoreTile {
        if !crate::kernels::simd_permitted() {
            return ScoreTile::Scalar;
        }
        ScoreTile::ALL
            .into_iter()
            .find(|tile| tile.supported())
            .unwrap_or(ScoreTile::Scalar)
    }
}

/// The scalar tile: for each row of `samples` (at most [`SCALAR_ROWS`],
/// `d` wide) and each class `j` of `out`'s `k = out.len() / rows`, the
/// reduced body sum `acc0 + acc1 + acc2 + acc3` of `ops::dot`, written to
/// `out[r * k + j]`. Reads `body` (`chunks` blocks per class group) as
/// [`InterleavedClasses`] lays it out; `chunks` is at least 1.
pub(crate) fn score_portable(
    body: &[f32],
    chunks: usize,
    samples: &[f32],
    d: usize,
    out: &mut [f32],
) {
    let rows = samples.len() / d;
    let k = out.len() / rows;
    for (g, group) in body.chunks_exact(chunks * BLOCK).enumerate() {
        let mut acc = [[0.0f32; BLOCK]; SCALAR_ROWS];
        for (chunk, block) in group.chunks_exact(BLOCK).enumerate() {
            for (r, acc) in acc.iter_mut().enumerate().take(rows) {
                let s = &samples[r * d + chunk * LANES..][..LANES];
                for c in 0..GROUP {
                    for lane in 0..LANES {
                        acc[c * LANES + lane] += s[lane] * block[c * LANES + lane];
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate().take(rows) {
            for (c, a) in acc.chunks_exact(LANES).enumerate() {
                if let Some(o) = out[r * k..(r + 1) * k].get_mut(g * GROUP + c) {
                    *o = a[0] + a[1] + a[2] + a[3];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn host_tiles() -> impl Iterator<Item = ScoreTile> {
        ScoreTile::ALL.into_iter().filter(|tile| tile.supported())
    }

    fn random(rows: usize, cols: usize, rng: &mut DetRng) -> Matrix {
        Matrix::random_normal(rows, cols, rng)
    }

    #[test]
    fn round_trips_the_class_matrix() {
        let mut rng = DetRng::new(1);
        for (d, k) in [(0, 3), (1, 1), (3, 5), (4, 4), (9, 7), (17, 8)] {
            let m = random(d, k, &mut rng);
            let classes = InterleavedClasses::from_matrix(&m);
            assert_eq!(classes.class_count(), k);
            let mut back = Matrix::zeros(d, k);
            classes.write_to(&mut back).unwrap();
            assert_eq!(back, m, "d {d} k {k}");
            assert!(classes.write_to(&mut Matrix::zeros(d + 1, k)).is_err());
        }
    }

    #[test]
    fn padding_classes_stay_zero() {
        let m = Matrix::from_fn(8, 5, |i, j| (i * 5 + j) as f32 + 1.0);
        let classes = InterleavedClasses::from_matrix(&m);
        // Group 1 holds class 4 and three padding classes.
        let group = &classes.body[2 * BLOCK..];
        for block in group.chunks_exact(BLOCK) {
            assert!(block[LANES..].iter().all(|&v| v == 0.0), "{block:?}");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut classes = InterleavedClasses::from_matrix(&Matrix::zeros(6, 3));
        assert!(classes.dot(3, &[0.0; 6]).is_err());
        assert!(classes.dot(0, &[0.0; 5]).is_err());
        assert!(classes.axpy(3, 1.0, &[0.0; 6]).is_err());
        assert!(classes.axpy(0, 1.0, &[0.0; 7]).is_err());
        assert!(classes.scores(&[0.0; 7], &mut [0.0; 3]).is_err());
        assert!(classes.scores(&[0.0; 12], &mut [0.0; 3]).is_err());
        assert!(classes.scores(&[0.0; 12], &mut [0.0; 6]).is_ok());
    }

    #[test]
    fn sweep_rows_is_the_selected_tiles() {
        let _guard = crate::kernels::TEST_SIMD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::kernels::set_simd_enabled(false);
        let scalar = InterleavedClasses::sweep_rows();
        crate::kernels::set_simd_enabled(true);
        assert_eq!(scalar, ScoreTile::Scalar.rows());
        assert!(host_tiles().any(|t| t.rows() == InterleavedClasses::sweep_rows()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Every tile this host has, each row count up to a whole sweep
        /// (a block cut short at the end of a set included), against one
        /// `ops::dot` per class; and the per-class `dot` likewise.
        #[test]
        fn every_tile_matches_per_class_dot(
            seed in 0u64..5000,
            d in 1usize..300,
            k in 1usize..30,
        ) {
            let mut rng = DetRng::new(seed);
            let m = random(d, k, &mut rng);
            let classes = InterleavedClasses::from_matrix(&m);
            let columns: Vec<Vec<f32>> = (0..k).map(|j| m.col(j).unwrap()).collect();
            for tile in host_tiles() {
                for rows in 1..=tile.rows() + 1 {
                    let samples = random(rows, d, &mut rng);
                    let mut scores = vec![f32::NAN; rows * k];
                    classes.scores_on(tile, samples.as_slice(), &mut scores).unwrap();
                    let want: Vec<f32> = (0..rows)
                        .flat_map(|r| columns.iter().map(move |c| (r, c)))
                        .map(|(r, c)| ops::dot(samples.row(r), c).unwrap())
                        .collect();
                    prop_assert_eq!(bits(&scores), bits(&want), "{:?} rows {}", tile, rows);
                    for (r, j) in (0..rows).flat_map(|r| (0..k).map(move |j| (r, j))) {
                        let one = classes.dot(j, samples.row(r)).unwrap();
                        prop_assert_eq!(one.to_bits(), want[r * k + j].to_bits());
                    }
                }
            }
        }

        /// `axpy` on the layout is `ops::axpy` on the class column.
        #[test]
        fn axpy_matches_row_axpy(seed in 0u64..5000, d in 0usize..40, k in 1usize..9) {
            let mut rng = DetRng::new(seed);
            let m = random(d, k, &mut rng);
            let x: Vec<f32> = (0..d).map(|_| rng.next_normal()).collect();
            let j = rng.next_index(k);
            let alpha = rng.next_normal();
            let mut classes = InterleavedClasses::from_matrix(&m);
            classes.axpy(j, alpha, &x).unwrap();
            let mut column = m.col(j).unwrap();
            ops::axpy(alpha, &x, &mut column).unwrap();
            let mut got = Matrix::zeros(d, k);
            classes.write_to(&mut got).unwrap();
            prop_assert_eq!(bits(&got.col(j).unwrap()), bits(&column));
            for other in (0..k).filter(|&o| o != j) {
                prop_assert_eq!(bits(&got.col(other).unwrap()), bits(&m.col(other).unwrap()));
            }
        }
    }
}
