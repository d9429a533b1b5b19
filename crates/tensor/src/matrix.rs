use std::fmt;
use std::ops::{Index, IndexMut};

use crate::error::TensorError;
use crate::rng::DetRng;
use crate::Result;

/// An owned, dense, row-major `f32` matrix.
///
/// `Matrix` is the universal data container of the HyperEdge workspace:
/// input samples are stored as a `samples x features` matrix, base
/// hypervectors as a `features x d` matrix, and class hypervectors as a
/// `d x classes` matrix — exactly the weight matrices of the paper's
/// three-layer wide neural network.
///
/// # Examples
///
/// ```
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), hd_tensor::TensorError> {
/// let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(m[(1, 2)], 6.0);
/// assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use hd_tensor::Matrix;
    /// let m = Matrix::zeros(2, 2);
    /// assert_eq!(m.iter().sum::<f32>(), 0.0);
    /// ```
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a square identity matrix of size `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hd_tensor::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the rows have differing
    /// lengths, and [`TensorError::EmptyDimension`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let first = rows
            .first()
            .ok_or(TensorError::EmptyDimension { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::LengthMismatch {
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Examples
    ///
    /// ```
    /// use hd_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
    /// assert_eq!(m[(1, 0)], 2.0);
    /// ```
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose elements are drawn i.i.d. from the standard
    /// normal distribution `N(0, 1)` using the given deterministic RNG.
    ///
    /// This is exactly how the paper generates base hypervectors: random
    /// components with `mu = 0`, `sigma = 1`, making distinct rows nearly
    /// orthogonal in high dimensions.
    #[must_use]
    pub fn random_normal(rows: usize, cols: usize, rng: &mut DetRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.next_normal()).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose elements are drawn uniformly from `[lo, hi)`.
    #[must_use]
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut DetRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix contains no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a freshly allocated vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Result<Vec<f32>> {
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: c,
                bound: self.cols,
            });
        }
        Ok((0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect())
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Iterates mutably over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Iterates over the rows as contiguous slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use hd_tensor::Matrix;
    /// # fn main() -> Result<(), hd_tensor::TensorError> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]])?;
    /// let t = m.transposed();
    /// assert_eq!(t.shape(), (3, 1));
    /// assert_eq!(t[(2, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Returns a new matrix containing the rows selected by `indices`,
    /// in order (duplicates allowed — this is how bootstrap sampling with
    /// replacement materializes a resampled dataset).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for any out-of-range index.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Returns a sub-matrix of the row range `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `start > end` or
    /// `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: self.rows,
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Horizontally stacks matrices side by side: `[A | B | ...]`.
    ///
    /// This is the paper's merge step for bagged *base* hypervector
    /// matrices: `M` sub-model matrices of shape `n x d'` become one
    /// `n x (M * d')` encoding weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `parts` is empty and
    /// [`TensorError::ShapeMismatch`] when row counts differ.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or(TensorError::EmptyDimension { op: "hstack" })?;
        let rows = first.rows;
        let mut cols = 0;
        for p in parts {
            if p.rows != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "hstack",
                    lhs: (rows, first.cols),
                    rhs: p.shape(),
                });
            }
            cols += p.cols;
        }
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Vertically stacks matrices on top of each other.
    ///
    /// This is the paper's merge step for bagged *class* hypervector
    /// matrices: `M` sub-model matrices of shape `d' x k` become one
    /// `(M * d') x k` classification weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when `parts` is empty and
    /// [`TensorError::ShapeMismatch`] when column counts differ.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or(TensorError::EmptyDimension { op: "vstack" })?;
        let cols = first.cols;
        let mut rows = 0;
        let mut data = Vec::new();
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: (first.rows, cols),
                    rhs: p.shape(),
                });
            }
            rows += p.rows;
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scales every element by `factor` in place.
    pub fn scale_inplace(&mut self, factor: f32) {
        self.map_inplace(|v| v * factor);
    }

    /// Element-wise sum of two matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute element value; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm of the difference to `other`, used by tests to bound
    /// quantization error.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn frobenius_distance(&self, other: &Matrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "frobenius_distance",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum.sqrt())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.3}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows.min(6) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:8.4}"))
                .collect();
            writeln!(
                f,
                "[{}{}]",
                row.join(" "),
                if self.cols > 8 { " ..." } else { "" }
            )?;
        }
        if self.rows > 6 {
            writeln!(f, "... ({} rows total)", self.rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, TensorError::EmptyDimension { .. }));
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_moves_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let t = m.transposed();
        assert_eq!(t[(0, 1)], 3.0);
        assert_eq!(t[(1, 0)], 2.0);
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.col(1).unwrap(), vec![2.0, 4.0]);
        assert!(m.col(2).is_err());
    }

    #[test]
    fn select_rows_allows_duplicates() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let s = m.select_rows(&[2, 2, 0]).unwrap();
        assert_eq!(s.as_slice(), &[3.0, 3.0, 1.0]);
    }

    #[test]
    fn select_rows_bounds_check() {
        let m = Matrix::zeros(2, 2);
        assert!(m.select_rows(&[0, 2]).is_err());
    }

    #[test]
    fn slice_rows_basic() {
        let m = Matrix::from_fn(5, 2, |r, _| r as f32);
        let s = m.slice_rows(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert!(m.slice_rows(3, 6).is_err());
        assert!(m.slice_rows(4, 3).is_err());
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn hstack_rejects_mismatched_rows() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        assert!(Matrix::hstack(&[&a, &b]).is_err());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let v = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_cols() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn stack_empty_is_error() {
        assert!(Matrix::hstack(&[]).is_err());
        assert!(Matrix::vstack(&[]).is_err());
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::filled(2, 2, 1.5);
        let b = Matrix::filled(2, 2, 0.5);
        let mut c = a.add(&b).unwrap();
        c.scale_inplace(2.0);
        assert!(c.iter().all(|&v| v == 4.0));
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn random_normal_is_deterministic_per_seed() {
        let mut r1 = DetRng::new(42);
        let mut r2 = DetRng::new(42);
        let a = Matrix::random_normal(4, 4, &mut r1);
        let b = Matrix::random_normal(4, 4, &mut r2);
        assert_eq!(a, b);

        let mut r3 = DetRng::new(43);
        let c = Matrix::random_normal(4, 4, &mut r3);
        assert_ne!(a, c);
    }

    #[test]
    fn random_normal_has_plausible_moments() {
        let mut rng = DetRng::new(7);
        let m = Matrix::random_normal(100, 100, &mut rng);
        let mean: f32 = m.iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn random_uniform_respects_bounds() {
        let mut rng = DetRng::new(9);
        let m = Matrix::random_uniform(50, 50, -2.0, 3.0, &mut rng);
        assert!(m.iter().all(|&v| (-2.0..3.0).contains(&v)));
    }

    #[test]
    fn frobenius_distance_zero_for_identical() {
        let m = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        assert_eq!(m.frobenius_distance(&m).unwrap(), 0.0);
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::filled(2, 3, 2.0);
        let sq = m.map(|v| v * v);
        assert_eq!(sq.shape(), (2, 3));
        assert!(sq.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn debug_format_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_fn(4, 3, |r, _| r as f32);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], &[3.0, 3.0, 3.0]);
    }
}
