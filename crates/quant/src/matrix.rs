use hd_tensor::gemm::PackedI8;
use hd_tensor::Matrix;

use crate::params::QuantParams;

/// A dense row-major `i8` matrix tagged with its affine quantization
/// parameters: the activations flowing between the stages of a
/// quantized model. Weights are kept packed, as
/// [`PackedQuantizedMatrix`].
///
/// # Examples
///
/// ```
/// use hd_quant::{QuantParams, QuantizedMatrix};
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = Matrix::from_rows(&[&[0.5, -0.5]])?;
/// let q = QuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0)?);
/// assert_eq!(q.shape(), (1, 2));
/// assert!(q.dequantize().frobenius_distance(&m)? < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Quantizes a real matrix element-wise under `params`.
    #[must_use]
    pub fn quantize(m: &Matrix, params: QuantParams) -> Self {
        let data = params.quantize_all(m.as_slice());
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data,
            params,
        }
    }

    /// Builds a quantized matrix from raw `i8` data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_raw(rows: usize, cols: usize, data: Vec<i8>, params: QuantParams) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "raw data length {} does not match {rows}x{cols}",
            data.len()
        );
        QuantizedMatrix {
            rows,
            cols,
            data,
            params,
        }
    }

    /// Recovers the real-valued matrix (with quantization error).
    ///
    /// # Panics
    ///
    /// Panics only if an internal invariant breaks: the stored data length
    /// always matches `rows * cols` by construction.
    pub fn dequantize(&self) -> Matrix {
        let data: Vec<f32> = self
            .data
            .iter()
            .map(|&q| self.params.dequantize(q))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
            .expect("internal invariant: data length matches shape")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The quantization parameters this matrix was encoded with.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// A view of the raw quantized values in row-major order.
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Borrow of row `r` as a contiguous slice of quantized values.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// A weight matrix: `i8` values tagged with their affine quantization,
/// stored packed as the right operand of the int8 kernel ([`PackedI8`]).
///
/// This is the on-accelerator representation of both per-tensor weight
/// matrices of the paper's wide NN, the `n x d` base-hypervector matrix
/// and the `d x k` class-hypervector matrix. It is packed once, when it
/// is quantized or read from a model file; every product over it, and
/// every read or fault of a single value, works on that one copy.
///
/// # Examples
///
/// ```
/// use hd_quant::{PackedQuantizedMatrix, QuantParams};
/// use hd_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = Matrix::from_rows(&[&[0.5, -0.5]])?;
/// let q = PackedQuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0)?);
/// assert_eq!(q.shape(), (1, 2));
/// assert_eq!(q.get(0, 1), -64);
/// assert!(q.dequantize().frobenius_distance(&m)? < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedQuantizedMatrix {
    data: PackedI8,
    params: QuantParams,
}

impl PackedQuantizedMatrix {
    /// Quantizes a real matrix element-wise under `params`.
    #[must_use]
    pub fn quantize(m: &Matrix, params: QuantParams) -> Self {
        Self::from_raw(
            m.rows(),
            m.cols(),
            &params.quantize_all(m.as_slice()),
            params,
        )
    }

    /// Packs raw row-major `i8` values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_raw(rows: usize, cols: usize, data: &[i8], params: QuantParams) -> Self {
        let data = PackedI8::pack(data, rows, cols).unwrap_or_else(|_| {
            panic!(
                "raw data length {} does not match {rows}x{cols}",
                data.len()
            )
        });
        PackedQuantizedMatrix { data, params }
    }

    /// The packed values, as the int8 kernel reads them.
    pub fn packed(&self) -> &PackedI8 {
        &self.data
    }

    /// The quantization parameters of the values.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// The quantized value at row `r`, column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> i8 {
        self.data.get(r, c)
    }

    /// Storage footprint in bytes — what the accelerator's on-chip
    /// parameter buffer must hold for this tensor: one byte per value,
    /// whatever the packing pads.
    pub fn byte_size(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Recovers the real-valued matrix (with quantization error).
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows(), self.cols(), |r, c| {
            self.params.dequantize(self.get(r, c))
        })
    }

    /// Flips each stored bit independently with probability `rate` —
    /// a memory-fault injection primitive for robustness studies (edge
    /// SRAM upsets, the failure mode HDC's holographic representation is
    /// claimed to tolerate). Values are visited in row-major order, bits
    /// from the lowest, one draw of `rng` each.
    ///
    /// Returns the number of bits actually flipped.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn apply_bit_flips(&mut self, rate: f64, rng: &mut hd_tensor::rng::DetRng) -> usize {
        assert!(
            (0.0..=1.0).contains(&rate),
            "flip rate {rate} outside [0, 1]"
        );
        let mut flipped = 0usize;
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                let mut byte = self.get(r, c) as u8;
                for bit in 0..8 {
                    if rng.next_f64() < rate {
                        byte ^= 1u8 << bit;
                        flipped += 1;
                    }
                }
                self.data.set(r, c, byte as i8);
            }
        }
        flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;

    #[test]
    fn quantize_dequantize_bounded_error() {
        let mut rng = DetRng::new(1);
        let m = Matrix::random_uniform(10, 10, -2.0, 2.0, &mut rng);
        let params = QuantParams::from_min_max(-2.0, 2.0).unwrap();
        let q = QuantizedMatrix::quantize(&m, params);
        let back = q.dequantize();
        for (orig, rec) in m.iter().zip(back.iter()) {
            assert!((orig - rec).abs() <= params.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn shape_is_preserved() {
        let m = Matrix::zeros(3, 7);
        let q = QuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0).unwrap());
        assert_eq!(q.shape(), (3, 7));
        assert_eq!(q.row(2).len(), 7);
        let w = PackedQuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0).unwrap());
        assert_eq!(w.shape(), (3, 7));
        assert_eq!(w.byte_size(), 21);
    }

    #[test]
    fn zero_matrix_quantizes_to_zero_points() {
        let m = Matrix::zeros(2, 2);
        let params = QuantParams::from_min_max(-1.0, 3.0).unwrap();
        let q = QuantizedMatrix::quantize(&m, params);
        assert!(q
            .as_slice()
            .iter()
            .all(|&v| v as i32 == params.zero_point()));
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_raw_roundtrip() {
        let params = QuantParams::symmetric(1.27).unwrap();
        let q = QuantizedMatrix::from_raw(1, 3, vec![-127, 0, 127], params);
        let d = q.dequantize();
        assert!((d[(0, 0)] + 1.27).abs() < 1e-5);
        assert_eq!(d[(0, 1)], 0.0);
        assert!((d[(0, 2)] - 1.27).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_raw_rejects_bad_length() {
        let params = QuantParams::symmetric(1.0).unwrap();
        let _ = QuantizedMatrix::from_raw(2, 2, vec![0; 3], params);
    }

    #[test]
    fn packed_weights_hold_the_quantized_values() {
        let mut rng = DetRng::new(2);
        let m = Matrix::random_uniform(9, 21, -2.0, 2.0, &mut rng);
        let params = QuantParams::from_min_max(-2.0, 2.0).unwrap();
        let rows = QuantizedMatrix::quantize(&m, params);
        let packed = PackedQuantizedMatrix::quantize(&m, params);
        for r in 0..9 {
            for c in 0..21 {
                assert_eq!(packed.get(r, c), rows.row(r)[c]);
            }
        }
        assert_eq!(packed.dequantize(), rows.dequantize());
    }

    #[test]
    fn bit_flips_change_exactly_reported_count() {
        let params = QuantParams::symmetric(1.0).unwrap();
        let original = PackedQuantizedMatrix::from_raw(8, 8, &[0; 64], params);
        let mut mutated = original.clone();
        let mut rng = DetRng::new(9);
        let flipped = mutated.apply_bit_flips(0.05, &mut rng);
        let mut differing_bits = 0;
        for r in 0..8 {
            for c in 0..8 {
                differing_bits +=
                    ((original.get(r, c) as u8) ^ (mutated.get(r, c) as u8)).count_ones();
            }
        }
        assert_eq!(differing_bits as usize, flipped);
        assert!(flipped > 0, "5% of 512 bits should flip something");
    }

    #[test]
    fn zero_rate_flips_nothing() {
        let params = QuantParams::symmetric(1.0).unwrap();
        let mut m = PackedQuantizedMatrix::from_raw(4, 4, &[7; 16], params);
        let mut rng = DetRng::new(10);
        assert_eq!(m.apply_bit_flips(0.0, &mut rng), 0);
        assert_eq!(m, PackedQuantizedMatrix::from_raw(4, 4, &[7; 16], params));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_rate_panics() {
        let params = QuantParams::symmetric(1.0).unwrap();
        let mut m = PackedQuantizedMatrix::from_raw(1, 1, &[0], params);
        let mut rng = DetRng::new(11);
        let _ = m.apply_bit_flips(1.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn packed_from_raw_rejects_bad_length() {
        let params = QuantParams::symmetric(1.0).unwrap();
        let _ = PackedQuantizedMatrix::from_raw(2, 2, &[0; 3], params);
    }

    #[test]
    fn saturation_clamps_extremes() {
        let m = Matrix::from_rows(&[&[100.0, -100.0]]).unwrap();
        let q = QuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0).unwrap());
        assert_eq!(q.as_slice(), &[127, -128]);
    }
}
