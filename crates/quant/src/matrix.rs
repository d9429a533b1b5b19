use hd_tensor::gemm::PackedI8;
use hd_tensor::Matrix;

use crate::params::QuantParams;

/// A dense row-major `i8` matrix tagged with its affine quantization
/// parameters.
///
/// This is the on-accelerator representation of both weight matrices of the
/// paper's wide NN: the `n x d` base-hypervector matrix and the `d x k`
/// class-hypervector matrix.
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
        let data = m.iter().map(|&v| params.quantize(v)).collect();
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data,
            params,
        }
    }

    /// This matrix packed as the right operand of the int8 kernel, with
    /// its quantization, for a caller that multiplies by it many times.
    /// The copy does not follow later changes to `self`.
    ///
    /// # Panics
    ///
    /// Only if the matrix broke its `rows x cols` length invariant, which
    /// every constructor enforces.
    #[must_use]
    pub fn packed(&self) -> PackedQuantizedMatrix {
        PackedQuantizedMatrix {
            data: PackedI8::pack(&self.data, self.rows, self.cols)
                .expect("a quantized matrix holds rows x cols values"),
            params: self.params,
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

    /// Storage footprint in bytes — what the accelerator's on-chip
    /// parameter buffer must hold for this tensor.
    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// Flips each stored bit independently with probability `rate` —
    /// a memory-fault injection primitive for robustness studies (edge
    /// SRAM upsets, the failure mode HDC's holographic representation is
    /// claimed to tolerate).
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
        for byte in &mut self.data {
            for bit in 0..8 {
                if rng.next_f64() < rate {
                    *byte = (*byte as u8 ^ (1u8 << bit)) as i8;
                    flipped += 1;
                }
            }
        }
        flipped
    }
}

/// A [`QuantizedMatrix`] packed once as the right operand of the int8
/// kernel ([`PackedI8`]), together with its quantization: the weights a
/// device keeps resident. Built by [`QuantizedMatrix::packed`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedQuantizedMatrix {
    data: PackedI8,
    params: QuantParams,
}

impl PackedQuantizedMatrix {
    /// The packed values.
    pub fn data(&self) -> &PackedI8 {
        &self.data
    }

    /// The quantization parameters of the values.
    pub fn params(&self) -> QuantParams {
        self.params
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
        assert_eq!(q.byte_size(), 21);
        assert_eq!(q.row(2).len(), 7);
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
    fn bit_flips_change_exactly_reported_count() {
        use hd_tensor::rng::DetRng;
        let params = QuantParams::symmetric(1.0).unwrap();
        let original = QuantizedMatrix::from_raw(8, 8, vec![0; 64], params);
        let mut mutated = original.clone();
        let mut rng = DetRng::new(9);
        let flipped = mutated.apply_bit_flips(0.05, &mut rng);
        let differing_bits: u32 = original
            .as_slice()
            .iter()
            .zip(mutated.as_slice())
            .map(|(a, b)| ((*a as u8) ^ (*b as u8)).count_ones())
            .sum();
        assert_eq!(differing_bits as usize, flipped);
        assert!(flipped > 0, "5% of 512 bits should flip something");
    }

    #[test]
    fn zero_rate_flips_nothing() {
        use hd_tensor::rng::DetRng;
        let params = QuantParams::symmetric(1.0).unwrap();
        let mut m = QuantizedMatrix::from_raw(4, 4, vec![7; 16], params);
        let mut rng = DetRng::new(10);
        assert_eq!(m.apply_bit_flips(0.0, &mut rng), 0);
        assert!(m.as_slice().iter().all(|&v| v == 7));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_rate_panics() {
        use hd_tensor::rng::DetRng;
        let params = QuantParams::symmetric(1.0).unwrap();
        let mut m = QuantizedMatrix::from_raw(1, 1, vec![0], params);
        let mut rng = DetRng::new(11);
        let _ = m.apply_bit_flips(1.5, &mut rng);
    }

    #[test]
    fn saturation_clamps_extremes() {
        let m = Matrix::from_rows(&[&[100.0, -100.0]]).unwrap();
        let q = QuantizedMatrix::quantize(&m, QuantParams::symmetric(1.0).unwrap());
        assert_eq!(q.as_slice(), &[127, -128]);
    }
}
