/// A weight-stationary systolic array of int8 multiply-accumulate
/// processing elements.
///
/// The array holds one `rows x cols` weight tile at a time; input rows are
/// pumped through it ("efficiently reuses all the inputs by pumping them
/// through each processing element" — the paper's description of the MXU,
/// after Kung). Larger layers are decomposed into
/// `ceil(k / rows) * ceil(n / cols)` tiles; each tile pass streams the full
/// batch plus a pipeline fill/drain of `rows + cols` cycles.
///
/// This type is the array's timing model only: it charges cycles
/// analytically ([`SystolicArray::stream_cycles`] and friends). The
/// numbers come from the compiled model's own int8 stage loop
/// (`wide_nn::QuantizedModel::run_quantized`), over weights stored in
/// the layout the `i8` kernel reads since the model was quantized — the
/// simulator's counterpart of an array that keeps its weights
/// stationary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

impl SystolicArray {
    /// Creates an array of `rows x cols` processing elements.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        SystolicArray { rows, cols }
    }

    /// Array height (reduction dimension per tile).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (output dimension per tile).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tiles needed along the reduction dimension for a `k`-deep layer.
    pub fn tiles_k(&self, k: usize) -> usize {
        k.div_ceil(self.rows)
    }

    /// Tiles needed along the output dimension for an `n`-wide layer.
    pub fn tiles_n(&self, n: usize) -> usize {
        n.div_ceil(self.cols)
    }

    /// Cycles to stream a `batch`-row input through a `k x n` layer with
    /// weights already resident: every tile pass costs the batch length
    /// plus pipeline fill and drain.
    pub fn stream_cycles(&self, batch: usize, k: usize, n: usize) -> u64 {
        let tiles = (self.tiles_k(k) * self.tiles_n(n)) as u64;
        tiles * (batch as u64 + self.rows as u64 + self.cols as u64)
    }

    /// Cycles to shift a `k x n` layer's weights into the array (one tile
    /// row per cycle), charged at model-load time.
    pub fn weight_load_cycles(&self, k: usize, n: usize) -> u64 {
        let tiles = (self.tiles_k(k) * self.tiles_n(n)) as u64;
        tiles * self.rows as u64
    }

    /// Cycles for the activation unit to process `elements` values,
    /// `cols` lanes wide.
    pub fn activation_cycles(&self, elements: usize) -> u64 {
        (elements as u64).div_ceil(self.cols as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_quant::gemm::matmul_requantized;
    use hd_quant::{PackedQuantizedMatrix, QuantParams, QuantizedMatrix};
    use hd_tensor::rng::DetRng;
    use hd_tensor::Matrix;

    #[test]
    fn tile_counts() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.tiles_k(1), 1);
        assert_eq!(a.tiles_k(64), 1);
        assert_eq!(a.tiles_k(65), 2);
        assert_eq!(a.tiles_n(640), 10);
    }

    #[test]
    fn stream_cycles_formula() {
        let a = SystolicArray::new(64, 64);
        // 128x128 layer = 2x2 tiles; batch 100: 4 * (100 + 128) cycles.
        assert_eq!(a.stream_cycles(100, 128, 128), 4 * 228);
    }

    #[test]
    fn weight_load_cycles_formula() {
        let a = SystolicArray::new(64, 32);
        // 128x64 layer = 2x2 tiles; 4 tiles * 64 rows.
        assert_eq!(a.weight_load_cycles(128, 64), 4 * 64);
    }

    #[test]
    fn activation_cycles_round_up() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.activation_cycles(0), 0);
        assert_eq!(a.activation_cycles(1), 1);
        assert_eq!(a.activation_cycles(64), 1);
        assert_eq!(a.activation_cycles(65), 2);
    }

    /// The i64 tile loop the device ran before it moved onto the shared
    /// int8 GEMM: march the weight tiles as the hardware would, pump every
    /// input row through each, and saturate the wide accumulator into the
    /// requantizer. Kept as the ground-truth reference for the one int8
    /// product, over the row-major weights.
    fn tiled_reference(
        array: &SystolicArray,
        input: &QuantizedMatrix,
        weights: &QuantizedMatrix,
        out_params: QuantParams,
    ) -> QuantizedMatrix {
        let (m, k) = input.shape();
        let n = weights.cols();
        let za = input.params().zero_point();
        let zb = weights.params().zero_point();
        let mut acc = vec![0i64; m * n];
        for tk in 0..array.tiles_k(k) {
            let k_start = tk * array.rows();
            let k_end = (k_start + array.rows()).min(k);
            for tn in 0..array.tiles_n(n) {
                let n_start = tn * array.cols();
                let n_end = (n_start + array.cols()).min(n);
                for row in 0..m {
                    for p in k_start..k_end {
                        let av = i64::from(input.row(row)[p]) - i64::from(za);
                        let w_row = &weights.row(p)[n_start..n_end];
                        let acc_row = &mut acc[row * n + n_start..row * n + n_end];
                        for (a, &wq) in acc_row.iter_mut().zip(w_row) {
                            *a += av * (i64::from(wq) - i64::from(zb));
                        }
                    }
                }
            }
        }
        let acc_scale = input.params().scale() * weights.params().scale();
        let data = acc
            .iter()
            .map(|&v| {
                let v = hd_quant::narrow::saturate_i64_to_i32(v);
                out_params.requantize_accumulator(v, acc_scale)
            })
            .collect();
        QuantizedMatrix::from_raw(m, n, data, out_params)
    }

    fn quantized_with(rows: usize, cols: usize, zero_point: i32, seed: u64) -> QuantizedMatrix {
        let mut rng = DetRng::new(seed);
        let m = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
        QuantizedMatrix::quantize(&m, QuantParams::from_raw(1.0 / 100.0, zero_point).unwrap())
    }

    /// Runs the int8 product over packed `k x n` weights and checks it
    /// against the tiled reference on a `dim x dim` array.
    fn assert_matches_tiled_reference(
        dim: usize,
        (m, k, n): (usize, usize, usize),
        (za, zb): (i32, i32),
        seed: u64,
    ) {
        let array = SystolicArray::new(dim, dim);
        let input = quantized_with(m, k, za, seed);
        let weights = quantized_with(k, n, zb, seed + 1);
        let out_params = QuantParams::from_min_max(-8.0, 8.0).unwrap();
        let packed = PackedQuantizedMatrix::from_raw(k, n, weights.as_slice(), weights.params());
        let out = matmul_requantized(&input, &packed, out_params).unwrap();
        let reference = tiled_reference(&array, &input, &weights, out_params);
        let case = (dim, m, k, n, za, zb);
        assert_eq!(
            out, reference,
            "datapath diverged from tiled reference: {case:?}"
        );
    }

    #[test]
    fn tiled_execution_matches_reference_kernel_bit_exact() {
        // 16x16 array forces a multi-tile march in both k and n.
        assert_matches_tiled_reference(16, (5, 50, 37), (0, 0), 1);
    }

    #[test]
    fn single_tile_execution_matches_reference() {
        assert_matches_tiled_reference(64, (3, 10, 8), (0, 0), 3);
    }

    #[test]
    fn execution_matches_tiled_reference_bit_exact() {
        // Both zero points non-zero, and widths off the 16-lane SIMD
        // boundary, on single- and multi-tile shapes.
        for (i, &(dim, m, k, n, za, zb)) in [
            (16usize, 4usize, 33usize, 17usize, 12i32, -7i32),
            (8, 7, 65, 130, -128, 127),
            (64, 2, 200, 129, 127, -128),
            (64, 1, 1, 1, 5, 3),
        ]
        .iter()
        .enumerate()
        {
            assert_matches_tiled_reference(dim, (m, k, n), (za, zb), 10 + 2 * i as u64);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let input = quantized_with(2, 5, 0, 5);
        let weights = quantized_with(6, 4, 0, 6);
        let packed = PackedQuantizedMatrix::from_raw(6, 4, weights.as_slice(), weights.params());
        let out_params = QuantParams::from_min_max(-1.0, 1.0).unwrap();
        assert!(matmul_requantized(&input, &packed, out_params).is_err());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_rejected() {
        let _ = SystolicArray::new(0, 8);
    }

    #[test]
    fn more_tiles_means_more_cycles() {
        let small = SystolicArray::new(8, 8);
        let big = SystolicArray::new(64, 64);
        assert!(small.stream_cycles(10, 128, 128) > big.stream_cycles(10, 128, 128));
    }
}
