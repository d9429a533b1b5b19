use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, ops, Matrix};

use crate::error::HdcError;
use crate::Result;

/// The randomly generated base hypervectors of an HDC model: an `n x d`
/// matrix whose row `i` is the base hypervector `B_i` of input feature
/// `i`, with components drawn i.i.d. from `N(0, 1)`.
///
/// Rows of such a matrix are nearly orthogonal in high dimensions, which
/// is what lets the bundled encoding preserve each feature's contribution
/// (paper, Section III-A).
///
/// # Examples
///
/// ```
/// use hd_tensor::rng::DetRng;
/// use hdc::BaseHypervectors;
///
/// let mut rng = DetRng::new(42);
/// let base = BaseHypervectors::generate(16, 2048, &mut rng);
/// assert_eq!(base.feature_count(), 16);
/// assert_eq!(base.dim(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BaseHypervectors {
    matrix: Matrix,
}

impl BaseHypervectors {
    /// Generates base hypervectors for `n` features at dimensionality `d`.
    #[must_use]
    pub fn generate(n: usize, d: usize, rng: &mut DetRng) -> Self {
        BaseHypervectors {
            matrix: Matrix::random_normal(n, d, rng),
        }
    }

    /// Wraps an existing `n x d` matrix as base hypervectors (used by the
    /// bagging merge, which stacks and zero-pads sub-model bases).
    #[must_use]
    pub fn from_matrix(matrix: Matrix) -> Self {
        BaseHypervectors { matrix }
    }

    /// Number of input features `n`.
    pub fn feature_count(&self) -> usize {
        self.matrix.rows()
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// The underlying `n x d` matrix — the first-layer weights of the
    /// paper's wide-NN interpretation.
    pub fn as_matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Consumes `self` and returns the underlying matrix.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// The base hypervector `B_i` of feature `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.feature_count()`.
    pub fn base(&self, i: usize) -> &[f32] {
        self.matrix.row(i)
    }

    /// Mean absolute pairwise cosine similarity over a sample of row
    /// pairs — a diagnostic for near-orthogonality (should approach zero
    /// as `d` grows).
    pub fn orthogonality_defect(&self) -> f32 {
        let n = self.feature_count();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut pairs = 0;
        for i in 0..n.min(16) {
            for j in (i + 1)..n.min(16) {
                // Rows of one matrix always have equal length, so cosine
                // cannot fail here; skip the pair rather than panic.
                if let Ok(c) = ops::cosine(self.matrix.row(i), self.matrix.row(j)) {
                    total += c.abs();
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f32
        }
    }
}

/// The optional non-linearity an [`Encoder`] applies after the base
/// projection — the hidden-layer activation of the wide-NN interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncoderActivation {
    /// No activation: the linear mapping `E = F x B` of prior work.
    Identity,
    /// The paper's `tanh` non-linearity: `E = tanh(F x B)`.
    Tanh,
}

/// An HDC encoder: a base-hypervector projection followed by an optional
/// non-linearity.
///
/// Every encoder is fully described by its [`BaseHypervectors`] and its
/// [`EncoderActivation`]; `encode` and `encode_sample` are shared default
/// implementations over that description, so [`NonlinearEncoder`] and
/// [`LinearEncoder`] no longer duplicate the batched math, and execution
/// backends can compile *any* encoder to the accelerator from the same
/// two accessors.
pub trait Encoder: Send + Sync {
    /// The base hypervectors — the first-layer weights of the wide-NN
    /// interpretation.
    fn base(&self) -> &BaseHypervectors;

    /// The activation applied after the projection.
    fn activation(&self) -> EncoderActivation;

    /// Number of input features `n`.
    fn feature_count(&self) -> usize {
        self.base().feature_count()
    }

    /// Hypervector dimensionality `d`.
    fn dim(&self) -> usize {
        self.base().dim()
    }

    /// Encodes a batch of samples (one per row) into hypervectors.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error if `batch.cols()` differs from the
    /// feature count.
    fn encode(&self, batch: &Matrix) -> Result<Matrix> {
        let mut encoded = gemm::matmul(batch, self.base().as_matrix()).map_err(HdcError::from)?;
        if self.activation() == EncoderActivation::Tanh {
            ops::tanh_inplace(encoded.as_mut_slice());
        }
        Ok(encoded)
    }

    /// Encodes a single sample.
    ///
    /// # Errors
    ///
    /// Returns a wrapped shape error on a feature-count mismatch.
    fn encode_sample(&self, sample: &[f32]) -> Result<Vec<f32>> {
        let mut encoded = gemm::matvec(sample, self.base().as_matrix()).map_err(HdcError::from)?;
        if self.activation() == EncoderActivation::Tanh {
            ops::tanh_inplace(&mut encoded);
        }
        Ok(encoded)
    }
}

/// The paper's non-linear encoder: `E = tanh(F x B)`.
///
/// Encoding is "indeed a vector-matrix multiplication that is ready to
/// accelerate on most hardware accelerators" — this type is the host-side
/// reference; the accelerated path runs the same computation as the first
/// two layers of the wide NN.
#[derive(Debug, Clone, PartialEq)]
pub struct NonlinearEncoder {
    base: BaseHypervectors,
}

impl NonlinearEncoder {
    /// Creates an encoder over the given base hypervectors.
    #[must_use]
    pub fn new(base: BaseHypervectors) -> Self {
        NonlinearEncoder { base }
    }

    /// The base hypervectors.
    pub fn base(&self) -> &BaseHypervectors {
        &self.base
    }
}

impl Encoder for NonlinearEncoder {
    fn base(&self) -> &BaseHypervectors {
        &self.base
    }

    fn activation(&self) -> EncoderActivation {
        EncoderActivation::Tanh
    }
}

/// The *linear* encoder `E = F x B` that most prior work used before the
/// paper ("Most prior works have tried to encode the input using linear
/// mapping. However, in this work, we adopt a non-linear mapping which
/// achieves higher learning accuracy" — Section III-A).
///
/// Kept as the ablation baseline: the `ablation_encoding` bench binary
/// compares the two on every paper dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearEncoder {
    base: BaseHypervectors,
}

impl LinearEncoder {
    /// Creates a linear encoder over the given base hypervectors.
    #[must_use]
    pub fn new(base: BaseHypervectors) -> Self {
        LinearEncoder { base }
    }

    /// The base hypervectors.
    pub fn base(&self) -> &BaseHypervectors {
        &self.base
    }
}

impl Encoder for LinearEncoder {
    fn base(&self) -> &BaseHypervectors {
        &self.base
    }

    fn activation(&self) -> EncoderActivation {
        EncoderActivation::Identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder(n: usize, d: usize, seed: u64) -> NonlinearEncoder {
        let mut rng = DetRng::new(seed);
        NonlinearEncoder::new(BaseHypervectors::generate(n, d, &mut rng))
    }

    #[test]
    fn encoded_width_is_d() {
        let enc = encoder(8, 256, 1);
        let batch = Matrix::filled(3, 8, 0.5);
        let out = enc.encode(&batch).unwrap();
        assert_eq!(out.shape(), (3, 256));
    }

    #[test]
    fn encoding_is_bounded_by_tanh() {
        let enc = encoder(8, 128, 2);
        let batch = Matrix::filled(2, 8, 100.0);
        let out = enc.encode(&batch).unwrap();
        assert!(out.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn zero_input_encodes_to_zero() {
        let enc = encoder(8, 64, 3);
        let out = enc.encode(&Matrix::zeros(1, 8)).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn encode_sample_matches_batch_row() {
        let enc = encoder(10, 100, 4);
        let mut rng = DetRng::new(5);
        let batch = Matrix::random_normal(4, 10, &mut rng);
        let full = enc.encode(&batch).unwrap();
        for r in 0..4 {
            let single = enc.encode_sample(batch.row(r)).unwrap();
            for (a, b) in full.row(r).iter().zip(&single) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn feature_mismatch_rejected() {
        let enc = encoder(8, 64, 6);
        assert!(enc.encode(&Matrix::zeros(1, 9)).is_err());
        assert!(enc.encode_sample(&[0.0; 9]).is_err());
    }

    #[test]
    fn bases_are_nearly_orthogonal_at_high_dim() {
        let mut rng = DetRng::new(7);
        let narrow = BaseHypervectors::generate(16, 32, &mut rng);
        let wide = BaseHypervectors::generate(16, 8192, &mut rng);
        assert!(
            wide.orthogonality_defect() < narrow.orthogonality_defect(),
            "orthogonality should improve with dimensionality"
        );
        assert!(wide.orthogonality_defect() < 0.05);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        assert_eq!(
            BaseHypervectors::generate(4, 32, &mut r1),
            BaseHypervectors::generate(4, 32, &mut r2)
        );
    }

    #[test]
    fn linear_encoder_is_unbounded_and_matches_gemm() {
        let mut rng = DetRng::new(77);
        let base = BaseHypervectors::generate(6, 32, &mut rng);
        let linear = LinearEncoder::new(base.clone());
        let batch = Matrix::filled(2, 6, 10.0);
        let out = linear.encode(&batch).unwrap();
        // Unlike tanh encoding, linear outputs exceed [-1, 1].
        assert!(out.iter().any(|&v| v.abs() > 1.0));
        let reference = gemm::matmul(&batch, base.as_matrix()).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn linear_encode_sample_matches_batch() {
        let mut rng = DetRng::new(78);
        let linear = LinearEncoder::new(BaseHypervectors::generate(5, 16, &mut rng));
        let batch = Matrix::random_normal(3, 5, &mut rng);
        let full = linear.encode(&batch).unwrap();
        let single = linear.encode_sample(batch.row(1)).unwrap();
        for (a, b) in full.row(1).iter().zip(&single) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(linear.encode_sample(&[0.0; 6]).is_err());
    }

    #[test]
    fn trait_object_encoding_matches_concrete() {
        let enc = encoder(8, 64, 12);
        let dyn_enc: &dyn Encoder = &enc;
        let mut rng = DetRng::new(13);
        let batch = Matrix::random_normal(3, 8, &mut rng);
        assert_eq!(dyn_enc.encode(&batch).unwrap(), enc.encode(&batch).unwrap());
        assert_eq!(dyn_enc.activation(), EncoderActivation::Tanh);
        assert_eq!(dyn_enc.feature_count(), 8);
        assert_eq!(dyn_enc.dim(), 64);

        let linear = LinearEncoder::new(enc.base().clone());
        let dyn_linear: &dyn Encoder = &linear;
        assert_eq!(dyn_linear.activation(), EncoderActivation::Identity);
        assert_eq!(
            dyn_linear.encode(&batch).unwrap(),
            gemm::matmul(&batch, enc.base().as_matrix()).unwrap()
        );
    }

    #[test]
    fn similar_inputs_encode_similarly() {
        let enc = encoder(12, 2048, 10);
        let mut rng = DetRng::new(11);
        let a: Vec<f32> = (0..12).map(|_| rng.next_normal()).collect();
        let mut b = a.clone();
        b[0] += 0.01; // tiny perturbation
        let c: Vec<f32> = (0..12).map(|_| rng.next_normal()).collect();

        let ea = enc.encode_sample(&a).unwrap();
        let eb = enc.encode_sample(&b).unwrap();
        let ec = enc.encode_sample(&c).unwrap();
        let sim_ab = ops::cosine(&ea, &eb).unwrap();
        let sim_ac = ops::cosine(&ea, &ec).unwrap();
        assert!(
            sim_ab > sim_ac,
            "perturbed input ({sim_ab}) should stay closer than random ({sim_ac})"
        );
        assert!(sim_ab > 0.99);
    }
}
