//! Execution placement for the HDC training phases.
//!
//! The paper's co-design is a *placement* decision: encoding (a
//! vector-matrix multiply) can run on an accelerator, while the
//! class-hypervector update (an element-wise op edge accelerators reject)
//! must stay on the host. [`Executor`] captures exactly that seam:
//! training loops call `encode_batch` and `train_classes` through a
//! handle instead of hard-coding where either phase runs, so the same
//! loop serves the all-host baseline and every accelerated setting.

use hd_tensor::Matrix;

use crate::encoder::Encoder;
use crate::model::ClassHypervectors;
use crate::train::{train_encoded, TrainConfig, TrainStats};
use crate::Result;

/// Where the phases of HDC training physically execute.
///
/// Implementors decide how each phase runs; the trait fixes only the
/// semantics. `train_classes` defaults to the host reference
/// implementation ([`train_encoded`]), because that is the paper's
/// placement for every setting — an accelerator-side implementor may
/// override it to return a typed rejection instead.
pub trait Executor: Send + Sync {
    /// Encodes a batch of samples through the given encoder.
    ///
    /// # Errors
    ///
    /// Shape errors from the encoder, or [`HdcError::Backend`] when a
    /// device-side encode path fails.
    ///
    /// [`HdcError::Backend`]: crate::HdcError::Backend
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> Result<Matrix>;

    /// Trains class hypervectors from encoded data.
    ///
    /// # Errors
    ///
    /// Label/shape errors from training, or [`HdcError::Backend`] when
    /// the executor cannot run the update phase at all.
    ///
    /// [`HdcError::Backend`]: crate::HdcError::Backend
    fn train_classes(
        &self,
        encoded: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> Result<(ClassHypervectors, TrainStats)> {
        train_encoded(encoded, labels, classes, config)
    }
}

/// The all-host reference executor: encodes in `f32` on the CPU and
/// trains class hypervectors with [`train_encoded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostExecutor;

impl Executor for HostExecutor {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> Result<Matrix> {
        encoder.encode(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{BaseHypervectors, NonlinearEncoder};
    use hd_tensor::rng::DetRng;

    #[test]
    fn host_executor_matches_direct_calls() {
        let mut rng = DetRng::new(5);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(6, 64, &mut rng));
        let batch = Matrix::random_normal(10, 6, &mut rng);
        let labels: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let config = TrainConfig::new(64).with_iterations(3).with_seed(6);

        let exec = HostExecutor;
        let encoded = exec.encode_batch(&encoder, &batch).unwrap();
        assert_eq!(encoded, encoder.encode(&batch).unwrap());

        let (classes, stats) = exec.train_classes(&encoded, &labels, 2, &config).unwrap();
        let (reference, ref_stats) = train_encoded(&encoded, &labels, 2, &config).unwrap();
        assert_eq!(classes.as_matrix(), reference.as_matrix());
        assert_eq!(stats, ref_stats);
    }

    #[test]
    fn executor_is_object_safe() {
        let exec: &dyn Executor = &HostExecutor;
        let mut rng = DetRng::new(7);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(4, 32, &mut rng));
        let batch = Matrix::zeros(2, 4);
        assert_eq!(
            exec.encode_batch(&encoder, &batch).unwrap().shape(),
            (2, 32)
        );
    }
}
