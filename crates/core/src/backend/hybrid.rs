//! The paper's co-designed placement: accelerator for encode/inference,
//! host for the class-hypervector update.

use hd_tensor::Matrix;
use hdc::{ClassHypervectors, Encoder, Executor, HdcModel, TrainConfig, TrainStats};

use crate::backend::{BackendLedger, CpuBackend, ExecutionBackend, TpuBackend};
use crate::config::PipelineConfig;

/// The co-design backend from the paper: the data-parallel, quantizable
/// phases (encoding and inference) run on the simulated Edge TPU via
/// [`TpuBackend`], while the control-flow-heavy, `f32` class-hypervector
/// update runs on the host via [`CpuBackend`].
///
/// This is exactly the placement the type system forces: the pure device
/// backend's `train_classes` returns the accelerator's typed
/// `UnsupportedOp` rejection, so the hybrid routes that phase to the host
/// instead.
pub struct HybridBackend {
    tpu: TpuBackend,
    host: CpuBackend,
}

impl HybridBackend {
    /// Builds both halves of the co-design over one shared configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        HybridBackend {
            tpu: TpuBackend::new(config),
            host: CpuBackend::new(config),
        }
    }

    /// The accelerator half (owns the persistent device and model cache).
    pub fn tpu(&self) -> &TpuBackend {
        &self.tpu
    }

    /// The host half (runs the update phase).
    pub fn host(&self) -> &CpuBackend {
        &self.host
    }
}

impl Executor for HybridBackend {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
        self.tpu.encode_batch(encoder, batch)
    }

    fn train_classes(
        &self,
        encoded: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        self.host.train_classes(encoded, labels, classes, config)
    }
}

impl ExecutionBackend for HybridBackend {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn predict(&self, model: &HdcModel, features: &Matrix) -> crate::Result<Vec<usize>> {
        self.tpu.predict(model, features)
    }

    fn ledger(&self) -> BackendLedger {
        self.tpu.ledger().merged(&self.host.ledger())
    }

    fn reset_ledger(&self) {
        self.tpu.reset_ledger();
        self.host.reset_ledger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;
    use hdc::{BaseHypervectors, NonlinearEncoder};

    #[test]
    fn hybrid_places_update_on_host_and_encode_on_device() {
        let config = PipelineConfig::new(128);
        let backend = HybridBackend::new(&config);
        let mut rng = DetRng::new(31);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(6, 128, &mut rng));
        let mut features = Matrix::random_normal(24, 6, &mut rng);
        let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 3.0;
        }

        let encoded = backend.encode_batch(&encoder, &features).unwrap();
        let train = TrainConfig::new(128).with_iterations(2).with_seed(32);
        let (classes, _) = backend.train_classes(&encoded, &labels, 2, &train).unwrap();
        let model = HdcModel::from_parts(encoder, classes).unwrap();
        backend.predict(&model, &features).unwrap();

        let ledger = backend.ledger();
        // Encode and inference ran on the accelerator...
        assert_eq!(ledger.compilations, 2, "encoder + inference networks");
        assert_eq!(ledger.devices_created, 1);
        assert!(ledger.encode_s > 0.0);
        assert!(ledger.infer_s > 0.0);
        // ...while the update ran on the host half.
        assert!(ledger.update_s > 0.0);
        assert_eq!(backend.host().ledger().update_s, ledger.update_s);
        assert_eq!(backend.tpu().ledger().update_s, 0.0);

        backend.reset_ledger();
        let cleared = backend.ledger();
        assert_eq!(cleared.compilations, 0);
        assert_eq!(cleared.devices_created, 1, "device persists across resets");
    }
}
