//! The all-host backend: every phase in `f32` on the CPU.

use parking_lot::Mutex;

use cpu_model::{cost, PlatformSpec};
use hd_tensor::Matrix;
use hdc::{train_encoded, ClassHypervectors, Encoder, Executor, HdcModel, TrainConfig, TrainStats};

use crate::backend::{BackendLedger, ExecutionBackend};
use crate::config::PipelineConfig;

/// The paper's CPU baseline as a backend: encoding, class-hypervector
/// update, and inference all run on the host in `f32`.
///
/// Measured phase times are charged from the host cost model
/// ([`cpu_model::cost`]) at the *actual* executed workload sizes, so the
/// ledger is directly comparable with the device-side ledgers and with
/// the closed-form runtime models.
pub struct CpuBackend {
    spec: PlatformSpec,
    ledger: Mutex<BackendLedger>,
}

impl CpuBackend {
    /// Builds the host backend for a pipeline configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        CpuBackend {
            spec: config.platform.spec(),
            ledger: Mutex::new(BackendLedger::default()),
        }
    }

    /// The host platform profile this backend charges costs against.
    pub(crate) fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Charges the host update-phase cost for a finished training run:
    /// one similarity pass over `rows` samples plus the executed class
    /// updates, per iteration. Shared by [`CpuBackend::train_classes`]
    /// and the hybrid backend's streamed encode→update path, so both
    /// charge identically for identical work.
    pub(crate) fn charge_update(
        &self,
        rows: usize,
        classes: usize,
        stats: &TrainStats,
        config: &TrainConfig,
    ) {
        let mut ledger = self.ledger.lock();
        for iteration in &stats.iterations {
            ledger.update_s += cost::similarity_s(&self.spec, rows, config.dim, classes)
                + cost::class_update_s(&self.spec, iteration.updates, config.dim);
        }
    }
}

impl Executor for CpuBackend {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
        let encoded = encoder.encode(batch)?;
        let mut ledger = self.ledger.lock();
        ledger.encoded_samples += batch.rows() as u64;
        ledger.encode_s += cost::encode_s(
            &self.spec,
            batch.rows(),
            encoder.feature_count(),
            encoder.dim(),
        );
        Ok(encoded)
    }

    fn train_classes(
        &self,
        encoded: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        let kernels_before = hd_tensor::kernels::thread_stats();
        let (class_hvs, stats) = train_encoded(encoded, labels, classes, config)?;
        let kernel_delta = hd_tensor::kernels::thread_stats().delta_since(&kernels_before);
        self.ledger.lock().absorb_kernel_stats(kernel_delta);
        self.charge_update(encoded.rows(), classes, &stats, config);
        Ok((class_hvs, stats))
    }
}

impl ExecutionBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn predict(&self, model: &HdcModel, features: &Matrix) -> crate::Result<Vec<usize>> {
        let kernels_before = hd_tensor::kernels::thread_stats();
        let predictions = model.predict(features)?;
        let kernel_delta = hd_tensor::kernels::thread_stats().delta_since(&kernels_before);
        let mut ledger = self.ledger.lock();
        ledger.absorb_kernel_stats(kernel_delta);
        ledger.predicted_samples += features.rows() as u64;
        ledger.infer_s += cost::encode_s(
            &self.spec,
            features.rows(),
            model.feature_count(),
            model.dim(),
        ) + cost::similarity_s(
            &self.spec,
            features.rows(),
            model.dim(),
            model.class_count(),
        );
        Ok(predictions)
    }

    fn ledger(&self) -> BackendLedger {
        *self.ledger.lock()
    }

    fn reset_ledger(&self) {
        *self.ledger.lock() = BackendLedger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_tensor::rng::DetRng;
    use hdc::{BaseHypervectors, NonlinearEncoder};

    #[test]
    fn host_backend_matches_reference_and_charges_phases() {
        let config = PipelineConfig::new(256);
        let backend = CpuBackend::new(&config);
        let mut rng = DetRng::new(21);
        let encoder = NonlinearEncoder::new(BaseHypervectors::generate(8, 256, &mut rng));
        let mut features = Matrix::random_normal(30, 8, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 3.0;
        }

        let encoded = backend.encode_batch(&encoder, &features).unwrap();
        assert_eq!(encoded, encoder.encode(&features).unwrap());

        let train = TrainConfig::new(256).with_iterations(3).with_seed(22);
        let (classes, _) = backend.train_classes(&encoded, &labels, 2, &train).unwrap();
        let model = HdcModel::from_parts(encoder, classes, hdc::Similarity::Dot).unwrap();
        let preds = backend.predict(&model, &features).unwrap();
        assert_eq!(preds, model.predict(&features).unwrap());

        let ledger = backend.ledger();
        assert_eq!(ledger.encoded_samples, 30);
        assert_eq!(ledger.predicted_samples, 30);
        assert_eq!(ledger.compilations, 0);
        assert_eq!(ledger.devices_created, 0);
        assert!(ledger.encode_s > 0.0);
        assert!(ledger.update_s > 0.0);
        assert!(ledger.infer_s > 0.0);
        assert_eq!(ledger.model_gen_s, 0.0);

        backend.reset_ledger();
        assert_eq!(backend.ledger(), BackendLedger::default());
    }
}
