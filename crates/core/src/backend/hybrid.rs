//! The paper's co-designed placement: accelerator for encode/inference,
//! host for the class-hypervector update.

use cpu_model::cost;
use hd_dataflow::runtime::{self, Binding, RunError};
use hd_tensor::Matrix;
use hdc::{ClassHypervectors, Encoder, Executor, HdcError, HdcModel, TrainConfig, TrainStats};
use tpu_sim::timing::ModelDims;

use crate::backend::{BackendLedger, CpuBackend, ExecutionBackend, TpuBackend};
use crate::config::PipelineConfig;
use crate::schedule::{self, STREAM_DEPTH};

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
    encode_chunk: usize,
    threads: usize,
}

impl HybridBackend {
    /// Builds both halves of the co-design over one shared configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        HybridBackend {
            tpu: TpuBackend::new(config),
            host: CpuBackend::new(config),
            encode_chunk: config.encode_batch,
            threads: config.threads,
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

    /// The pipelined encode→update schedule, executed through the
    /// generic SDF runtime from its declared graph: the device-encode
    /// stage streams chunks through the schedule's bounded
    /// [`STREAM_DEPTH`] channel while the host update stage consumes
    /// them in order, so the accelerator's DMA and the host's perceptron
    /// pass overlap in wall-clock time. The consumed sample order is the
    /// batch order, so the result is bit-exact with the phase-serial
    /// default chain. With `threads <= 1` (or a batch that fits in one
    /// encode chunk) the exact sequential path runs instead.
    fn encode_train(
        &self,
        encoder: &dyn Encoder,
        batch: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        if self.threads <= 1 || batch.rows() <= self.encode_chunk {
            let encoded = self.encode_batch(encoder, batch)?;
            return self.train_classes(&encoded, labels, classes, config);
        }
        // Verify the declared streamed schedule (bounded channel of
        // STREAM_DEPTH chunks between the device producer and the host
        // consumer) and compile it into the runtime plan it executes as.
        let dims = ModelDims::encoder(encoder.feature_count(), encoder.dim());
        let update_cost_s =
            cost::class_update_s(self.host.spec(), self.encode_chunk, encoder.dim());
        let plan = schedule::SchedulePlan::declare(schedule::streamed_encode_graph(
            self.tpu.device_config(),
            &dims,
            self.encode_chunk,
            STREAM_DEPTH,
            update_cost_s,
        ))
        .and_then(|p| p.executable())
        .map_err(|e| HdcError::Backend(format!("streamed schedule rejected: {e}")))?;

        // Both stages pace themselves: encode pushes each device chunk as
        // the hardware produces it (faults ride the channel as Err
        // tokens), update consumes the stream in batch order. The
        // runtime's bounded stage channel is the declared STREAM_DEPTH.
        let mut trained: Option<hdc::Result<(ClassHypervectors, TrainStats)>> = None;
        {
            let slot = &mut trained;
            // Supervised with no fallback: device-side faults already
            // degrade *inside* encode_batch_streamed (retry/quarantine/host
            // completion under the TPU backend's stage supervision), so
            // a primary-stream error here is a programming error, not a
            // device fault — it aborts with the stage named.
            let bindings: Vec<Binding<'_, hdc::Result<Matrix>, HdcError>> = vec![
                Binding::SupervisedStream {
                    f: Box::new(move |ctx| {
                        let streamed = self.tpu.encode_batch_streamed(encoder, batch, |chunk| {
                            // A refused send means the consumer already
                            // failed; the remaining chunks are simply
                            // dropped.
                            let _ = ctx.send(Ok(chunk));
                        });
                        if let Err(e) = streamed {
                            let _ = ctx.send(Err(HdcError::Backend(format!(
                                "device encoding failed: {e}"
                            ))));
                        }
                        Ok(())
                    }),
                    fallback: None,
                },
                Binding::SupervisedStream {
                    f: Box::new(move |ctx| {
                        *slot = Some(hdc::train_encoded_streamed(
                            ctx.input_iter(0),
                            labels,
                            classes,
                            config,
                        ));
                        Ok(())
                    }),
                    fallback: None,
                },
            ];
            let chunks = batch.rows().div_ceil(self.encode_chunk.max(1)) as u64;
            runtime::run(&plan, chunks, bindings).map_err(|e| match e {
                RunError::Stage { error, .. } => error,
                RunError::Protocol { stage, message } => HdcError::Backend(format!(
                    "streamed schedule protocol violation at stage {stage}: {message}"
                )),
            })?;
        }
        let result = trained
            .ok_or_else(|| HdcError::Backend("streamed update stage never ran".into()))??;
        self.host
            .charge_update(batch.rows(), classes, &result.1, config);
        Ok(result)
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
        let model = HdcModel::from_parts(encoder, classes, hdc::Similarity::Dot).unwrap();
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

    fn separable(rows: usize, features: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let mut data = Matrix::random_normal(rows, features, &mut rng);
        let labels: Vec<usize> = (0..rows).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            data.row_mut(i)[l] += 3.0;
        }
        (data, labels)
    }

    #[test]
    fn streamed_encode_train_is_bit_exact_with_sequential() {
        let config = PipelineConfig::new(128).with_batches(8, 8);
        let (features, labels) = separable(50, 6, 41);
        let train = TrainConfig::new(128).with_iterations(4).with_seed(42);

        let sequential = HybridBackend::new(&config.clone());
        let encoded = sequential.encode_batch(
            &NonlinearEncoder::new(BaseHypervectors::generate(6, 128, &mut DetRng::new(40))),
            &features,
        );
        let encoded = encoded.unwrap();
        let (seq_classes, seq_stats) = sequential
            .train_classes(&encoded, &labels, 3, &train)
            .unwrap();

        let streamed = HybridBackend::new(&config.with_threads(2));
        let encoder =
            NonlinearEncoder::new(BaseHypervectors::generate(6, 128, &mut DetRng::new(40)));
        let (classes, stats) = streamed
            .encode_train(&encoder, &features, &labels, 3, &train)
            .unwrap();

        assert_eq!(classes.as_matrix(), seq_classes.as_matrix());
        assert_eq!(stats, seq_stats);
        // Same work charged to the same phase buckets on both schedules.
        let (a, b) = (streamed.ledger(), sequential.ledger());
        assert!((a.update_s - b.update_s).abs() < 1e-12);
        assert!((a.encode_s - b.encode_s).abs() < 1e-12);
        assert_eq!(a.encoded_samples, b.encoded_samples);
    }

    #[test]
    fn small_batches_take_the_sequential_path_with_identical_results() {
        let config = PipelineConfig::new(64).with_threads(4);
        let (features, labels) = separable(12, 4, 51);
        let train = TrainConfig::new(64).with_iterations(2).with_seed(52);
        let encoder =
            || NonlinearEncoder::new(BaseHypervectors::generate(4, 64, &mut DetRng::new(50)));

        let backend = HybridBackend::new(&config);
        // 12 rows <= the default encode chunk: stays phase-serial.
        let (classes, _) = backend
            .encode_train(&encoder(), &features, &labels, 3, &train)
            .unwrap();

        let reference = HybridBackend::new(&config);
        let encoded = reference.encode_batch(&encoder(), &features).unwrap();
        let (expected, _) = reference
            .train_classes(&encoded, &labels, 3, &train)
            .unwrap();
        assert_eq!(classes.as_matrix(), expected.as_matrix());
    }
}
