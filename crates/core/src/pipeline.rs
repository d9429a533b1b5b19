use std::sync::Arc;

use hd_bagging::{bagged_member_specs, train_members_parallel, BaggingStats, MemberSpec};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::{BaseHypervectors, HdcModel, NonlinearEncoder, TrainConfig, TrainStats};

use crate::backend::{BackendLedger, BackendRegistry, ExecutionBackend};
use crate::config::{ExecutionSetting, PipelineConfig};
use crate::error::FrameworkError;
use crate::runtime::{self, RuntimeBreakdown, UpdateProfile, WorkloadSpec};
use crate::Result;

/// Functional training telemetry, per setting.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainingTelemetry {
    /// Single full-width model (CPU baseline and plain TPU settings).
    Single(TrainStats),
    /// Bagged sub-models (the TPU_B setting).
    Bagged(BaggingStats),
}

/// Everything a training run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOutcome {
    /// Which setting trained this model.
    pub setting: ExecutionSetting,
    /// The trained model (for bagging, the merged full-width model).
    pub model: HdcModel,
    /// Per-iteration telemetry.
    pub telemetry: TrainingTelemetry,
    /// Measured update-fraction profile, for extrapolating runtimes to
    /// other workload scales.
    pub update_profile: UpdateProfile,
    /// Modeled per-phase runtime at this run's actual workload size.
    pub runtime: RuntimeBreakdown,
    /// What the backend actually executed for this run: measured
    /// (simulated-clock) phase seconds plus compile/load/device counters.
    /// Convert with [`runtime::measured_breakdown`] for the phase view.
    pub ledger: BackendLedger,
}

impl TrainingOutcome {
    /// Final training-set accuracy (averaged over sub-models for
    /// bagging).
    pub fn final_train_accuracy(&self) -> f64 {
        match &self.telemetry {
            TrainingTelemetry::Single(stats) => stats.final_train_accuracy(),
            TrainingTelemetry::Bagged(stats) => {
                let n = stats.sub_models.len().max(1);
                stats
                    .sub_models
                    .iter()
                    .map(|s| s.train.final_train_accuracy())
                    .sum::<f64>()
                    / n as f64
            }
        }
    }
}

/// Result of running inference over a test batch.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Predicted class per test sample.
    pub predictions: Vec<usize>,
    /// Modeled inference time for this batch at its actual size, in
    /// seconds (model load is one-time and excluded, as in the paper).
    pub runtime_s: f64,
}

/// Result of evaluating a trained model on held-out data.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// The underlying inference run.
    pub inference: InferenceReport,
}

/// The paper's co-designed training/inference orchestrator.
///
/// Every setting trains through **one** generic loop
/// ([`hd_bagging::train_members_parallel`], on one worker) parameterized
/// by an [`ExecutionBackend`] handle: the CPU baseline and the accelerated
/// settings differ only in the backend the registry hands back and in the
/// member plan (one full-width member vs. `M` bagged members). The
/// backends are shared for the pipeline's lifetime, so the accelerated
/// settings keep one persistent device and reuse compiled models across
/// training, evaluation, and repeated calls.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    backends: Arc<BackendRegistry>,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration, constructing its
    /// shared backend handles (including the one persistent simulated
    /// device the accelerated settings use).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let backends = Arc::new(BackendRegistry::new(&config));
        Pipeline { config, backends }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shared backend registry.
    pub fn backends(&self) -> &BackendRegistry {
        &self.backends
    }

    /// The backend handle serving an execution setting.
    pub fn backend(&self, setting: ExecutionSetting) -> &dyn ExecutionBackend {
        self.backends.get(setting)
    }

    /// Trains a model under `setting` and reports per-phase runtimes at
    /// the actual workload size.
    ///
    /// # Errors
    ///
    /// * [`FrameworkError::InvalidConfig`] — bad configuration.
    /// * Wrapped algorithm/device errors for label, shape, or capacity
    ///   problems.
    pub fn train(
        &self,
        features: &Matrix,
        labels: &[usize],
        classes: usize,
        setting: ExecutionSetting,
    ) -> Result<TrainingOutcome> {
        self.config.validate()?;
        let workload = WorkloadSpec {
            train_samples: features.rows(),
            test_samples: 0,
            features: features.cols(),
            classes,
        };

        let backend = self.backend(setting);
        let before = backend.ledger();
        let specs = self.member_plan(features, setting)?;
        // One worker: the one device holds one model at a time, so
        // concurrent members would only add model reloads.
        let (bagged, stats) = train_members_parallel(
            features,
            labels,
            classes,
            specs,
            backend,
            self.config.member_recovery,
            1,
        )?;
        let model = bagged.merge()?;
        let ledger = backend.ledger().delta_since(&before);

        // Average measured update fractions across members,
        // iteration-wise (a single member reproduces its own profile).
        let iters = stats
            .sub_models
            .iter()
            .map(|s| s.train.iterations.len())
            .max()
            .unwrap_or(0);
        let mut fractions = vec![0.0f64; iters];
        for sub in &stats.sub_models {
            let p = UpdateProfile::from_train_stats(&sub.train, sub.sampled_rows);
            for (i, f) in fractions.iter_mut().enumerate() {
                *f += p.fraction(i) / stats.sub_models.len() as f64;
            }
        }
        let profile = UpdateProfile::try_from_fractions(fractions)?;
        let runtime = runtime::training_breakdown(&self.config, &workload, setting, &profile);

        let telemetry = match setting {
            ExecutionSetting::TpuBagging => TrainingTelemetry::Bagged(stats),
            ExecutionSetting::CpuBaseline | ExecutionSetting::Tpu => {
                let single =
                    stats.sub_models.into_iter().next().ok_or_else(|| {
                        FrameworkError::InvalidConfig("empty training plan".into())
                    })?;
                TrainingTelemetry::Single(single.train)
            }
        };

        Ok(TrainingOutcome {
            setting,
            model,
            telemetry,
            update_profile: profile,
            runtime,
            ledger,
        })
    }

    /// Builds the training plan for a setting: one full-width member over
    /// the whole dataset, or the paper's `M`-member bootstrap plan.
    fn member_plan(&self, features: &Matrix, setting: ExecutionSetting) -> Result<Vec<MemberSpec>> {
        match setting {
            ExecutionSetting::TpuBagging => Ok(bagged_member_specs(
                features.rows(),
                features.cols(),
                &self.config.bagging,
            )?),
            ExecutionSetting::CpuBaseline | ExecutionSetting::Tpu => {
                let mut rng = DetRng::new(self.config.seed);
                let encoder = NonlinearEncoder::new(BaseHypervectors::generate(
                    features.cols(),
                    self.config.dim,
                    &mut rng,
                ));
                Ok(vec![MemberSpec {
                    index: 0,
                    rows: None,
                    sampled_features: features.cols(),
                    encoder,
                    train: self.train_config(),
                }])
            }
        }
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig::new(self.config.dim)
            .with_iterations(self.config.iterations)
            .with_learning_rate(self.config.learning_rate)
            .with_seed(self.config.seed)
    }

    /// Runs inference under `setting` through the corresponding backend,
    /// returning predictions and the modeled runtime.
    ///
    /// # Errors
    ///
    /// Propagates compilation/device/shape errors.
    pub fn infer(
        &self,
        model: &HdcModel,
        features: &Matrix,
        setting: ExecutionSetting,
    ) -> Result<InferenceReport> {
        let workload = WorkloadSpec {
            train_samples: 0,
            test_samples: features.rows(),
            features: model.feature_count(),
            classes: model.class_count(),
        };
        let runtime_s = runtime::inference_time_s(&self.config, &workload, setting);
        let predictions = self.backend(setting).predict(model, features)?;
        Ok(InferenceReport {
            predictions,
            runtime_s,
        })
    }

    /// Evaluates a training outcome on held-out data under the outcome's
    /// own setting (CPU-trained models evaluate on the CPU; TPU-trained
    /// models evaluate through the accelerator).
    ///
    /// # Errors
    ///
    /// Propagates label-count and device errors.
    pub fn evaluate(
        &self,
        outcome: &TrainingOutcome,
        test_features: &Matrix,
        test_labels: &[usize],
    ) -> Result<EvaluationReport> {
        let inference = self.infer(&outcome.model, test_features, outcome.setting)?;
        let accuracy = hdc::eval::accuracy(&inference.predictions, test_labels)
            .map_err(FrameworkError::from)?;
        Ok(EvaluationReport {
            accuracy,
            inference,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_datasets::{registry, SampleBudget};

    fn small_dataset(seed: u64) -> hd_datasets::Dataset {
        let spec = registry::by_name("pamap2").unwrap();
        let mut d = spec
            .generate(
                SampleBudget::Reduced {
                    train: 150,
                    test: 60,
                },
                seed,
            )
            .unwrap();
        d.normalize();
        d
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(PipelineConfig::new(1024).with_iterations(5).with_seed(7))
    }

    #[test]
    fn cpu_baseline_trains_and_evaluates() {
        let data = small_dataset(1);
        let p = pipeline();
        let outcome = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::CpuBaseline,
            )
            .unwrap();
        assert!(outcome.final_train_accuracy() > 0.5);
        assert!(outcome.runtime.encode_s > 0.0);
        assert!(outcome.runtime.update_s > 0.0);
        assert_eq!(outcome.runtime.model_gen_s, 0.0);
        // The CPU backend never touches a device or compiles anything.
        assert_eq!(outcome.ledger.compilations, 0);
        assert_eq!(outcome.ledger.devices_created, 0);
        assert!(outcome.ledger.encode_s > 0.0);
        assert!(outcome.ledger.update_s > 0.0);

        let report = p
            .evaluate(&outcome, &data.test.features, &data.test.labels)
            .unwrap();
        assert!(report.accuracy > 0.4, "accuracy {}", report.accuracy);
    }

    #[test]
    fn tpu_setting_matches_cpu_accuracy_closely() {
        let data = small_dataset(2);
        let p = pipeline();
        let cpu = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::CpuBaseline,
            )
            .unwrap();
        let tpu = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::Tpu,
            )
            .unwrap();
        let cpu_acc = p
            .evaluate(&cpu, &data.test.features, &data.test.labels)
            .unwrap()
            .accuracy;
        let tpu_acc = p
            .evaluate(&tpu, &data.test.features, &data.test.labels)
            .unwrap()
            .accuracy;
        assert!(
            (cpu_acc - tpu_acc).abs() < 0.15,
            "cpu {cpu_acc} vs tpu {tpu_acc}"
        );
        // One-time model generation shows up only on the TPU path —
        // in the closed-form model and in the measured ledger alike.
        assert!(tpu.runtime.model_gen_s > 0.0);
        assert!(tpu.ledger.model_gen_s > 0.0);
        assert_eq!(cpu.ledger.model_gen_s, 0.0);
    }

    #[test]
    fn bagging_trains_merged_full_width_model() {
        let data = small_dataset(3);
        let p = pipeline();
        let outcome = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::TpuBagging,
            )
            .unwrap();
        assert_eq!(outcome.model.dim(), 1024);
        match &outcome.telemetry {
            TrainingTelemetry::Bagged(stats) => assert_eq!(stats.sub_models.len(), 4),
            other => panic!("expected bagged telemetry, got {other:?}"),
        }
        let report = p
            .evaluate(&outcome, &data.test.features, &data.test.labels)
            .unwrap();
        assert!(report.accuracy > 0.4, "accuracy {}", report.accuracy);
    }

    #[test]
    fn bagging_compiles_each_sub_encoder_once_on_one_device() {
        // The co-design fix this module exists for: a bagged M=4 run must
        // compile exactly the 4 distinct sub-encoders, construct no new
        // device, and keep everything resident for reuse.
        let data = small_dataset(7);
        let p = pipeline();
        let m = p.config().bagging.sub_models as u64;
        let outcome = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::TpuBagging,
            )
            .unwrap();
        assert_eq!(outcome.ledger.compilations, m);
        assert_eq!(outcome.ledger.model_loads, m);
        assert_eq!(
            outcome.ledger.devices_created, 0,
            "training must reuse the registry's persistent device"
        );
        assert_eq!(
            p.backend(ExecutionSetting::TpuBagging)
                .ledger()
                .devices_created,
            1,
            "the pipeline owns exactly one device"
        );

        // Retraining hits the compiled-model cache: same specs, same
        // calibration bits, zero new compilations.
        let again = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::TpuBagging,
            )
            .unwrap();
        assert_eq!(again.ledger.compilations, 0);
        assert_eq!(again.ledger.cache_hits, m);
        assert_eq!(again.model, outcome.model);
    }

    #[test]
    fn bagging_update_time_is_lower_than_full_training() {
        let data = small_dataset(4);
        // Use the paper's 20-iteration full model so the I'/I ratio bites.
        let p = Pipeline::new(PipelineConfig::new(1024).with_iterations(20).with_seed(8));
        let cpu = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::CpuBaseline,
            )
            .unwrap();
        let bag = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::TpuBagging,
            )
            .unwrap();
        assert!(
            bag.runtime.update_s < cpu.runtime.update_s,
            "bagging update {} vs cpu {}",
            bag.runtime.update_s,
            cpu.runtime.update_s
        );
        // The measured ledgers agree with the modeled ordering.
        assert!(bag.ledger.update_s < cpu.ledger.update_s);
    }

    #[test]
    fn invalid_config_is_rejected_at_train_time() {
        let data = small_dataset(5);
        let p = Pipeline::new(PipelineConfig::new(1024).with_iterations(0));
        assert!(matches!(
            p.train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::CpuBaseline,
            )
            .unwrap_err(),
            FrameworkError::InvalidConfig(_)
        ));
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let data = small_dataset(6);
        let p = pipeline();
        let a = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::Tpu,
            )
            .unwrap();
        let b = p
            .train(
                &data.train.features,
                &data.train.labels,
                data.classes,
                ExecutionSetting::Tpu,
            )
            .unwrap();
        assert_eq!(a.model, b.model);
    }

    fn separable_model() -> (HdcModel, Matrix, Vec<usize>) {
        let mut rng = DetRng::new(31);
        let mut features = Matrix::random_normal(60, 10, &mut rng);
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 3.0;
        }
        let config = TrainConfig::new(512).with_iterations(5).with_seed(32);
        let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
        (model, features, labels)
    }

    #[test]
    fn cpu_and_tpu_paths_agree_on_separable_data() {
        let (model, features, labels) = separable_model();
        let p = Pipeline::new(PipelineConfig::new(512));
        let cpu = p
            .infer(&model, &features, ExecutionSetting::CpuBaseline)
            .unwrap();
        let tpu = p.infer(&model, &features, ExecutionSetting::Tpu).unwrap();
        let cpu_acc = hdc::eval::accuracy(&cpu.predictions, &labels).unwrap();
        let tpu_acc = hdc::eval::accuracy(&tpu.predictions, &labels).unwrap();
        assert!(cpu_acc > 0.95, "cpu accuracy {cpu_acc}");
        // int8 quantization may cost a little accuracy, but not much.
        assert!(
            tpu_acc > cpu_acc - 0.1,
            "tpu accuracy {tpu_acc} vs cpu {cpu_acc}"
        );
    }

    #[test]
    fn bagging_setting_runs_the_merged_model_identically() {
        let (model, features, _) = separable_model();
        let p = Pipeline::new(PipelineConfig::new(512));
        let a = p.infer(&model, &features, ExecutionSetting::Tpu).unwrap();
        let b = p
            .infer(&model, &features, ExecutionSetting::TpuBagging)
            .unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(
            a.runtime_s, b.runtime_s,
            "merged model must add zero overhead"
        );
        // Both settings share one backend handle, so the second run hits
        // the compiled-model cache instead of recompiling.
        let ledger = p.backend(ExecutionSetting::TpuBagging).ledger();
        assert_eq!(ledger.compilations, 1);
        assert_eq!(ledger.cache_hits, 1);
        assert_eq!(ledger.devices_created, 1);
    }

    #[test]
    fn runtime_is_positive_and_scales_with_batch() {
        let (model, features, _) = separable_model();
        let p = Pipeline::new(PipelineConfig::new(512));
        let full = p
            .infer(&model, &features, ExecutionSetting::CpuBaseline)
            .unwrap();
        let half = p
            .infer(
                &model,
                &features.slice_rows(0, 30).unwrap(),
                ExecutionSetting::CpuBaseline,
            )
            .unwrap();
        assert!(full.runtime_s > half.runtime_s);
        assert!(half.runtime_s > 0.0);
    }
}
