use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, RunError, Supervised, Supervision,
};
use hd_dataflow::{Resource, SdfGraph};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::{
    BaseHypervectors, ClassHypervectors, Executor, HostExecutor, NonlinearEncoder, TrainConfig,
    TrainStats,
};

use crate::config::BaggingConfig;
use crate::error::BaggingError;
use crate::merge::{BaggedModel, SubModel};
use crate::sample::{bootstrap_rows, feature_subset};

/// What to do when an ensemble member's executor fails permanently (a
/// backend fault that survived the backend's own retry/fallback budget,
/// surfacing as [`hdc::HdcError::Backend`]).
///
/// Caller bugs — label counts, shape mismatches, empty datasets — always
/// propagate regardless of this setting; only backend failures are
/// recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemberRecovery {
    /// Propagate the failure (the pre-resilience behaviour).
    #[default]
    Fail,
    /// Retrain the failed member entirely on the host ([`HostExecutor`]),
    /// keeping the full `M`-member ensemble.
    RetrainOnHost,
    /// Drop the failed member and merge the surviving `M-1`; fails only
    /// if *every* member is lost.
    Drop,
}

/// Telemetry for one trained sub-model.
#[derive(Debug, Clone, PartialEq)]
pub struct SubModelStats {
    /// Sub-model index.
    pub index: usize,
    /// Rows in its bootstrap sample.
    pub sampled_rows: usize,
    /// Features it was allowed to see.
    pub sampled_features: usize,
    /// The inner training telemetry (per-iteration updates/accuracy).
    pub train: TrainStats,
}

/// Telemetry for a full bagged training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BaggingStats {
    /// One entry per *surviving* sub-model, in index order.
    pub sub_models: Vec<SubModelStats>,
    /// Indices of members dropped under [`MemberRecovery::Drop`].
    pub dropped_members: Vec<usize>,
    /// Indices of members retrained on the host under
    /// [`MemberRecovery::RetrainOnHost`].
    pub retrained_on_host: Vec<usize>,
}

impl BaggingStats {
    /// Total class-hypervector updates across every sub-model — the number
    /// that drives the host-side update runtime in the co-design model.
    pub fn total_updates(&self) -> usize {
        self.sub_models
            .iter()
            .map(|s| s.train.total_updates())
            .sum()
    }
}

/// The complete recipe for training one ensemble member: which training
/// rows it sees, the encoder it projects them through, and its inner
/// training configuration.
///
/// [`bagged_member_specs`] produces the paper's bootstrap plan;
/// single-model callers (the pipeline's CPU/TPU settings) build one spec
/// over the whole dataset, so every setting trains through the same
/// loop in [`train_members_parallel`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSpec {
    /// Member index within the ensemble.
    pub index: usize,
    /// Training-row indices for this member; `None` trains on the full
    /// dataset without resampling.
    pub rows: Option<Vec<usize>>,
    /// Features this member is allowed to see (unsampled feature rows of
    /// its base matrix are zeroed).
    pub sampled_features: usize,
    /// The member's encoder.
    pub encoder: NonlinearEncoder,
    /// The member's inner training configuration.
    pub train: TrainConfig,
}

/// Builds the paper's bagging plan: `M` member specs with bootstrap row
/// sampling, feature sampling, and independent per-member RNG streams.
///
/// For each sub-model `m`:
///
/// 1. derive an independent RNG stream from the master seed,
/// 2. bootstrap-sample `alpha x samples` rows **with replacement**,
/// 3. pick a `beta` fraction of features; base-hypervector rows of
///    *unsampled* features are zeroed, which makes the later merge
///    implement feature sampling "automatically" (Section III-B),
/// 4. generate an `n x d'` base matrix.
///
/// # Errors
///
/// [`BaggingError::InvalidConfig`] — bad configuration.
pub fn bagged_member_specs(
    samples: usize,
    features: usize,
    config: &BaggingConfig,
) -> Result<Vec<MemberSpec>, BaggingError> {
    config.validate()?;
    if samples == 0 || features == 0 {
        return Err(BaggingError::Hdc(hdc::HdcError::EmptyDataset));
    }
    let n = features;
    let mut master = DetRng::new(config.seed);
    let mut specs = Vec::with_capacity(config.sub_models);
    for m in 0..config.sub_models {
        let mut rng = master.fork(m as u64);

        // Bootstrap sampling: rows with replacement, features without.
        let rows = bootstrap_rows(&mut rng, samples, config.dataset_ratio);
        let kept_features = feature_subset(&mut rng, n, config.feature_ratio);

        // Base hypervectors with unsampled feature rows zeroed — the
        // merged encoder then ignores those features for this sub-model.
        let mut base = Matrix::random_normal(n, config.sub_dim, &mut rng);
        if kept_features.len() < n {
            let mut keep = vec![false; n];
            for &f in &kept_features {
                keep[f] = true;
            }
            for (f, &kept) in keep.iter().enumerate() {
                if !kept {
                    base.row_mut(f).fill(0.0);
                }
            }
        }

        specs.push(MemberSpec {
            index: m,
            rows: Some(rows),
            sampled_features: kept_features.len(),
            encoder: NonlinearEncoder::new(BaseHypervectors::from_matrix(base)),
            train: TrainConfig::new(config.sub_dim)
                .with_iterations(config.iterations)
                .with_learning_rate(config.learning_rate)
                .with_seed(config.seed.wrapping_add(m as u64)),
        });
    }
    Ok(specs)
}

/// Resolves one member's training rows and runs its encode→update chain;
/// returns the outcome plus the member's sampled-row count.
fn train_one_member(
    spec: &MemberSpec,
    features: &Matrix,
    labels: &[usize],
    classes: usize,
    exec: &dyn Executor,
) -> (Result<(ClassHypervectors, TrainStats), BaggingError>, usize) {
    let selected;
    let selected_labels;
    let (member_features, member_labels): (&Matrix, &[usize]) = match &spec.rows {
        Some(rows) => {
            match features.select_rows(rows) {
                Ok(m) => selected = m,
                Err(e) => return (Err(BaggingError::from(e)), 0),
            }
            selected_labels = rows.iter().map(|&r| labels[r]).collect::<Vec<usize>>();
            (&selected, &selected_labels)
        }
        None => (features, labels),
    };
    let trained = exec
        .encode_batch(&spec.encoder, member_features)
        .and_then(|encoded| exec.train_classes(&encoded, member_labels, classes, &spec.train))
        .map_err(BaggingError::from);
    (trained, member_features.rows())
}

/// The declared parallel-members SDF schedule that
/// [`train_members_parallel`] executes: one `plan` firing fans `members`
/// job tokens out, `member` firings train on a worker pool, and one
/// `merge` firing gathers every outcome back in index order. The slot
/// vector the merge stage fills is the declared channel capacity. This is
/// the same declaration `hyperedge verify --schedule` checks, so the graph
/// that is verified is the graph that runs.
#[must_use]
pub fn members_graph(members: usize, member_cost_s: f64) -> SdfGraph {
    let members = members.max(1);
    let mut g = SdfGraph::new("parallel-members");
    let plan = g.add_stage("plan", Resource::Host, 0.0);
    let member = g.add_stage("member", Resource::Host, member_cost_s);
    let merge = g.add_stage("merge", Resource::Host, 0.0);
    g.add_channel(plan, member, members, 1, Some(members));
    g.add_channel(member, merge, 1, members, Some(members));
    g
}

/// How one member firing produced its class hypervectors — the token the
/// member stage emits and the assembly loop folds into [`BaggingStats`]
/// in index order.
enum MemberYield {
    /// Trained through the caller's executor.
    Trained(ClassHypervectors, TrainStats),
    /// Recovered by the stage's supervision: retrained on the host.
    Retrained(ClassHypervectors, TrainStats),
    /// Recovered by the stage's supervision: dropped from the ensemble.
    Dropped,
}

/// The ensemble training loop: trains every member spec through the given
/// [`Executor`] (encode placement, then class-hypervector update
/// placement) and collects the results into a [`BaggedModel`]. A
/// one-member plan over the full dataset degenerates to ordinary
/// single-model training — the merged model *is* the member.
///
/// Members run as the firings of the declared [`members_graph`] schedule,
/// executed through the generic SDF runtime on `threads` workers (clamped
/// to `1..=members`). Members are independent (each has its own encoder,
/// bootstrap sample and class hypervectors) and assembly runs in index
/// order, so the result does not depend on `threads`. Device-resident
/// backends should pass `threads == 1`: the simulated accelerator holds
/// one model at a time, so concurrent members would thrash residency.
///
/// The member stage runs as a supervised data-parallel binding whose
/// per-firing recovery hook *is* the [`MemberRecovery`] policy: when a
/// member's executor fails permanently (an [`hdc::HdcError::Backend`]
/// error — the backend's own retries and host fallback are already
/// exhausted by the time it surfaces here), that member is retrained on
/// the host or dropped from the merge instead of failing the run.
/// [`BaggingStats`] records which members were recovered and how. Under
/// [`MemberRecovery::Fail`] the first failed member, in index order, ends
/// the run, and on one worker no later member starts.
///
/// # Errors
///
/// * Wrapped [`hdc::HdcError`] — label or shape problems (these always
///   propagate, whatever the recovery policy), or executor failures
///   under [`MemberRecovery::Fail`].
/// * [`BaggingError::InvalidConfig`] — an empty plan, inconsistent
///   member shapes, or every member failed and was dropped.
pub fn train_members_parallel(
    features: &Matrix,
    labels: &[usize],
    classes: usize,
    specs: Vec<MemberSpec>,
    exec: &dyn Executor,
    recovery: MemberRecovery,
    threads: usize,
) -> Result<(BaggedModel, BaggingStats), BaggingError> {
    if features.rows() == 0 || classes == 0 {
        return Err(BaggingError::Hdc(hdc::HdcError::EmptyDataset));
    }
    if labels.len() != features.rows() {
        return Err(BaggingError::Hdc(hdc::HdcError::LabelCount {
            samples: features.rows(),
            labels: labels.len(),
        }));
    }
    if specs.is_empty() {
        return Err(BaggingError::InvalidConfig(
            "training plan has no members".into(),
        ));
    }

    // Execute the declared parallel-members schedule through the generic
    // SDF runtime. One plan firing emits a job token per member, the
    // supervised member stage's worker pool trains them (the runtime
    // preserves firing order, so firing index == member index) with the
    // recovery policy attached as the stage's per-firing recovery hook,
    // and one merge firing gathers every outcome token in order.
    // The member stage declares all of the schedule's work, so the
    // runtime runs it on this thread; with one worker every member then
    // trains on the caller's thread.
    type MemberToken = Option<(usize, MemberYield)>;
    let members = specs.len();
    let plan = ExecutablePlan::validate(members_graph(members, 1.0))
        .expect("parallel-members schedule is statically valid");
    let mut outcomes: Vec<MemberToken> = Vec::with_capacity(members);
    {
        let specs = &specs;
        let gathered = &mut outcomes;
        let bindings: Vec<Binding<'_, MemberToken, BaggingError>> = vec![
            Supervised::map(Supervision::none(), move |_, _: &mut [MemberToken]| {
                Ok(((0..members).map(|_| None).collect(), Fire::Continue))
            })
            .into_binding(),
            Binding::SupervisedParMap {
                workers: threads.clamp(1, members),
                // The executor's own supervision (retry/backoff/breaker)
                // already ran inside `exec`; a failure surfacing here is
                // permanent, so the stage goes straight to recovery.
                policy: Supervision::none(),
                f: Box::new(move |ctx, _| {
                    let spec = &specs[ctx.firing as usize];
                    let (outcome, rows) = train_one_member(spec, features, labels, classes, exec);
                    let (hvs, ts) = outcome?;
                    Ok(vec![Some((rows, MemberYield::Trained(hvs, ts)))])
                }),
                recover: Some(Box::new(move |firing, _attempts, error, _inputs| {
                    if !matches!(error, BaggingError::Hdc(hdc::HdcError::Backend(_))) {
                        return None; // caller bugs always propagate
                    }
                    match recovery {
                        MemberRecovery::Fail => None,
                        MemberRecovery::RetrainOnHost => {
                            let spec = &specs[firing as usize];
                            let (outcome, rows) =
                                train_one_member(spec, features, labels, classes, &HostExecutor);
                            Some(outcome.map(|(hvs, ts)| {
                                vec![Some((rows, MemberYield::Retrained(hvs, ts)))]
                            }))
                        }
                        MemberRecovery::Drop => Some(Ok(vec![Some((0, MemberYield::Dropped))])),
                    }
                })),
            },
            Supervised::map(Supervision::none(), move |_, tokens: &mut [MemberToken]| {
                gathered.extend(tokens.iter_mut().map(Option::take));
                Ok((Vec::new(), Fire::Continue))
            })
            .into_binding(),
        ];
        runtime::run(&plan, 1, bindings).map_err(|e| match e {
            RunError::Stage { error, .. } => error,
            RunError::Protocol { stage, message } => BaggingError::InvalidConfig(format!(
                "parallel-members schedule protocol violation at stage {stage}: {message}"
            )),
        })?;
    }

    // Assembly in index order: fold the outcome tokens into the stats
    // and surviving sub-models.
    let mut sub_models = Vec::with_capacity(specs.len());
    let mut stats = BaggingStats::default();
    for (spec, token) in specs.into_iter().zip(outcomes) {
        let (sampled_rows, outcome) = token.expect("member firings produce outcome tokens");
        let (class_hvs, train_stats) = match outcome {
            MemberYield::Trained(hvs, ts) => (hvs, ts),
            MemberYield::Retrained(hvs, ts) => {
                stats.retrained_on_host.push(spec.index);
                (hvs, ts)
            }
            MemberYield::Dropped => {
                stats.dropped_members.push(spec.index);
                continue;
            }
        };
        stats.sub_models.push(SubModelStats {
            index: spec.index,
            sampled_rows,
            sampled_features: spec.sampled_features,
            train: train_stats,
        });
        sub_models.push(SubModel {
            encoder: spec.encoder,
            classes: class_hvs,
        });
    }

    if sub_models.is_empty() {
        return Err(BaggingError::InvalidConfig(
            "every ensemble member failed and was dropped".into(),
        ));
    }
    Ok((BaggedModel::new(sub_models, classes)?, stats))
}

/// Trains `M` bagged HDC sub-models per the paper's recipe (see
/// [`bagged_member_specs`] for the sampling details), encoding on the
/// host in `f32` one member at a time. Route encoding through an
/// accelerator backend (the paper's co-designed flow) by handing
/// [`bagged_member_specs`] and the backend to [`train_members_parallel`].
///
/// # Errors
///
/// * [`BaggingError::InvalidConfig`] — bad configuration.
/// * Wrapped [`hdc::HdcError`] — label or shape problems.
pub fn train_bagged(
    features: &Matrix,
    labels: &[usize],
    classes: usize,
    config: &BaggingConfig,
) -> Result<(BaggedModel, BaggingStats), BaggingError> {
    let specs = bagged_member_specs(features.rows(), features.cols(), config)?;
    train_members_parallel(
        features,
        labels,
        classes,
        specs,
        &HostExecutor,
        MemberRecovery::Fail,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(
        samples_per_class: usize,
        n: usize,
        classes: usize,
        seed: u64,
    ) -> (Matrix, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..n).map(|_| 1.5 * rng.next_normal()).collect())
            .collect();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..samples_per_class {
                rows.push(
                    center
                        .iter()
                        .map(|&v| v + 0.5 * rng.next_normal())
                        .collect::<Vec<f32>>(),
                );
                labels.push(c);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn bagged_training_produces_m_sub_models() {
        let (features, labels) = clustered(15, 10, 3, 1);
        let config = BaggingConfig::paper_defaults(512).with_seed(2);
        let (model, stats) = train_bagged(&features, &labels, 3, &config).unwrap();
        assert_eq!(model.sub_model_count(), 4);
        assert_eq!(stats.sub_models.len(), 4);
        for s in &stats.sub_models {
            assert_eq!(s.sampled_rows, (45.0_f64 * 0.6).round() as usize);
            assert_eq!(s.sampled_features, 10); // beta = 1.0
            assert_eq!(s.train.iterations.len(), 6);
        }
    }

    #[test]
    fn bagged_model_learns_clusters() {
        let (features, labels) = clustered(20, 12, 3, 3);
        let config = BaggingConfig::paper_defaults(1024).with_seed(4);
        let (model, _) = train_bagged(&features, &labels, 3, &config).unwrap();
        let merged = model.merge().unwrap();
        let preds = merged.predict(&features).unwrap();
        let acc = hdc::eval::accuracy(&preds, &labels).unwrap();
        assert!(acc > 0.9, "bagged accuracy {acc}");
    }

    #[test]
    fn feature_sampling_zeroes_unsampled_rows() {
        let (features, labels) = clustered(10, 20, 2, 5);
        let config = BaggingConfig::paper_defaults(256)
            .with_feature_ratio(0.5)
            .with_seed(6);
        let (model, stats) = train_bagged(&features, &labels, 2, &config).unwrap();
        for (m, s) in stats.sub_models.iter().enumerate() {
            assert_eq!(s.sampled_features, 10);
            // Exactly n - 10 zero rows in each sub-model's base matrix.
            let base = model.sub_model(m).unwrap().encoder.base().as_matrix();
            let zero_rows = (0..base.rows())
                .filter(|&r| base.row(r).iter().all(|&v| v == 0.0))
                .count();
            assert_eq!(zero_rows, 10);
        }
    }

    #[test]
    fn sub_models_differ_from_each_other() {
        let (features, labels) = clustered(10, 8, 2, 7);
        let config = BaggingConfig::paper_defaults(256).with_seed(8);
        let (model, _) = train_bagged(&features, &labels, 2, &config).unwrap();
        let a = model.sub_model(0).unwrap().encoder.base().as_matrix();
        let b = model.sub_model(1).unwrap().encoder.base().as_matrix();
        assert_ne!(a, b, "sub-models must use independent base hypervectors");
    }

    #[test]
    fn deterministic_per_seed() {
        let (features, labels) = clustered(10, 8, 2, 9);
        let config = BaggingConfig::paper_defaults(256).with_seed(10);
        let (a, _) = train_bagged(&features, &labels, 2, &config).unwrap();
        let (b, _) = train_bagged(&features, &labels, 2, &config).unwrap();
        assert_eq!(
            a.merge().unwrap().classes().as_matrix(),
            b.merge().unwrap().classes().as_matrix()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let config = BaggingConfig::paper_defaults(256);
        assert!(train_bagged(&Matrix::zeros(0, 4), &[], 2, &config).is_err());
        assert!(train_bagged(&Matrix::zeros(4, 4), &[0, 1], 2, &config).is_err());
        let bad = config.with_sub_models(0);
        assert!(train_bagged(&Matrix::zeros(4, 4), &[0; 4], 2, &bad).is_err());
    }

    /// Delegates to [`HostExecutor`] except on chosen encode calls, which
    /// fail with a configurable error — a stand-in for a backend whose
    /// device died mid-ensemble.
    struct FlakyExecutor {
        fail_on_calls: Vec<usize>,
        error: fn() -> hdc::HdcError,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl FlakyExecutor {
        fn backend_failure(fail_on_calls: Vec<usize>) -> Self {
            FlakyExecutor {
                fail_on_calls,
                error: || hdc::HdcError::Backend("device permanently lost".into()),
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl Executor for FlakyExecutor {
        fn encode_batch(&self, encoder: &dyn hdc::Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.fail_on_calls.contains(&call) {
                return Err((self.error)());
            }
            HostExecutor.encode_batch(encoder, batch)
        }

        fn train_classes(
            &self,
            encoded: &Matrix,
            labels: &[usize],
            classes: usize,
            config: &TrainConfig,
        ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
            HostExecutor.train_classes(encoded, labels, classes, config)
        }
    }

    #[test]
    fn failed_member_propagates_under_fail_policy() {
        let (features, labels) = clustered(10, 8, 2, 13);
        let config = BaggingConfig::paper_defaults(256).with_seed(14);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let exec = FlakyExecutor::backend_failure(vec![1]);
        let err =
            train_members_parallel(&features, &labels, 2, specs, &exec, MemberRecovery::Fail, 1)
                .unwrap_err();
        assert!(matches!(err, BaggingError::Hdc(hdc::HdcError::Backend(_))));
        // Member 1's failure ends the run: members 2 and 3 never encode.
        assert_eq!(exec.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn dropped_member_yields_degraded_merge() {
        let (features, labels) = clustered(10, 8, 2, 13);
        let config = BaggingConfig::paper_defaults(256).with_seed(14);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let exec = FlakyExecutor::backend_failure(vec![1]);
        let (model, stats) =
            train_members_parallel(&features, &labels, 2, specs, &exec, MemberRecovery::Drop, 1)
                .unwrap();
        assert_eq!(model.sub_model_count(), 3);
        assert_eq!(stats.dropped_members, vec![1]);
        assert!(stats.retrained_on_host.is_empty());
        assert_eq!(stats.sub_models.len(), 3);
        assert!(stats.sub_models.iter().all(|s| s.index != 1));
        // The degraded M-1 ensemble still merges and predicts.
        let merged = model.merge().unwrap();
        assert_eq!(merged.dim(), 3 * 64);
        let preds = merged.predict(&features).unwrap();
        assert!(hdc::eval::accuracy(&preds, &labels).unwrap() > 0.8);
    }

    #[test]
    fn retrain_on_host_keeps_full_ensemble_bit_exact() {
        let (features, labels) = clustered(10, 8, 2, 15);
        let config = BaggingConfig::paper_defaults(256).with_seed(16);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let exec = FlakyExecutor::backend_failure(vec![2]);
        let (model, stats) = train_members_parallel(
            &features,
            &labels,
            2,
            specs,
            &exec,
            MemberRecovery::RetrainOnHost,
            1,
        )
        .unwrap();
        assert_eq!(model.sub_model_count(), 4);
        assert_eq!(stats.retrained_on_host, vec![2]);
        assert!(stats.dropped_members.is_empty());
        // Every member ran on the host (directly or via recovery), so the
        // result must equal the plain host-trained ensemble bit-for-bit.
        let (reference, _) = train_bagged(&features, &labels, 2, &config).unwrap();
        assert_eq!(
            model.merge().unwrap().classes().as_matrix(),
            reference.merge().unwrap().classes().as_matrix()
        );
    }

    #[test]
    fn all_members_dropped_is_an_error() {
        let (features, labels) = clustered(10, 8, 2, 17);
        let config = BaggingConfig::paper_defaults(256).with_seed(18);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let exec = FlakyExecutor::backend_failure(vec![0, 1, 2, 3]);
        let err =
            train_members_parallel(&features, &labels, 2, specs, &exec, MemberRecovery::Drop, 1)
                .unwrap_err();
        assert!(matches!(err, BaggingError::InvalidConfig(_)));
    }

    #[test]
    fn non_backend_errors_are_never_absorbed() {
        let (features, labels) = clustered(10, 8, 2, 19);
        let config = BaggingConfig::paper_defaults(256).with_seed(20);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let exec = FlakyExecutor {
            fail_on_calls: vec![0],
            error: || hdc::HdcError::EmptyDataset,
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let err =
            train_members_parallel(&features, &labels, 2, specs, &exec, MemberRecovery::Drop, 1)
                .unwrap_err();
        assert!(matches!(
            err,
            BaggingError::Hdc(hdc::HdcError::EmptyDataset)
        ));
    }

    #[test]
    fn parallel_members_match_sequential_bit_exact() {
        let (features, labels) = clustered(12, 10, 3, 23);
        let config = BaggingConfig::paper_defaults(512).with_seed(24);
        let (reference, ref_stats) = train_bagged(&features, &labels, 3, &config).unwrap();
        for threads in [2, 3, 8] {
            let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
            let (model, stats) = train_members_parallel(
                &features,
                &labels,
                3,
                specs,
                &HostExecutor,
                MemberRecovery::Fail,
                threads,
            )
            .unwrap();
            assert_eq!(
                model.merge().unwrap().classes().as_matrix(),
                reference.merge().unwrap().classes().as_matrix(),
                "threads {threads}"
            );
            assert_eq!(stats, ref_stats, "threads {threads}");
        }
    }

    /// Fails every encode with a backend error — deterministic under
    /// parallel member scheduling, unlike a call-counting executor.
    struct DeadExecutor;

    impl Executor for DeadExecutor {
        fn encode_batch(&self, _: &dyn hdc::Encoder, _: &Matrix) -> hdc::Result<Matrix> {
            Err(hdc::HdcError::Backend("device permanently lost".into()))
        }
    }

    #[test]
    fn parallel_retrain_on_host_recovers_every_member() {
        let (features, labels) = clustered(10, 8, 2, 27);
        let config = BaggingConfig::paper_defaults(256).with_seed(28);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let (model, stats) = train_members_parallel(
            &features,
            &labels,
            2,
            specs,
            &DeadExecutor,
            MemberRecovery::RetrainOnHost,
            4,
        )
        .unwrap();
        assert_eq!(stats.retrained_on_host, vec![0, 1, 2, 3]);
        let (reference, _) = train_bagged(&features, &labels, 2, &config).unwrap();
        assert_eq!(
            model.merge().unwrap().classes().as_matrix(),
            reference.merge().unwrap().classes().as_matrix()
        );
    }

    #[test]
    fn parallel_drop_of_every_member_is_an_error() {
        let (features, labels) = clustered(10, 8, 2, 29);
        let config = BaggingConfig::paper_defaults(256).with_seed(30);
        let specs = bagged_member_specs(features.rows(), features.cols(), &config).unwrap();
        let err = train_members_parallel(
            &features,
            &labels,
            2,
            specs,
            &DeadExecutor,
            MemberRecovery::Drop,
            4,
        )
        .unwrap_err();
        assert!(matches!(err, BaggingError::InvalidConfig(_)));
    }

    #[test]
    fn stats_total_updates_sums() {
        let (features, labels) = clustered(10, 8, 2, 11);
        let config = BaggingConfig::paper_defaults(256).with_seed(12);
        let (_, stats) = train_bagged(&features, &labels, 2, &config).unwrap();
        let manual: usize = stats
            .sub_models
            .iter()
            .map(|s| s.train.total_updates())
            .sum();
        assert_eq!(stats.total_updates(), manual);
    }
}
