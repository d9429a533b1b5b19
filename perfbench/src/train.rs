//! The `train-cpu` and `train-tpub` workloads: each repetition builds a
//! fresh `Pipeline`, trains, and evaluates the held-out rows.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hd_bagging::{bagged_member_specs, train_members_parallel, MemberSpec};
use hd_datasets::Dataset;
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::{
    BaseHypervectors, ClassHypervectors, Encoder, Executor, HdcError, HdcModel, NonlinearEncoder,
    TrainConfig, TrainStats,
};
use hyperedge::backend::CALIBRATION_ROWS;
use hyperedge::{wide_model, BackendLedger, ExecutionSetting, Pipeline, PipelineConfig};
use tpu_sim::timing::ModelDims;
use tpu_sim::Device;
use wide_nn::{compile, Model};

use crate::common::{
    argmax_rows, config, dataset, ensure, ledger_sim_s, metric, peak_rss_mib, secs, tracer_span,
    Ctx, Outcome,
};
use crate::layers::{self, Sample};
use crate::probe::{probe_line, Probes};
use crate::stats::{median, quartiles};
use crate::trace::{Span, Tracer};

/// Set-ups per run; `setup_s` is their median. A set-up is only dataset
/// generation here (about 20 ms), so many samples keep the median steady.
const SETUPS: usize = 15;
/// Repetitions a run makes even when the time is up, so the
/// repeat-exactly checks always compare something.
const MIN_REPS: usize = 3;

/// One untraced repetition.
struct Rep {
    train_s: f64,
    eval_s: f64,
    model: HdcModel,
    predictions: Vec<usize>,
    accuracy: f64,
    train_ledger: BackendLedger,
    eval_ledger: BackendLedger,
}

impl Rep {
    /// Everything that must repeat exactly between repetitions.
    fn same_as(&self, first: &Rep) -> Result<(), String> {
        ensure(self.model == first.model, || {
            "model differs between repetitions".into()
        })?;
        ensure(self.predictions == first.predictions, || {
            "held-out predictions differ between repetitions".into()
        })?;
        ensure(self.train_ledger == first.train_ledger, || {
            format!(
                "train ledger differs: {:?} vs {:?}",
                self.train_ledger, first.train_ledger
            )
        })?;
        ensure(self.eval_ledger == first.eval_ledger, || {
            format!(
                "evaluate ledger differs: {:?} vs {:?}",
                self.eval_ledger, first.eval_ledger
            )
        })
    }
}

/// `Pipeline::new`, `train`, `evaluate`, timed with tracing off.
fn untraced_rep(
    cfg: &PipelineConfig,
    data: &Dataset,
    setting: ExecutionSetting,
) -> Result<Rep, String> {
    let pipeline = Pipeline::new(cfg.clone());
    let t = Instant::now();
    let outcome = pipeline
        .train(
            &data.train.features,
            &data.train.labels,
            data.classes,
            setting,
        )
        .ctx("Pipeline::train")?;
    let train_s = secs(t);
    let before = pipeline.backend(setting).ledger();
    let t = Instant::now();
    let report = pipeline
        .evaluate(&outcome, &data.test.features, &data.test.labels)
        .ctx("Pipeline::evaluate")?;
    let eval_s = secs(t);
    Ok(Rep {
        train_s,
        eval_s,
        eval_ledger: pipeline.backend(setting).ledger().delta_since(&before),
        train_ledger: outcome.ledger,
        model: outcome.model,
        predictions: report.inference.predictions,
        accuracy: report.accuracy,
    })
}

/// Counts the traced composition accumulates as it calls the layers.
#[derive(Debug, Default)]
struct Counts {
    encode_rows: u64,
    class_updates: u64,
    compiles: u64,
    loads: u64,
    invokes: u64,
    macs: u64,
    busy_sim_s: f64,
}

/// Compiles `network` for the device (calibrated on the batch's first
/// rows, as the accelerator backend does), loads it, and runs the batch
/// through it in `chunk`-row double-buffered invocations: the device path
/// of the accelerator backend, issued call by call so each is timed.
fn device_run(
    tracer: &Tracer,
    counts: &Mutex<Counts>,
    device: &Device,
    network: Model,
    batch: &Matrix,
    chunk: usize,
) -> Result<Matrix, String> {
    let calibration = batch
        .slice_rows(0, batch.rows().min(CALIBRATION_ROWS))
        .ctx("calibration rows")?;
    let compiled = tracer
        .run("nn.compile", || {
            compile::compile(&network, &calibration, &device.config().target)
        })
        .ctx("compile")?;
    let macs_per_row: usize = ModelDims::from_compiled(&compiled)
        .fc_layers
        .iter()
        .map(|&(k, n)| k * n)
        .sum();
    tracer
        .run("tpusim.load", || device.load_model(compiled))
        .ctx("load model")?;
    let mut out: Option<Matrix> = None;
    let mut c = counts.lock().expect("counts lock");
    c.compiles += 1;
    c.loads += 1;
    for start in (0..batch.rows()).step_by(chunk.max(1)) {
        let end = (start + chunk).min(batch.rows());
        let part = batch.slice_rows(start, end).ctx("chunk")?;
        let (chunk_out, stats) = tracer
            .run("tpusim.invoke", || device.invoke_overlapped(&part))
            .ctx("invoke")?;
        c.invokes += 1;
        c.macs += (part.rows() * macs_per_row) as u64;
        c.busy_sim_s += stats.total_s;
        let cols = chunk_out.cols();
        let dest = out.get_or_insert_with(|| Matrix::zeros(batch.rows(), cols));
        dest.as_mut_slice()[start * cols..end * cols].copy_from_slice(chunk_out.as_slice());
    }
    out.ok_or_else(|| "empty batch".to_string())
}

/// The timing `Executor` the traced run hands to
/// `hd_bagging::train_members_parallel`: host encode and update go to the
/// pipeline's own backends inside a span, device encode is composed from
/// `wide_nn` and `tpu_sim` calls on the pipeline's persistent device.
struct TracingExecutor<'a> {
    tracer: &'a Tracer,
    pipeline: &'a Pipeline,
    setting: ExecutionSetting,
    counts: &'a Mutex<Counts>,
}

impl Executor for TracingExecutor<'_> {
    fn encode_batch(&self, encoder: &dyn Encoder, batch: &Matrix) -> hdc::Result<Matrix> {
        let backends = self.pipeline.backends();
        if self.setting == ExecutionSetting::CpuBaseline {
            self.counts.lock().expect("counts lock").encode_rows += batch.rows() as u64;
            return self
                .tracer
                .run("hdc.encode", || backends.cpu().encode_batch(encoder, batch));
        }
        self.tracer
            .run("device_encode", || {
                let network = self
                    .tracer
                    .run("core.wide_model", || wide_model::encoder_network(encoder))
                    .ctx("encoder network")?;
                device_run(
                    self.tracer,
                    self.counts,
                    backends.hybrid().tpu().device(),
                    network,
                    batch,
                    self.pipeline.config().encode_batch,
                )
            })
            .map_err(HdcError::Backend)
    }

    fn train_classes(
        &self,
        encoded: &Matrix,
        labels: &[usize],
        classes: usize,
        config: &TrainConfig,
    ) -> hdc::Result<(ClassHypervectors, TrainStats)> {
        let backends = self.pipeline.backends();
        let out = self.tracer.run("hdc.update", || match self.setting {
            ExecutionSetting::CpuBaseline => backends
                .cpu()
                .train_classes(encoded, labels, classes, config),
            _ => backends
                .hybrid()
                .host()
                .train_classes(encoded, labels, classes, config),
        })?;
        self.counts.lock().expect("counts lock").class_updates += out.1.total_updates() as u64;
        Ok(out)
    }
}

/// The CPU setting's one full-width member, as `Pipeline::train` plans it.
fn cpu_plan(cfg: &PipelineConfig, features: usize) -> Vec<MemberSpec> {
    let mut rng = DetRng::new(cfg.seed);
    let encoder = NonlinearEncoder::new(BaseHypervectors::generate(features, cfg.dim, &mut rng));
    vec![MemberSpec {
        index: 0,
        rows: None,
        sampled_features: features,
        encoder,
        train: TrainConfig::new(cfg.dim)
            .with_iterations(cfg.iterations)
            .with_learning_rate(cfg.learning_rate)
            .with_seed(cfg.seed),
    }]
}

/// What one traced repetition leaves for the report: its root and train
/// spans, and the counts gathered on the way.
struct TracedRep {
    root: usize,
    train: usize,
    counts: Counts,
    kernels: hd_tensor::kernels::KernelStats,
}

/// One traced repetition: the work of `Pipeline::new`, `train` and
/// `evaluate`, composed from the layers' public calls with a span around
/// each. Its model and predictions must equal those of `reference`, an
/// untraced repetition through `Pipeline` on the same inputs.
fn traced_rep(
    tracer: &Tracer,
    cfg: &PipelineConfig,
    data: &Dataset,
    setting: ExecutionSetting,
    reference: &Rep,
) -> Result<TracedRep, String> {
    let counts = Mutex::new(Counts::default());
    let kernels_before = hd_tensor::kernels::stats();
    let (result, root) = tracer.span("rep", || -> Result<_, String> {
        let pipeline = tracer.run("core.pipeline_new", || Pipeline::new(cfg.clone()));
        let (model, train) = tracer.span("train", || -> Result<HdcModel, String> {
            let (rows, cols) = (data.train.features.rows(), data.train.features.cols());
            let specs = match setting {
                ExecutionSetting::CpuBaseline => {
                    tracer.run("hdc.base_generate", || cpu_plan(cfg, cols))
                }
                _ => tracer
                    .run("bagging.plan", || {
                        bagged_member_specs(rows, cols, &cfg.bagging)
                    })
                    .ctx("member plan")?,
            };
            let exec = TracingExecutor {
                tracer,
                pipeline: &pipeline,
                setting,
                counts: &counts,
            };
            let (bagged, _) = tracer
                .run("bagging.members", || {
                    train_members_parallel(
                        &data.train.features,
                        &data.train.labels,
                        data.classes,
                        specs,
                        &exec,
                        cfg.member_recovery,
                        cfg.threads,
                    )
                })
                .ctx("train members")?;
            tracer.run("bagging.merge", || bagged.merge()).ctx("merge")
        });
        let model = model?;
        let predictions = tracer.run("evaluate", || -> Result<Vec<usize>, String> {
            if setting == ExecutionSetting::CpuBaseline {
                return tracer
                    .run("hdc.predict", || {
                        pipeline
                            .backend(setting)
                            .predict(&model, &data.test.features)
                    })
                    .ctx("predict");
            }
            let network = tracer
                .run("core.wide_model", || wide_model::inference_network(&model))
                .ctx("inference network")?;
            let scores = device_run(
                tracer,
                &counts,
                pipeline.backends().hybrid().tpu().device(),
                network,
                &data.test.features,
                cfg.infer_batch,
            )?;
            argmax_rows(&scores)
        })?;
        Ok((model, predictions, train))
    });
    let (model, predictions, train) = result?;
    ensure(model == reference.model, || {
        "traced composition trained a different model than Pipeline::train".into()
    })?;
    ensure(predictions == reference.predictions, || {
        "traced composition predicted differently than Pipeline::evaluate".into()
    })?;
    Ok(TracedRep {
        root,
        train,
        counts: counts.into_inner().expect("counts lock"),
        kernels: hd_tensor::kernels::stats().delta_since(&kernels_before),
    })
}

/// Per-layer values of one traced repetition. Simulated-clock values
/// come from the ledgers of the untraced repetition `reference`, which
/// ran the same work through `Pipeline`.
fn layer_sample(spans: &[Span], rep: &TracedRep, reference: &Rep) -> Sample {
    let mut s = layers::wall_sample(spans, rep.root);
    let c = &rep.counts;
    let (t, e) = (&reference.train_ledger, &reference.eval_ledger);
    for (name, v) in [
        ("hdc.encode.rows", c.encode_rows as f64),
        ("hdc.update.class_updates", c.class_updates as f64),
        ("tensor.simd_gemm_calls", rep.kernels.simd_gemm_calls as f64),
        (
            "tensor.portable_gemm_calls",
            rep.kernels.portable_gemm_calls as f64,
        ),
        (
            "tensor.packed_score_rows",
            rep.kernels.packed_score_rows as f64,
        ),
        ("nn.compile.count", c.compiles as f64),
        (
            "nn.compile.cache_hits",
            (t.cache_hits + e.cache_hits) as f64,
        ),
        ("tpusim.invoke.count", c.invokes as f64),
        ("tpusim.invoke.macs", c.macs as f64),
        ("tpusim.busy_sim_s", c.busy_sim_s),
        ("tpusim.model_loads", c.loads as f64),
        ("core.encode_sim_s", t.encode_s + e.encode_s),
        ("core.update_sim_s", t.update_s + e.update_s),
        ("core.model_gen_sim_s", t.model_gen_s + e.model_gen_s),
        ("core.infer_sim_s", t.infer_s + e.infer_s),
    ] {
        s.insert(name, v);
    }
    s
}

/// Runs one train workload for `seconds` and reports its metrics.
///
/// # Errors
///
/// A set-up failure (no metrics can be measured without inputs).
pub fn run(
    setting: ExecutionSetting,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let cfg = config();
    let tracer = Tracer::default();
    let tr = trace.then_some(&tracer);
    let mut out = Outcome::default();

    // Every wall time below is scaled to the reference host speed by the
    // probes around it (the raw figures stay on the info line and in the
    // traced numbers).
    let mut probes = Probes::start();
    let (mut setup_s, mut setup_roots) = (Vec::new(), Vec::new());
    let mut data: Option<Dataset> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (d, id) = tracer_span(tr, "setup", || dataset(seed, tr));
        let d = d?;
        setup_s.push(secs(t) * probes.after_op());
        setup_roots.extend(id);
        let same = data.as_ref().is_none_or(|first| *first == d);
        out.checks
            .record(ensure(same, || "set-up is not deterministic".into()));
        data.get_or_insert(d);
    }
    let data = data.ok_or("no set-up ran")?;

    // Only the first repetition's outputs are kept, as the reference the
    // others must repeat exactly; later ones keep just their timings.
    let mut first: Option<Rep> = None;
    let (mut train_s, mut eval_s) = (Vec::new(), Vec::new());
    let (mut train_ref, mut eval_ref) = (Vec::new(), Vec::new());
    let mut traced: Vec<TracedRep> = Vec::new();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while train_s.len() < MIN_REPS || window.elapsed() < budget {
        let rep = out
            .checks
            .record(untraced_rep(&cfg, &data, setting).and_then(|r| {
                if let Some(f) = &first {
                    r.same_as(f)?;
                }
                Ok(r)
            }));
        let Some(rep) = rep else { break };
        let scale = probes.after_op();
        train_s.push(rep.train_s);
        eval_s.push(rep.eval_s);
        train_ref.push(rep.train_s * scale);
        eval_ref.push(rep.eval_s * scale);
        let reference = first.get_or_insert(rep);
        if trace {
            let t = out
                .checks
                .record(traced_rep(&tracer, &cfg, &data, setting, reference));
            let Some(t) = t else { break };
            traced.push(t);
        }
    }
    let first = first.ok_or("no repetition completed")?;

    let test_rows = data.test.features.rows() as f64;
    let (q, qe) = (quartiles(&train_s), quartiles(&eval_s));
    out.info.push(format!(
        "repetitions {}  raw wall train_s q1/median/q3 {:.4}/{:.4}/{:.4}  eval_s q1/median/q3 {:.4}/{:.4}/{:.4}  sim_train_s {:.6} sim_s  sim_eval_s {:.6} sim_s",
        train_s.len(),
        q[0],
        q[1],
        q[2],
        qe[0],
        qe[1],
        qe[2],
        ledger_sim_s(&first.train_ledger),
        ledger_sim_s(&first.eval_ledger)
    ));
    out.info.push(probe_line(&probes.times));

    if !trace {
        let clock = "wall at reference host speed";
        out.metrics = vec![
            metric(
                "setup_s",
                median(&setup_s),
                "s",
                format!("{clock}, median of {SETUPS} set-ups"),
            ),
            metric(
                "train_s",
                median(&train_ref),
                "s",
                format!("{clock}, median of {} Pipeline::train", train_ref.len()),
            ),
            metric(
                "infer_rows_per_s",
                test_rows / median(&eval_ref),
                "rows/s",
                format!("{clock}, held-out rows / median Pipeline::evaluate"),
            ),
            metric(
                "infer_p50_ms",
                median(&eval_ref) * 1e3,
                "ms",
                format!("{clock}, median Pipeline::evaluate over all held-out rows"),
            ),
            metric(
                "sim_train_s",
                ledger_sim_s(&first.train_ledger),
                "sim_s",
                "simulated, BackendLedger phases of one train",
            ),
            metric(
                "test_accuracy",
                first.accuracy,
                "ratio",
                "held-out accuracy",
            ),
            metric("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB", "VmHWM"),
        ];
        return Ok(out);
    }

    let spans = tracer.spans();
    let samples: Vec<Sample> = traced
        .iter()
        .map(|t| layer_sample(&spans, t, &first))
        .collect();
    let mut s = layers::median_sample(&samples);
    let traced_train: Vec<f64> = traced
        .iter()
        .map(|t| spans[t.train].dur_ns() as f64 * 1e-9)
        .collect();
    let roots: Vec<usize> = setup_roots
        .iter()
        .copied()
        .chain(traced.iter().map(|t| t.root))
        .collect();
    s.insert(
        "datasets.generate_s",
        layers::per_root_median(&spans, &setup_roots, "datasets.generate"),
    );
    s.insert("trace.overhead_s", median(&traced_train) - median(&train_s));
    s.insert("trace.coverage", layers::coverage(&spans, &roots));
    if let Some(t) = traced.first() {
        layers::push_layer_table(
            &mut out.info,
            &spans,
            t.root,
            &layer_sample(&spans, t, &first),
        );
    }
    out.metrics = layers::metrics(s, "repetition");
    out.spans = spans;
    Ok(out)
}
