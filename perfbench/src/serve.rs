//! The `serve-2dev` workload: one closed-loop client sends 32-row
//! requests to a `TwoDeviceServer` (encoder half on device 0, scoring half
//! on device 1); each request is two 16-row chunks, so encode and score
//! overlap within it.

use std::time::{Duration, Instant};

use hd_datasets::Dataset;
use hd_tensor::Matrix;
use hdc::{Encoder, HdcModel};
use hyperedge::backend::CALIBRATION_ROWS;
use hyperedge::{
    wide_model, BackendLedger, ExecutionSetting, Pipeline, PipelineConfig, TwoDeviceServer,
};
use wide_nn::compile;

use crate::common::{
    argmax_rows, config, dataset, ensure, ledger_sim_s, metric, peak_rss_mib, secs, traced,
    tracer_span, Ctx, Outcome,
};
use crate::layers::{self, Sample};
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::trace::Tracer;

/// Set-ups per run, one before the requests and the rest spread over the
/// window; `setup_s` and `train_s` are their medians.
const SETUPS: usize = 11;
/// Rows per request.
const REQUEST_ROWS: usize = 32;
/// Requests an untraced run sends even when the time is up, so the p90
/// latency has ten samples beyond it. A traced run needs only one request
/// per held-out batch.
const MIN_REQUESTS: usize = 100;

/// A trained model behind a built server.
struct Setup {
    data: Dataset,
    model: HdcModel,
    train_s: f64,
    train_ledger: BackendLedger,
    server: TwoDeviceServer,
}

/// Dataset, `Pipeline::train` under TPU_B, `TwoDeviceServer::new`.
fn setup(cfg: &PipelineConfig, seed: u64, tr: Option<&Tracer>) -> Result<Setup, String> {
    let data = dataset(seed, tr)?;
    let pipeline = traced(tr, "core.pipeline_new", || Pipeline::new(cfg.clone()));
    let t = Instant::now();
    let outcome = traced(tr, "core.train", || {
        pipeline.train(
            &data.train.features,
            &data.train.labels,
            data.classes,
            ExecutionSetting::TpuBagging,
        )
    })
    .ctx("Pipeline::train")?;
    let train_s = secs(t);
    let server = traced(tr, "core.server_new", || {
        TwoDeviceServer::new(&outcome.model, cfg, &data.train.features)
    })
    .ctx("TwoDeviceServer::new")?;
    Ok(Setup {
        data,
        model: outcome.model,
        train_s,
        train_ledger: outcome.ledger,
        server,
    })
}

/// Compiles the server's two half-networks again, on the same networks
/// and calibration rows `TwoDeviceServer::new` uses, so the traced set-up
/// can time `wide_nn::compile::compile` on its own.
fn replay_compile(tracer: &Tracer, s: &Setup, cfg: &PipelineConfig) -> Result<(), String> {
    let target = &cfg.device.target;
    let rows = s.data.train.features.rows().min(CALIBRATION_ROWS);
    let feature_cal = s
        .data
        .train
        .features
        .slice_rows(0, rows)
        .ctx("calibration")?;
    let encoded_cal = tracer
        .run("hdc.encode", || s.model.encoder().encode(&feature_cal))
        .ctx("encode calibration")?;
    let encoder = tracer
        .run("core.wide_model", || {
            wide_model::encoder_network(s.model.encoder())
        })
        .ctx("encoder network")?;
    tracer
        .run("nn.compile", || {
            compile::compile(&encoder, &feature_cal, target)
        })
        .ctx("compile encoder half")?;
    let scoring = tracer
        .run("core.wide_model", || wide_model::scoring_network(&s.model))
        .ctx("scoring network")?;
    tracer
        .run("nn.compile", || {
            compile::compile(&scoring, &encoded_cal, target)
        })
        .ctx("compile scoring half")?;
    Ok(())
}

/// One untraced request: predictions, wall latency, and the simulated
/// elapsed time of the two-device schedule.
fn request(server: &TwoDeviceServer, batch: &Matrix) -> Result<(Vec<usize>, f64, f64), String> {
    server.reset_ledgers();
    let t = Instant::now();
    let outcome = server.predict_supervised(batch).ctx("predict_supervised")?;
    let latency = secs(t);
    let sim = server.measured_elapsed_s();
    ensure(!outcome.is_degraded(), || {
        "a fault-free serve was degraded".into()
    })?;
    let report = outcome.into_report();
    ensure(report.supervision.iter().all(|s| s.is_clean()), || {
        format!(
            "fault-free serve reported supervision activity: {:?}",
            report.supervision
        )
    })?;
    Ok((report.predictions, latency, sim))
}

/// What one traced request leaves for the report: its root span, the
/// span of the supervised serve, and its per-layer values.
struct TracedRequest {
    root: usize,
    serve: usize,
    sample: Sample,
}

/// One traced request: the supervised serve, the sequential reference
/// through `predict_sequential`, and the reference's device calls issued
/// one by one so each invocation is timed. All three must predict
/// `expected`.
fn traced_request(
    tracer: &Tracer,
    s: &Setup,
    cfg: &PipelineConfig,
    batch: &Matrix,
    expected: &[usize],
) -> Result<TracedRequest, String> {
    let server = &s.server;
    let (n, d, k) = (
        s.model.feature_count(),
        s.model.dim(),
        s.model.class_count(),
    );
    let kernels_before = hd_tensor::kernels::stats();
    let mut sample = Sample::new();
    let (result, root) = tracer.span("request", || -> Result<(usize, usize), String> {
        let (served, serve) = tracer.span("dataflow.serve", || server.predict_supervised(batch));
        let served = served.ctx("predict_supervised")?.into_report();
        let (sequential, seq) = tracer.span("core.predict_sequential", || {
            server.predict_sequential(batch)
        });
        let sequential = sequential.ctx("predict_sequential")?;
        let replayed = tracer.run("invoke_replay", || -> Result<Vec<usize>, String> {
            let mut predictions = Vec::with_capacity(batch.rows());
            let (mut invokes, mut macs, mut busy) = (0.0, 0.0, 0.0);
            for start in (0..batch.rows()).step_by(cfg.infer_batch.max(1)) {
                let end = (start + cfg.infer_batch).min(batch.rows());
                let part = batch.slice_rows(start, end).ctx("chunk")?;
                let (encoded, e) = tracer
                    .run("tpusim.encode_invoke", || {
                        server.encode_device().invoke_overlapped(&part)
                    })
                    .ctx("encode invoke")?;
                let (scores, c) = tracer
                    .run("tpusim.score_invoke", || {
                        server.score_device().invoke_overlapped(&encoded)
                    })
                    .ctx("score invoke")?;
                predictions.extend(argmax_rows(&scores)?);
                invokes += 2.0;
                macs += (part.rows() * (n * d + d * k)) as f64;
                busy += e.total_s + c.total_s;
            }
            sample.insert("tpusim.invoke.count", invokes);
            sample.insert("tpusim.invoke.macs", macs);
            sample.insert("tpusim.busy_sim_s", busy);
            Ok(predictions)
        })?;
        ensure(served.predictions == expected, || {
            "traced serve predicted differently".into()
        })?;
        ensure(sequential == expected, || {
            "predict_sequential differs from the served predictions".into()
        })?;
        ensure(replayed == expected, || {
            "replayed device calls differ from the served predictions".into()
        })?;
        let (faults, retries, rebinds) =
            served.supervision.iter().fold((0, 0, 0), |(f, r, b), s| {
                (f + s.faults, r + s.retries, b + s.rebinds)
            });
        sample.insert("fleet.faults", faults as f64);
        sample.insert("fleet.retries", retries as f64);
        sample.insert("fleet.rebinds", rebinds as f64);
        Ok((serve, seq))
    });
    let (serve, seq) = result?;
    let spans = tracer.spans();
    let kernels = hd_tensor::kernels::stats().delta_since(&kernels_before);
    let (serve_s, seq_s) = (
        spans[serve].dur_ns() as f64 * 1e-9,
        spans[seq].dur_ns() as f64 * 1e-9,
    );
    sample.extend(layers::wall_sample(&spans, root));
    sample.insert("dataflow.sequential_ref_ms", seq_s * 1e3);
    sample.insert("dataflow.overlap_ratio", seq_s / serve_s);
    sample.insert("tensor.simd_gemm_calls", kernels.simd_gemm_calls as f64);
    sample.insert(
        "tensor.portable_gemm_calls",
        kernels.portable_gemm_calls as f64,
    );
    sample.insert("tensor.packed_score_rows", kernels.packed_score_rows as f64);
    Ok(TracedRequest {
        root,
        serve,
        sample,
    })
}

/// Runs the serve workload for `seconds` and reports its metrics.
///
/// # Errors
///
/// A set-up failure (no metrics can be measured without a server).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let cfg = config();
    let tracer = Tracer::default();
    let tr = trace.then_some(&tracer);
    let mut out = Outcome::default();

    // One set-up, its wall seconds, and its root span when tracing.
    let timed_setup = || {
        let t = Instant::now();
        tracer_span(tr, "setup", || -> Result<(Setup, f64), String> {
            let s = setup(&cfg, seed, tr)?;
            let elapsed = secs(t);
            if trace {
                replay_compile(&tracer, &s, &cfg)?;
            }
            Ok((s, elapsed))
        })
    };
    let (first, id) = timed_setup();
    let (s, elapsed) = first?;
    let (mut setup_s, mut train_s) = (vec![elapsed], vec![s.train_s]);
    let mut setup_roots: Vec<usize> = id.into_iter().collect();
    out.checks.record(Ok(()));

    let batches: Vec<Matrix> = (0..s.data.test.features.rows() / REQUEST_ROWS)
        .map(|b| {
            s.data
                .test
                .features
                .slice_rows(b * REQUEST_ROWS, (b + 1) * REQUEST_ROWS)
        })
        .collect::<Result<_, _>>()
        .ctx("request batches")?;
    let mut expected: Vec<Option<Vec<usize>>> = vec![None; batches.len()];
    let mut latency = Vec::new();
    let mut request_sim: Option<f64> = None;
    let mut traced: Vec<TracedRequest> = Vec::new();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let min_requests = if trace { batches.len() } else { MIN_REQUESTS };
    // The other set-ups are spread evenly over the window, between
    // requests. The shared host's speed shifts every few seconds, so
    // set-ups bunched before the window sampled a few seconds of it and
    // their median `train_s` spread by 0.15 across five seeds.
    let setup_every = budget.div_f64(SETUPS as f64);
    let mut setups_wall = Duration::ZERO;
    let mut i = 0;
    while latency.len() < min_requests || setup_s.len() < SETUPS || window.elapsed() < budget {
        if setup_s.len() < SETUPS && window.elapsed() >= setup_every * setup_s.len() as u32 {
            let t = Instant::now();
            let (again, id) = timed_setup();
            let (again, elapsed) = again?;
            setups_wall += t.elapsed();
            setup_s.push(elapsed);
            train_s.push(again.train_s);
            setup_roots.extend(id);
            let same = again.data == s.data
                && again.model == s.model
                && again.train_ledger == s.train_ledger;
            out.checks
                .record(ensure(same, || "set-up is not deterministic".into()));
            continue;
        }
        let b = i % batches.len();
        i += 1;
        let served =
            out.checks
                .record(request(&s.server, &batches[b]).and_then(|(p, lat, sim)| {
                    let want = expected[b].get_or_insert_with(|| p.clone());
                    ensure(p == *want, || {
                        format!("request on batch {b} predicted differently")
                    })?;
                    let want_sim = *request_sim.get_or_insert(sim);
                    ensure(sim == want_sim, || {
                        format!("simulated request time {sim} differs from {want_sim}")
                    })?;
                    Ok(lat)
                }));
        let Some(lat) = served else { break };
        latency.push(lat);
        if trace {
            let want = expected[b].clone().unwrap_or_default();
            let t = out
                .checks
                .record(traced_request(&tracer, &s, &cfg, &batches[b], &want));
            let Some(t) = t else { break };
            traced.push(t);
        }
    }
    let window_s = (window.elapsed() - setups_wall).as_secs_f64();
    ensure(!latency.is_empty(), || "no request completed".into())?;

    // The served predictions must be bit-exact with the sequential
    // reference on the same rows, and cover every held-out row.
    let mut predictions = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        let checked = out.checks.record((|| {
            let want = expected[b]
                .as_ref()
                .ok_or(format!("batch {b} was never served"))?;
            let reference = s
                .server
                .predict_sequential(batch)
                .ctx("predict_sequential")?;
            ensure(reference == *want, || {
                format!("batch {b}: served predictions differ from predict_sequential")
            })?;
            Ok(want.clone())
        })());
        predictions.extend(checked.unwrap_or_default());
    }
    let labels = &s.data.test.labels[..batches.len() * REQUEST_ROWS];
    let accuracy = hdc::eval::accuracy(&predictions, labels).unwrap_or(0.0);

    let sim = request_sim.unwrap_or(0.0);
    let q = quartiles(&latency);
    let tail = tail_percentile(latency.len());
    out.info.push(format!(
        "requests {} of {REQUEST_ROWS} rows  window rows/s {:.1}  latency_ms q1/median/q3 {:.3}/{:.3}/{:.3}  {}  sim_serve_rows_per_s {:.1} rows/sim_s  set-up train_s {:?}",
        latency.len(),
        (latency.len() * REQUEST_ROWS) as f64 / window_s,
        q[0] * 1e3,
        q[1] * 1e3,
        q[2] * 1e3,
        tail.map_or("no tail percentile (fewer than 20 requests)".to_string(), |p| format!(
            "request_p{p}_ms {:.3} (n={}, {} beyond)",
            percentile(&latency, p) * 1e3,
            latency.len(),
            ((latency.len() as f64) * (1.0 - p / 100.0)).round()
        )),
        if sim > 0.0 { REQUEST_ROWS as f64 / sim } else { 0.0 },
        train_s,
    ));

    if !trace {
        out.metrics = vec![
            metric(
                "setup_s",
                median(&setup_s),
                "s",
                format!("wall, median of {SETUPS} set-ups (dataset, TPU_B train, server build)"),
            ),
            metric(
                "train_s",
                median(&train_s),
                "s",
                format!("wall, median of the {SETUPS} set-ups' Pipeline::train"),
            ),
            metric(
                "infer_rows_per_s",
                REQUEST_ROWS as f64 / median(&latency),
                "rows/s",
                "wall, request rows / median request latency",
            ),
            metric(
                "infer_p50_ms",
                median(&latency) * 1e3,
                "ms",
                format!("wall, median request latency of {}", latency.len()),
            ),
            metric(
                "sim_train_s",
                ledger_sim_s(&s.train_ledger),
                "sim_s",
                "simulated, BackendLedger phases of the set-up train",
            ),
            metric(
                "test_accuracy",
                accuracy,
                "ratio",
                "accuracy of the served held-out rows",
            ),
            metric("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB", "VmHWM"),
        ];
        return Ok(out);
    }

    let spans = tracer.spans();
    let l = &s.train_ledger;
    let mut samples: Vec<Sample> = traced.iter().map(|t| t.sample.clone()).collect();
    for sample in &mut samples {
        sample.insert("core.encode_sim_s", l.encode_s);
        sample.insert("core.update_sim_s", l.update_s);
        sample.insert("core.model_gen_sim_s", l.model_gen_s);
        sample.insert("core.infer_sim_s", l.infer_s);
    }
    let mut m = layers::median_sample(&samples);
    m.insert(
        "datasets.generate_s",
        layers::per_root_median(&spans, &setup_roots, "datasets.generate"),
    );
    m.insert(
        "nn.compile.wall_s",
        layers::per_root_median(&spans, &setup_roots, "nn.compile"),
    );
    m.insert("nn.compile.count", 2.0);
    m.insert("nn.compile.cache_hits", l.cache_hits as f64);
    let serve_s: Vec<f64> = traced
        .iter()
        .map(|t| spans[t.serve].dur_ns() as f64 * 1e-9)
        .collect();
    m.insert("trace.overhead_s", median(&serve_s) - median(&latency));
    let roots: Vec<usize> = setup_roots
        .iter()
        .copied()
        .chain(traced.iter().map(|t| t.root))
        .collect();
    m.insert("trace.coverage", layers::coverage(&spans, &roots));
    if let Some(&r) = setup_roots.first() {
        layers::push_layer_table(&mut out.info, &spans, r, &m);
    }
    if let Some(t) = traced.first() {
        layers::push_layer_table(&mut out.info, &spans, t.root, &t.sample);
    }
    out.metrics = layers::metrics(m, "request (nn.compile: per set-up)");
    out.spans = spans;
    Ok(out)
}
