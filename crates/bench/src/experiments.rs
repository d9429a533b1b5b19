//! One function per paper table/figure, each returning a [`ResultTable`].
//!
//! Accuracy columns come from functional runs at the reduced budget
//! ([`crate::reduced_budget`]); runtime columns come from the calibrated
//! analytic models at full Table I scale, using update profiles measured
//! in the functional runs.

use cpu_model::{cost, Platform};
use hd_datasets::registry;
use hd_tensor::rng::DetRng;
use hdc::Encoder;
use hyperedge::runtime;
use hyperedge::{ExecutionSetting, Pipeline};
use tpu_sim::timing::ModelDims;

use crate::report::BenchRecord;
use crate::{
    fmt_pct, fmt_speedup, functional_config, functional_dataset, paper_config, paper_workload,
    run_functional, FunctionalRun, ResultTable, PAPER_DIM,
};

/// Seed shared by all experiments so tables are mutually consistent.
const SEED: u64 = 2022;

/// Table I: the dataset inventory.
pub fn table1() -> ResultTable {
    let mut t = ResultTable::new(
        "Table I: datasets (synthetic stand-ins with identical shapes)",
        &[
            "dataset",
            "#samples",
            "#features",
            "#classes",
            "description",
        ],
    );
    for spec in registry::paper_datasets() {
        t.push_row(vec![
            spec.name.to_string(),
            spec.train_samples.to_string(),
            spec.features.to_string(),
            spec.classes.to_string(),
            spec.description.to_string(),
        ]);
    }
    t
}

/// Fig. 4: training and validation accuracy per iteration (CPU baseline,
/// 20 iterations), one column pair per dataset.
pub fn fig4() -> ResultTable {
    let mut header = vec!["iteration".to_string()];
    for spec in registry::paper_datasets() {
        header.push(format!("{}_train", spec.name));
        header.push(format!("{}_valid", spec.name));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = ResultTable::new(
        "Fig. 4: train/validation accuracy vs iteration (CPU baseline)",
        &header_refs,
    );

    let iterations = 20;
    let mut curves: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for spec in registry::paper_datasets() {
        let data = functional_dataset(&spec, SEED);
        let pipeline = Pipeline::new(functional_config().with_iterations(iterations));
        // Track validation per iteration through the tracked trainer.
        let mut rng = hd_tensor::rng::DetRng::new(pipeline.config().seed);
        let base =
            hdc::BaseHypervectors::generate(data.feature_count(), pipeline.config().dim, &mut rng);
        let encoder = hdc::NonlinearEncoder::new(base);
        let encoded_train = encoder.encode(&data.train.features).expect("encode");
        let encoded_val = encoder.encode(&data.test.features).expect("encode");
        let config = hdc::TrainConfig::new(pipeline.config().dim)
            .with_iterations(iterations)
            .with_seed(pipeline.config().seed);
        let (_, stats) = hdc::train_encoded_tracked(
            &encoded_train,
            &data.train.labels,
            data.classes,
            &config,
            Some((&encoded_val, &data.test.labels)),
        )
        .expect("training");
        let train: Vec<f64> = stats.iterations.iter().map(|i| i.train_accuracy).collect();
        let valid: Vec<f64> = stats
            .iterations
            .iter()
            .map(|i| i.validation_accuracy.unwrap_or(0.0))
            .collect();
        curves.push((train, valid));
    }

    for i in 0..iterations {
        let mut row = vec![(i + 1).to_string()];
        for (train, valid) in &curves {
            row.push(fmt_pct(train[i]));
            row.push(fmt_pct(valid[i]));
        }
        t.push_row(row);
    }
    t
}

fn functional_runs(spec: &hd_datasets::DatasetSpec) -> Vec<FunctionalRun> {
    let data = functional_dataset(spec, SEED);
    let pipeline = Pipeline::new(functional_config());
    ExecutionSetting::all()
        .into_iter()
        .map(|s| run_functional(&pipeline, &data, s))
        .collect()
}

/// Fig. 5: training-runtime breakdown per setting, normalized to the CPU
/// baseline total within each dataset.
pub fn fig5() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 5: training runtime (normalized to CPU total; paper-scale workloads)",
        &[
            "dataset",
            "setting",
            "encode",
            "update",
            "model_gen",
            "total",
            "speedup",
        ],
    );
    let config = paper_config();
    for spec in registry::paper_datasets() {
        let runs = functional_runs(&spec);
        let workload = paper_workload(&spec);
        let cpu_profile = runs[0].outcome.update_profile.clone();
        let cpu_total = runtime::training_breakdown(
            &config,
            &workload,
            ExecutionSetting::CpuBaseline,
            &cpu_profile,
        )
        .total_s();
        for run in &runs {
            // Each setting uses its own measured profile (bagging's covers
            // its shorter sub-model schedule).
            let b = runtime::training_breakdown(
                &config,
                &workload,
                run.setting,
                &run.outcome.update_profile,
            );
            t.push_row(vec![
                spec.name.to_string(),
                run.setting.label().to_string(),
                format!("{:.3}", b.encode_s / cpu_total),
                format!("{:.3}", b.update_s / cpu_total),
                format!("{:.3}", b.model_gen_s / cpu_total),
                format!("{:.3}", b.total_s() / cpu_total),
                fmt_speedup(cpu_total / b.total_s()),
            ]);
        }
    }
    t
}

/// Fig. 6: inference runtime per setting, normalized to the CPU baseline
/// within each dataset.
pub fn fig6() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 6: inference runtime (normalized to CPU; paper-scale workloads)",
        &["dataset", "setting", "normalized", "speedup"],
    );
    let config = paper_config();
    for spec in registry::paper_datasets() {
        let workload = paper_workload(&spec);
        let cpu = runtime::inference_time_s(&config, &workload, ExecutionSetting::CpuBaseline);
        for setting in ExecutionSetting::all() {
            let time = runtime::inference_time_s(&config, &workload, setting);
            t.push_row(vec![
                spec.name.to_string(),
                setting.label().to_string(),
                format!("{:.3}", time / cpu),
                fmt_speedup(cpu / time),
            ]);
        }
    }
    t
}

/// Fig. 7: inference accuracy per setting (functional runs through the
/// full simulated stack, so the accelerator settings include real int8
/// quantization error).
pub fn fig7() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 7: inference accuracy per framework setting",
        &["dataset", "CPU", "TPU", "TPU_B"],
    );
    for spec in registry::paper_datasets() {
        let runs = functional_runs(&spec);
        t.push_row(vec![
            spec.name.to_string(),
            fmt_pct(runs[0].accuracy),
            fmt_pct(runs[1].accuracy),
            fmt_pct(runs[2].accuracy),
        ]);
    }
    t
}

/// Fig. 8: bagging sampling-ratio search on the ISOLET-shaped workload —
/// accuracy plus training runtime normalized to `alpha = beta = 1`.
pub fn fig8() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 8: bagging parameter search on ISOLET (I' = 6)",
        &["alpha", "beta", "accuracy", "norm_runtime"],
    );
    let spec = registry::by_name("isolet").expect("registered");
    let data = functional_dataset(&spec, SEED);
    let workload = paper_workload(&spec);
    let paper_cfg = paper_config();

    let mut baseline_runtime = None;
    // Sweep alpha at beta = 1 and beta at alpha = 0.6, plus the corners,
    // matching the paper's two panels.
    let mut points: Vec<(f64, f64)> = vec![(1.0, 1.0)];
    for &a in &[0.2, 0.4, 0.6, 0.8] {
        points.push((a, 1.0));
    }
    for &b in &[0.8, 0.6, 0.4] {
        points.push((0.6, b));
    }

    for (alpha, beta) in points {
        let bagging = hd_bagging::BaggingConfig::paper_defaults(functional_config().dim)
            .with_dataset_ratio(alpha)
            .with_feature_ratio(beta)
            .with_seed(SEED);
        let pipeline_cfg = functional_config().with_bagging(bagging.clone());
        let pipeline = Pipeline::new(pipeline_cfg);
        let run = run_functional(&pipeline, &data, ExecutionSetting::TpuBagging);

        // Paper-scale runtime with the measured profile, at paper dim.
        let paper_bagging = hd_bagging::BaggingConfig::paper_defaults(PAPER_DIM)
            .with_dataset_ratio(alpha)
            .with_feature_ratio(beta);
        let breakdown = runtime::tpu_bagging_training(
            &paper_cfg.device,
            &paper_cfg.platform.spec(),
            &workload,
            &paper_bagging,
            &run.outcome.update_profile,
            paper_cfg.encode_batch,
        );
        let total = breakdown.total_s();
        let base = *baseline_runtime.get_or_insert(total);
        t.push_row(vec![
            format!("{alpha:.1}"),
            format!("{beta:.1}"),
            fmt_pct(run.accuracy),
            format!("{:.3}", total / base),
        ]);
    }
    t
}

/// Fig. 9: bagging iteration-count search on the ISOLET-shaped workload
/// (`alpha = 0.6`, `beta = 1`), runtime normalized to 8 iterations.
pub fn fig9() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 9: bagging iterations search on ISOLET (alpha = 0.6, beta = 1)",
        &["iterations", "accuracy", "norm_update_runtime"],
    );
    let spec = registry::by_name("isolet").expect("registered");
    let data = functional_dataset(&spec, SEED);
    let workload = paper_workload(&spec);
    let paper_cfg = paper_config();

    let mut rows = Vec::new();
    for iters in 3..=8usize {
        let bagging = hd_bagging::BaggingConfig::paper_defaults(functional_config().dim)
            .with_iterations(iters)
            .with_seed(SEED);
        let pipeline = Pipeline::new(functional_config().with_bagging(bagging));
        let run = run_functional(&pipeline, &data, ExecutionSetting::TpuBagging);

        let paper_bagging =
            hd_bagging::BaggingConfig::paper_defaults(PAPER_DIM).with_iterations(iters);
        let breakdown = runtime::tpu_bagging_training(
            &paper_cfg.device,
            &paper_cfg.platform.spec(),
            &workload,
            &paper_bagging,
            &run.outcome.update_profile,
            paper_cfg.encode_batch,
        );
        rows.push((iters, run.accuracy, breakdown.update_s));
    }
    let base = rows.last().expect("six rows").2;
    for (iters, acc, update_s) in rows {
        t.push_row(vec![
            iters.to_string(),
            fmt_pct(acc),
            format!("{:.3}", update_s / base),
        ]);
    }
    t
}

/// Fig. 10: encoding speedup of the accelerator over the host CPU vs the
/// number of input features (synthetic sweep, `d = 10000`).
pub fn fig10() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. 10: encoding speedup vs number of input features (d = 10000)",
        &["features", "cpu_per_sample", "tpu_per_sample", "speedup"],
    );
    let cfg = paper_config();
    let host = cfg.platform.spec();
    let samples = 10_000usize;
    for &n in &[20, 50, 100, 200, 300, 400, 500, 600, 700] {
        let cpu_s = cost::encode_s(&host, samples, n, PAPER_DIM);
        let dims = ModelDims::encoder(n, PAPER_DIM);
        let tpu_s = runtime::serial_device_s(&cfg.device, &dims, samples, cfg.encode_batch)
            + cost::quantize_s(&host, samples * n)
            + cost::quantize_s(&host, samples * PAPER_DIM);
        t.push_row(vec![
            n.to_string(),
            format!("{:.1}us", cpu_s / samples as f64 * 1e6),
            format!("{:.1}us", tpu_s / samples as f64 * 1e6),
            fmt_speedup(cpu_s / tpu_s),
        ]);
    }
    t
}

/// Table II: training and inference speedup of the co-designed framework
/// (with bagging) over an embedded Cortex-A53 running the CPU baseline.
pub fn table2() -> ResultTable {
    let mut t = ResultTable::new(
        "Table II: framework (TPU) vs Raspberry-Pi-3-class Cortex-A53 CPU",
        &["dataset", "training", "inference"],
    );
    let tpu_cfg = paper_config();
    let pi_cfg = paper_config().with_platform(Platform::CortexA53);
    for spec in registry::paper_datasets() {
        let runs = functional_runs(&spec);
        let workload = paper_workload(&spec);
        let pi_train = runtime::training_breakdown(
            &pi_cfg,
            &workload,
            ExecutionSetting::CpuBaseline,
            &runs[0].outcome.update_profile,
        )
        .total_s();
        let our_train = runtime::training_breakdown(
            &tpu_cfg,
            &workload,
            ExecutionSetting::TpuBagging,
            &runs[2].outcome.update_profile,
        )
        .total_s();
        let pi_infer = runtime::inference_time_s(&pi_cfg, &workload, ExecutionSetting::CpuBaseline);
        let our_infer = runtime::inference_time_s(&tpu_cfg, &workload, ExecutionSetting::Tpu);
        t.push_row(vec![
            spec.name.to_string(),
            fmt_speedup(pi_train / our_train),
            fmt_speedup(pi_infer / our_infer),
        ]);
    }
    t
}

/// `fig_fault`: accuracy of the deployed inference model under SRAM
/// weight upsets, with the runtime's fault detection and recovery off
/// ("silent") vs on ("resilient").
///
/// Both columns sweep the same per-weight-bit fault rate. The silent
/// column corrupts the resident weights behind the runtime's back
/// ([`tpu_sim::Device::inject_weight_faults`]) and accuracy decays with
/// the rate. The resilient column routes the same physical rate through
/// the detected-fault model (parity-checked weight SRAM): an invoke
/// observes an upset with probability `1 - (1 - rate)^bits`, and the
/// backend's retry / pristine-reload / CPU-fallback policy recovers, so
/// accuracy holds at the fault-free level while the ledger columns count
/// the price paid on the simulated clock.
pub fn fig_fault() -> ResultTable {
    let mut t = ResultTable::new(
        "Fig. fault: weight-fault rate vs accuracy — silent vs detected + recovered (ISOLET)",
        &[
            "fault_rate",
            "silent_int8",
            "resilient",
            "faults",
            "retries",
            "fallbacks",
            "backoff_ms",
        ],
    );
    let spec = registry::by_name("isolet").expect("registered");
    let data = functional_dataset(&spec, SEED);

    // Train once, fault-free, through the accelerator; every row then
    // deploys this same model.
    let clean = Pipeline::new(functional_config());
    let outcome = clean
        .train(
            &data.train.features,
            &data.train.labels,
            data.classes,
            ExecutionSetting::Tpu,
        )
        .expect("training succeeds");

    // Deployed inference network, compiled once for the silent sweep.
    let network = hyperedge::wide_model::inference_network(&outcome.model).expect("network");
    let compiled = wide_nn::compile::compile(
        &network,
        &data.train.features,
        &wide_nn::TargetSpec::default(),
    )
    .expect("compile");
    let device = tpu_sim::Device::new(tpu_sim::DeviceConfig::default());

    // Weight bits resident on the device, for the detection probability.
    let dim = outcome.model.dim();
    let bits = 8.0 * (data.feature_count() * dim + dim * data.classes) as f64;

    for &rate in &[0.0f64, 0.0001, 0.0005, 0.001, 0.005, 0.01] {
        // Silent: reload pristine weights, flip bits without telling the
        // runtime, and invoke as if nothing happened.
        device.load_model(compiled.clone()).expect("load");
        let mut rng = DetRng::new(SEED ^ (rate * 1e7) as u64);
        device.inject_weight_faults(rate, &mut rng).expect("inject");
        let (scores, _) = device
            .invoke_overlapped(&data.test.features)
            .expect("invoke");
        let preds: Vec<usize> = (0..scores.rows())
            .map(|r| hd_tensor::ops::argmax(scores.row(r)).expect("non-empty"))
            .collect();
        let silent = hdc::eval::accuracy(&preds, &data.test.labels).expect("accuracy");

        // Resilient: the same physical rate, but upsets are detected
        // (parity) and the backend retries / reloads / falls back.
        let p_detect = 1.0 - (1.0 - rate).powf(bits);
        let mut cfg = functional_config();
        cfg.device.fault = tpu_sim::FaultConfig::default()
            .with_seed(SEED ^ (rate * 1e7) as u64)
            .with_weight_upset_rate(p_detect);
        let faulted = Pipeline::new(cfg);
        let before = faulted.backend(ExecutionSetting::Tpu).ledger();
        let report = faulted
            .infer(&outcome.model, &data.test.features, ExecutionSetting::Tpu)
            .expect("infer");
        let ledger = faulted
            .backend(ExecutionSetting::Tpu)
            .ledger()
            .delta_since(&before);
        let resilient =
            hdc::eval::accuracy(&report.predictions, &data.test.labels).expect("accuracy");

        t.push_row(vec![
            format!("{rate:.4}"),
            fmt_pct(silent),
            fmt_pct(resilient),
            ledger.faults_observed.to_string(),
            ledger.retries.to_string(),
            ledger.fallbacks.to_string(),
            format!("{:.1}", ledger.backoff_s * 1e3),
        ]);
    }
    t
}

/// Shape of the transfer-bound encode workload the `fig_pipeline`
/// simulated sweep runs: wide enough that the host-link payload, not the
/// MXU, is the bottleneck, so the double-buffered schedule has transfer
/// time to hide compute behind.
pub const PIPELINE_FEATURES: usize = 1024;
/// Hypervector width of the `fig_pipeline` encode workload (the largest
/// encoder that fits the default 8 MiB parameter buffer).
pub const PIPELINE_DIM: usize = 7680;
/// Per-invoke chunk rows for the `fig_pipeline` sweep.
pub const PIPELINE_CHUNK: usize = 32;

/// `fig_pipeline`: measured gains of the pipelined execution schedules.
///
/// Two independent overlaps, two rows:
///
/// 1. **Simulated clock** — a transfer-bound encode batch runs chunk by
///    chunk through [`tpu_sim::Device::invoke_overlapped`]
///    (double-buffered; per chunk the critical-path max), read off the
///    device timing ledger. The serial column is the same invocations'
///    legs run back to back
///    ([`tpu_sim::InvokeStats::serial_elapsed_s`]: DMA → compute → DMA
///    per chunk).
/// 2. **Wall clock** — the paper's `M = 4` bagged members train on the
///    host sequentially vs. on worker threads
///    ([`hd_bagging::train_members_parallel`]), with the tensor kernels
///    capped to one thread so only member-level parallelism is measured.
///    Models are asserted bit-identical to the sequential run.
///
/// Returns the human table plus the machine-readable report the
/// `fig_pipeline` binary writes to `BENCH_pipeline.json`.
///
/// # Panics
///
/// Panics on any pipeline/device error, or if parallel member training
/// fails to reproduce the sequential models bit-exactly.
pub fn fig_pipeline_report() -> (ResultTable, BenchRecord) {
    let smoke = crate::smoke_mode();
    let mut t = ResultTable::new(
        "Fig. pipeline: overlapped DMA/compute + parallel bagged training",
        &["workload", "sequential", "pipelined", "speedup"],
    );

    // --- 1. simulated: overlapped DMA/compute on the device ----------
    let samples = if smoke { 64 } else { 128 };
    let mut rng = DetRng::new(SEED);
    let network = wide_nn::ModelBuilder::new(PIPELINE_FEATURES)
        .fully_connected(hd_tensor::Matrix::random_normal(
            PIPELINE_FEATURES,
            PIPELINE_DIM,
            &mut rng,
        ))
        .expect("layer shape")
        .activation(wide_nn::Activation::Tanh)
        .build()
        .expect("encoder network");
    let batch = hd_tensor::Matrix::random_normal(samples, PIPELINE_FEATURES, &mut rng);
    let compiled = wide_nn::compile::compile(&network, &batch, &wide_nn::TargetSpec::default())
        .expect("compile");

    let device = tpu_sim::Device::new(tpu_sim::DeviceConfig::default());
    device.load_model(compiled).expect("load");
    let before = device.ledger().total_s;
    let mut simulated_serial_s = 0.0;
    for start in (0..samples).step_by(PIPELINE_CHUNK) {
        let part = batch
            .slice_rows(start, (start + PIPELINE_CHUNK).min(samples))
            .expect("chunk rows");
        let (_, stats) = device.invoke_overlapped(&part).expect("invoke");
        simulated_serial_s += stats.serial_elapsed_s();
    }
    let simulated_pipelined_s = device.ledger().total_s - before;
    let simulated_speedup = simulated_serial_s / simulated_pipelined_s;
    t.push_row(vec![
        format!("device encode {samples}x{PIPELINE_FEATURES}->d={PIPELINE_DIM} (simulated)"),
        crate::fmt_secs(simulated_serial_s),
        crate::fmt_secs(simulated_pipelined_s),
        fmt_speedup(simulated_speedup),
    ]);

    // --- 2. wall clock: parallel bagged member training on the host --
    let (rows, feats, bag_dim, classes) = if smoke {
        (400, 64, 1024, 5)
    } else {
        (1200, 96, 2048, 6)
    };
    let mut rng = DetRng::new(SEED ^ 0x9176);
    let mut data = hd_tensor::Matrix::random_normal(rows, feats, &mut rng);
    let labels: Vec<usize> = (0..rows).map(|i| i % classes).collect();
    for (i, &l) in labels.iter().enumerate() {
        data.row_mut(i)[l] += 3.0;
    }
    let bag_cfg = hd_bagging::BaggingConfig::paper_defaults(bag_dim);
    let threads = hd_tensor::gemm::available_threads().clamp(2, 4);

    // Cap the tensor kernels to one thread so the measurement isolates
    // member-level parallelism from intra-matmul parallelism.
    hd_tensor::gemm::set_thread_cap(1);
    let timed_train = |member_threads: usize| {
        let specs = hd_bagging::bagged_member_specs(rows, feats, &bag_cfg).expect("specs");
        let start = std::time::Instant::now();
        let out = hd_bagging::train_members_parallel(
            &data,
            &labels,
            classes,
            specs,
            &hdc::HostExecutor,
            hd_bagging::MemberRecovery::Fail,
            member_threads,
        )
        .expect("bagged training");
        (start.elapsed().as_secs_f64(), out)
    };
    // Best-of-3 on each schedule to shed scheduler noise; the first
    // sequential run doubles as warmup.
    let mut wall_sequential_s = f64::INFINITY;
    let mut wall_parallel_s = f64::INFINITY;
    let (_, (seq_model, seq_stats)) = timed_train(1);
    for _ in 0..3 {
        wall_sequential_s = wall_sequential_s.min(timed_train(1).0);
        let (elapsed, (par_model, par_stats)) = timed_train(threads);
        wall_parallel_s = wall_parallel_s.min(elapsed);
        assert_eq!(
            par_model, seq_model,
            "parallel member training must be bit-exact"
        );
        assert_eq!(par_stats, seq_stats);
    }
    hd_tensor::gemm::set_thread_cap(0);
    let wall_speedup = wall_sequential_s / wall_parallel_s;
    t.push_row(vec![
        format!("bagged M=4 members, {threads} threads (wall-clock)"),
        crate::fmt_secs(wall_sequential_s),
        crate::fmt_secs(wall_parallel_s),
        fmt_speedup(wall_speedup),
    ]);

    let record = BenchRecord::new("pipeline", smoke)
        .field("threads", threads.to_string())
        .field("simulated_serial_s", format!("{simulated_serial_s:.9}"))
        .field(
            "simulated_pipelined_s",
            format!("{simulated_pipelined_s:.9}"),
        )
        .field("simulated_speedup", format!("{simulated_speedup:.4}"))
        .field("wall_sequential_s", format!("{wall_sequential_s:.6}"))
        .field("wall_parallel_s", format!("{wall_parallel_s:.6}"))
        .field("wall_speedup", format!("{wall_speedup:.4}"));
    (t, record)
}

/// `fig_pipeline`: the table half of [`fig_pipeline_report`].
pub fn fig_pipeline() -> ResultTable {
    fig_pipeline_report().0
}

/// Executes one declared SDF graph through the generic runtime with
/// do-nothing executors (each firing emits exactly the token counts the
/// graph declares) and returns `(predicted_s, measured_s)`: the solved
/// critical path for `iterations` steady-state iterations against the
/// elapsed time the runtime measures from observed firings.
fn run_declared_schedule(graph: hd_dataflow::SdfGraph, iterations: u64) -> (f64, f64) {
    use hd_dataflow::runtime::{Binding, ExecutablePlan, Fire, Supervised, Supervision};
    let plan = ExecutablePlan::validate(graph).expect("production schedule validates");
    let predicted =
        hd_dataflow::solve::critical_path_s(plan.graph(), plan.repetition()) * iterations as f64;
    let bindings: Vec<Binding<'static, (), std::convert::Infallible>> = plan
        .graph()
        .stages()
        .iter()
        .enumerate()
        .map(|(s, _)| {
            let produce: usize = plan
                .graph()
                .channels()
                .iter()
                .filter(|c| c.from.index() == s)
                .map(|c| c.produce)
                .sum();
            Supervised::map(Supervision::none(), move |_, _| {
                Ok((vec![(); produce], Fire::Continue))
            })
            .into_binding()
        })
        .collect();
    let report = hd_dataflow::runtime::run(&plan, iterations, bindings)
        .expect("no-op executors cannot fail");
    assert!(report.completed, "schedule wound down early");
    (predicted, report.measured_elapsed_s(plan.graph()))
}

/// `fig_schedule` plus its machine-readable report: every production SDF
/// declaration executed by the generic runtime, with the runtime's
/// measured elapsed pinned against the analyzer's predicted critical
/// path, and the two-device serving schedule's simulated gain over
/// serializing both devices.
///
/// # Panics
///
/// Panics on any schedule/device error, if a runtime measurement drifts
/// from its prediction, or if the pipelined serve fails to reproduce the
/// sequential predictions bit-exactly.
pub fn fig_schedule_report() -> (ResultTable, BenchRecord) {
    let smoke = crate::smoke_mode();
    let mut t = ResultTable::new(
        "Fig. schedule: declared SDF graphs executed by the generic runtime",
        &["schedule", "predicted", "measured", "|delta|"],
    );

    // --- 1. every production declaration through the runtime ---------
    let cfg = tpu_sim::DeviceConfig::default();
    let samples = if smoke { 32 } else { PIPELINE_CHUNK };
    let iterations = if smoke { 4 } else { 16 };
    let dims = ModelDims::encoder(PIPELINE_FEATURES, PIPELINE_DIM);
    let score_dims = ModelDims::encoder(PIPELINE_DIM, 16);
    let members = if smoke { 4 } else { 8 };
    let schedules = [
        (
            "overlapped-invoke",
            hyperedge::schedule::overlapped_invoke_graph(&cfg, &dims, samples),
            iterations,
        ),
        (
            "parallel-members",
            hd_bagging::members_graph(members, 1e-3),
            1,
        ),
        (
            "two-device-serve",
            hyperedge::schedule::encode_score_graph(&cfg, &dims, &score_dims, samples),
            iterations,
        ),
    ];
    let mut pairs = Vec::with_capacity(schedules.len());
    let mut max_abs_delta_s = 0.0f64;
    for (name, graph, iters) in schedules {
        let (predicted, measured) = run_declared_schedule(graph, iters);
        let delta = (measured - predicted).abs();
        assert!(
            delta < 1e-9,
            "{name}: runtime measurement drifted from the declared prediction \
             ({measured} vs {predicted})"
        );
        max_abs_delta_s = max_abs_delta_s.max(delta);
        t.push_row(vec![
            name.to_string(),
            crate::fmt_secs(predicted),
            crate::fmt_secs(measured),
            format!("{delta:.3e}"),
        ]);
        pairs.push((predicted, measured));
    }

    // --- 2. two-device serving on real simulated devices -------------
    let (rows, feats, dim, classes) = if smoke {
        (96, 24, 256, 3)
    } else {
        (256, 48, 1024, 4)
    };
    let mut rng = DetRng::new(SEED ^ 0x5E12);
    let mut features = hd_tensor::Matrix::random_normal(rows, feats, &mut rng);
    let labels: Vec<usize> = (0..rows).map(|i| i % classes).collect();
    for (i, &l) in labels.iter().enumerate() {
        features.row_mut(i)[l] += 3.0;
    }
    let train = hdc::TrainConfig::new(dim)
        .with_iterations(3)
        .with_seed(SEED);
    let (model, _) = hdc::HdcModel::fit(&features, &labels, classes, &train).expect("fit");
    let pipe_cfg = hyperedge::PipelineConfig::new(dim).with_batches(64, 16);
    let server = hyperedge::TwoDeviceServer::new(&model, &pipe_cfg, &features).expect("server");
    let reference = hyperedge::TwoDeviceServer::new(&model, &pipe_cfg, &features).expect("server");
    let pipelined_preds = server.predict(&features).expect("pipelined serve");
    let sequential_preds = reference
        .predict_sequential(&features)
        .expect("sequential serve");
    assert_eq!(
        pipelined_preds, sequential_preds,
        "two-device serve must be bit-exact with the sequential reference"
    );
    let serve_pipelined_s = server.measured_elapsed_s();
    let serve_serial_s =
        reference.encode_device().ledger().total_s + reference.score_device().ledger().total_s;
    let serve_speedup = serve_serial_s / serve_pipelined_s;
    t.push_row(vec![
        format!("serve {rows}x{feats}->d={dim} (two devices, simulated)"),
        crate::fmt_secs(serve_serial_s),
        crate::fmt_secs(serve_pipelined_s),
        fmt_speedup(serve_speedup),
    ]);

    let mut record = BenchRecord::new("schedule", smoke);
    for (name, (predicted, measured)) in ["overlapped_invoke", "parallel_members", "two_device"]
        .iter()
        .zip(&pairs)
    {
        record = record
            .field(&format!("{name}_predicted_s"), format!("{predicted:.12}"))
            .field(&format!("{name}_measured_s"), format!("{measured:.12}"));
    }
    let record = record
        .field("max_abs_delta_s", format!("{max_abs_delta_s:.15}"))
        .field("serve_serial_s", format!("{serve_serial_s:.9}"))
        .field("serve_pipelined_s", format!("{serve_pipelined_s:.9}"))
        .field("serve_speedup", format!("{serve_speedup:.4}"));
    (t, record)
}

/// `fig_schedule`: the table half of [`fig_schedule_report`].
pub fn fig_schedule() -> ResultTable {
    fig_schedule_report().0
}

/// `fig_resilience` plus its machine-readable report: the supervised
/// two-device server swept over injected transient-fault rates. Every
/// run must come back bit-exact with the fault-free reference — faults
/// are only allowed to cost time (retries and backoff on the simulated
/// clock), never correctness — and the fault-free supervised path must
/// match the declared schedule's analytic prediction, so failover adds
/// bounded overhead at 0% faults.
///
/// # Panics
///
/// Panics on any training/serving error, if any faulted run's
/// predictions drift from the fault-free reference, or if a fault-free
/// supervised serve reports non-zero fault counters.
pub fn fig_resilience_report() -> (ResultTable, BenchRecord) {
    let smoke = crate::smoke_mode();
    let mut t = ResultTable::new(
        "Fig. resilience: recovered serve throughput vs injected fault rate",
        &[
            "fault rate",
            "elapsed",
            "throughput",
            "faults/retries/rebinds",
        ],
    );

    let (rows, feats, dim, classes) = if smoke {
        (96, 24, 256, 3)
    } else {
        (256, 48, 1024, 4)
    };
    let mut rng = DetRng::new(SEED ^ 0x4E51);
    let mut features = hd_tensor::Matrix::random_normal(rows, feats, &mut rng);
    let labels: Vec<usize> = (0..rows).map(|i| i % classes).collect();
    for (i, &l) in labels.iter().enumerate() {
        features.row_mut(i)[l] += 3.0;
    }
    let train = hdc::TrainConfig::new(dim)
        .with_iterations(3)
        .with_seed(SEED);
    let (model, _) = hdc::HdcModel::fit(&features, &labels, classes, &train).expect("fit");
    let pipe_cfg = hyperedge::PipelineConfig::new(dim).with_batches(64, 16);

    let reference = hyperedge::TwoDeviceServer::new(&model, &pipe_cfg, &features).expect("server");
    let expected = reference
        .predict_sequential(&features)
        .expect("sequential reference");
    let predicted_s = reference
        .predicted_elapsed_s(rows)
        .expect("declared schedule predicts");

    // One supervised serve per injected transient-fault rate. Elapsed is
    // the busiest device's simulated busy time plus every retry's
    // deterministic backoff — the full price of recovery on the
    // simulated clock.
    let rates = [0.0, 0.02, 0.10, 0.30];
    let mut throughputs = [0.0f64; 4];
    let mut total_faults = 0u64;
    for (i, &rate) in rates.iter().enumerate() {
        let mut cfg = pipe_cfg.clone();
        cfg.device.fault = tpu_sim::FaultConfig::default()
            .with_seed(SEED ^ 0xFA17)
            .with_transient_rate(rate);
        let server = hyperedge::TwoDeviceServer::with_spares(&model, &cfg, &features, 1)
            .expect("pooled server");
        let outcome = server
            .predict_supervised(&features)
            .expect("supervised serve");
        let report = outcome.report();
        assert_eq!(
            report.predictions, expected,
            "rate {rate}: failover must recover bit-exact predictions"
        );
        let (faults, retries, rebinds, backoff_s) =
            report.supervision.iter().fold((0, 0, 0, 0.0), |acc, s| {
                (
                    acc.0 + s.faults,
                    acc.1 + s.retries,
                    acc.2 + s.rebinds,
                    acc.3 + s.backoff_s,
                )
            });
        if i == 0 {
            assert_eq!(
                (faults, retries, rebinds),
                (0, 0, 0),
                "fault-free supervision must be inert"
            );
        } else {
            total_faults += faults;
        }
        let elapsed = server.measured_elapsed_s() + backoff_s;
        throughputs[i] = rows as f64 / elapsed;
        t.push_row(vec![
            format!("{:.0}%", rate * 100.0),
            crate::fmt_secs(elapsed),
            format!("{:.0} rows/s", throughputs[i]),
            format!("{faults}/{retries}/{rebinds}"),
        ]);
    }

    let supervised_clean_s = rows as f64 / throughputs[0];
    let min_recovered_frac = throughputs
        .iter()
        .skip(1)
        .fold(f64::INFINITY, |m, &x| m.min(x))
        / throughputs[0];
    let mut record = BenchRecord::new("resilience", smoke)
        .field("rows", rows.to_string())
        .field("predicted_s", format!("{predicted_s:.12}"))
        .field("supervised_clean_s", format!("{supervised_clean_s:.12}"))
        .field(
            "zero_fault_overhead",
            format!("{:.6}", supervised_clean_s / predicted_s),
        );
    for (name, throughput) in ["clean", "2pct", "10pct", "30pct"].iter().zip(&throughputs) {
        record = record.field(&format!("throughput_{name}"), format!("{throughput:.3}"));
    }
    let record = record
        .field("min_recovered_frac", format!("{min_recovered_frac:.6}"))
        .field("total_faults", total_faults.to_string());
    (t, record)
}

/// `fig_resilience`: the table half of [`fig_resilience_report`].
pub fn fig_resilience() -> ResultTable {
    fig_resilience_report().0
}

/// Best-of-`reps` wall-clock of `f`, with one untimed warmup call that
/// also yields the returned value (so callers can cross-check results
/// without timing the check).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let _ = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// A deterministic ±1 sign vector (P(+1) = 0.5 per component).
fn sign_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.next_f32() < 0.5 { -1.0 } else { 1.0 })
        .collect()
}

/// A deterministic `i8` operand in the quantized datapath's full
/// `[-127, 127]` range.
fn i8_vec(rng: &mut DetRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| i8::try_from(rng.next_index(255) as i64 - 127).expect("value is in [-127, 127]"))
        .collect()
}

/// `fig_kernels` plus its machine-readable report: honest wall-clock
/// microbenchmarks of the host kernels behind the packed bipolar and
/// quantized datapaths, each pinned bit-exact against its scalar
/// reference before the timings are trusted:
///
/// 1. batch scoring — packed XOR+popcount Hamming scan
///    ([`hd_tensor::packed::PackedClassHypervectors::predict_batch`])
///    vs the former `f32` GEMM + argmax path, at the paper's bagged
///    width (`d` = 7680, 26 ISOLET classes);
/// 2. `i8` GEMM — the runtime-dispatched kernel
///    ([`hd_tensor::gemm::matmul_i8_i32`]: pack `b`, then the VNNI or
///    AVX2 tile where the host has one) vs the naive triple loop, at the
///    encode shape (features × `d`);
/// 3. `f32` GEMM — the packed register-tiled kernel
///    ([`hd_tensor::gemm::matmul`]) vs the naive triple loop
///    ([`hd_tensor::gemm::matmul_reference`]) at the same shape,
///    bit-identical because both sum in ascending order;
/// 4. majority bundling — vertical bit-sliced counters
///    ([`hd_tensor::packed::majority_bundle`]) over 33 packed vectors.
///
/// All numbers are best-of-3 wall-clock on the current host — no
/// simulated clocks are involved, so this is the one figure whose
/// absolute values vary by machine (CI gates the *ratios*, which are
/// representation properties, with generous margins).
///
/// # Panics
///
/// Panics if any fast kernel disagrees with its scalar reference, or on
/// shape errors (all shapes are constructed consistently here).
pub fn fig_kernels_report() -> (ResultTable, BenchRecord) {
    use hd_tensor::packed::{
        majority_bundle, majority_bundle_reference, PackedBipolar, PackedClassHypervectors,
    };
    use hd_tensor::{gemm, ops, Matrix};

    let smoke = crate::smoke_mode();
    let (dim, rows, classes) = if smoke {
        (1024, 48, 8)
    } else {
        (7680, 256, 26)
    };
    let (gemm_m, gemm_k, gemm_n) = if smoke {
        (24, 48, 512)
    } else {
        (96, 192, 7680)
    };
    let bundle_vectors = 33;
    let mut rng = DetRng::new(SEED);

    // --- 1. packed vs f32-GEMM batch scoring --------------------------
    // Both representations are prepared outside the timed region: the
    // float path scores a resident class matrix, the packed path scores
    // resident packed classes — the comparison is scoring only.
    let query_rows: Vec<Vec<f32>> = (0..rows).map(|_| sign_vec(&mut rng, dim)).collect();
    let class_cols: Vec<Vec<f32>> = (0..classes).map(|_| sign_vec(&mut rng, dim)).collect();
    let encoded = Matrix::from_rows(&query_rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        .expect("query rows are rectangular");
    let class_matrix = Matrix::from_fn(dim, classes, |i, j| class_cols[j][i]);
    let packed_classes = PackedClassHypervectors::from_sign_rows(
        &class_cols.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    )
    .expect("class rows are rectangular");
    let queries: Vec<PackedBipolar> = query_rows
        .iter()
        .map(|r| PackedBipolar::from_signs(r))
        .collect();

    let (scalar_score_s, scalar_preds) = best_of(3, || {
        let scores = gemm::matmul(&encoded, &class_matrix).expect("scoring shapes agree");
        (0..scores.rows())
            .map(|r| ops::argmax(scores.row(r)).expect("class row is non-empty"))
            .collect::<Vec<_>>()
    });
    let (packed_score_s, packed_preds) = best_of(3, || {
        packed_classes
            .predict_batch(&queries)
            .expect("scoring shapes agree")
    });
    assert_eq!(
        packed_preds, scalar_preds,
        "packed scoring must be bit-exact with the f32 GEMM path"
    );
    let packed_speedup = scalar_score_s / packed_score_s;

    // --- 2. dispatched vs naive i8 GEMM -------------------------------
    let a_i8 = i8_vec(&mut rng, gemm_m * gemm_k);
    let b_i8 = i8_vec(&mut rng, gemm_k * gemm_n);
    let (simd_gemm_s, simd_out) = best_of(3, || {
        gemm::matmul_i8_i32(&a_i8, &b_i8, gemm_m, gemm_k, gemm_n).expect("gemm shapes agree")
    });
    let (naive_gemm_s, naive_out) = best_of(3, || {
        gemm::matmul_i8_i32_reference(&a_i8, &b_i8, gemm_m, gemm_k, gemm_n)
            .expect("gemm shapes agree")
    });
    assert_eq!(
        simd_out, naive_out,
        "dispatched i8 GEMM must be bit-exact with the naive reference"
    );
    let gemm_ops = 2.0 * gemm_m as f64 * gemm_k as f64 * gemm_n as f64;
    let simd_gemm_gops = gemm_ops / simd_gemm_s / 1e9;
    let naive_gemm_gops = gemm_ops / naive_gemm_s / 1e9;
    let gemm_speedup = naive_gemm_s / simd_gemm_s;
    let i8_kernel = hd_tensor::kernels::i8_gemm_kernel_name().to_string();
    let f32_kernel = hd_tensor::kernels::f32_gemm_kernel_name();

    // --- 3. packed vs naive f32 GEMM ----------------------------------
    let a_f32 = Matrix::random_normal(gemm_m, gemm_k, &mut rng);
    let b_f32 = Matrix::random_normal(gemm_k, gemm_n, &mut rng);
    let (f32_gemm_s, f32_out) = best_of(3, || {
        gemm::matmul(&a_f32, &b_f32).expect("gemm shapes agree")
    });
    let (f32_reference_s, f32_reference) = best_of(3, || {
        gemm::matmul_reference(&a_f32, &b_f32).expect("gemm shapes agree")
    });
    assert!(
        f32_out
            .iter()
            .zip(f32_reference.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "packed f32 GEMM must be bit-identical to the naive reference"
    );
    let f32_gemm_speedup = f32_reference_s / f32_gemm_s;

    // --- 4. vertical-counter majority bundling ------------------------
    let members: Vec<PackedBipolar> = (0..bundle_vectors)
        .map(|_| PackedBipolar::from_signs(&sign_vec(&mut rng, dim)))
        .collect();
    let (bundle_s, bundled) = best_of(3, || {
        majority_bundle(&members).expect("bundle members share a dimension")
    });
    assert_eq!(
        bundled,
        majority_bundle_reference(&members).expect("bundle members share a dimension"),
        "vertical-counter bundling must match the scalar majority"
    );
    let bundle_bytes = (bundle_vectors * members[0].words().len() * 8) as f64;
    let bundle_gib_s = bundle_bytes / bundle_s / (1024.0 * 1024.0 * 1024.0);

    let mut t = ResultTable::new(
        "Fig. kernels: packed/SIMD host kernels vs scalar references (wall-clock)",
        &["kernel", "scalar", "fast", "speedup"],
    );
    t.push_row(vec![
        format!("batch scoring ({rows}x{classes}, d={dim})"),
        crate::fmt_secs(scalar_score_s),
        crate::fmt_secs(packed_score_s),
        fmt_speedup(packed_speedup),
    ]);
    t.push_row(vec![
        format!("i8 gemm {gemm_m}x{gemm_k}x{gemm_n} ({i8_kernel})"),
        crate::fmt_secs(naive_gemm_s),
        crate::fmt_secs(simd_gemm_s),
        fmt_speedup(gemm_speedup),
    ]);
    t.push_row(vec![
        format!("f32 gemm {gemm_m}x{gemm_k}x{gemm_n} ({f32_kernel})"),
        crate::fmt_secs(f32_reference_s),
        crate::fmt_secs(f32_gemm_s),
        fmt_speedup(f32_gemm_speedup),
    ]);
    t.push_row(vec![
        format!("majority bundle ({bundle_vectors} vectors, d={dim})"),
        format!("{:.3} GiB/s", bundle_gib_s),
        crate::fmt_secs(bundle_s),
        String::from("-"),
    ]);

    let record = BenchRecord::new("kernels", smoke)
        .field("dim", dim.to_string())
        .field("rows", rows.to_string())
        .field("classes", classes.to_string())
        .field("packed_score_s", format!("{packed_score_s:.12}"))
        .field("scalar_score_s", format!("{scalar_score_s:.12}"))
        .field("packed_speedup", format!("{packed_speedup:.3}"))
        .field("gemm_m", gemm_m.to_string())
        .field("gemm_k", gemm_k.to_string())
        .field("gemm_n", gemm_n.to_string())
        .field("simd_gemm_s", format!("{simd_gemm_s:.12}"))
        .field("naive_gemm_s", format!("{naive_gemm_s:.12}"))
        .field("simd_gemm_gops", format!("{simd_gemm_gops:.3}"))
        .field("naive_gemm_gops", format!("{naive_gemm_gops:.3}"))
        .field("gemm_speedup", format!("{gemm_speedup:.3}"))
        .field("i8_kernel", format!("\"{i8_kernel}\""))
        .field("f32_gemm_s", format!("{f32_gemm_s:.12}"))
        .field("f32_reference_s", format!("{f32_reference_s:.12}"))
        .field("f32_gemm_speedup", format!("{f32_gemm_speedup:.3}"))
        .field("bundle_vectors", bundle_vectors.to_string())
        .field("bundle_s", format!("{bundle_s:.12}"))
        .field("bundle_gib_s", format!("{bundle_gib_s:.3}"));
    (t, record)
}

/// `fig_kernels`: the table half of [`fig_kernels_report`].
pub fn fig_kernels() -> ResultTable {
    fig_kernels_report().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_sim::timing;

    // Functional experiments are exercised end-to-end by the binaries and
    // integration tests; here we pin the cheap analytic tables.

    #[test]
    fn table1_lists_all_five() {
        let t = table1();
        assert_eq!(t.len(), 5);
        assert!(t.to_text().contains("mnist"));
    }

    #[test]
    fn fig10_speedup_increases_with_features() {
        let t = fig10();
        let csv = t.to_csv();
        let speedups: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| {
                let cell = l.split(',').next_back().unwrap();
                cell.trim_end_matches('x').parse::<f64>().unwrap()
            })
            .collect();
        assert!(speedups.first().unwrap() < speedups.last().unwrap());
        assert!(
            *speedups.last().unwrap() > 5.0,
            "700-feature speedup {speedups:?}"
        );
        assert!(
            *speedups.first().unwrap() < 1.5,
            "20-feature speedup {speedups:?}"
        );
    }

    #[test]
    fn pipeline_workload_is_transfer_bound_with_1_3x_analytic_speedup() {
        // The measured fig_pipeline run reads the device ledgers, which
        // tpu-sim pins to these closed forms within 1e-12 — so pinning
        // the analytic ratio here pins the binary's reported speedup
        // without paying for a functional int8 sweep in the test suite.
        let cfg = tpu_sim::DeviceConfig::default();
        let dims = ModelDims::encoder(PIPELINE_FEATURES, PIPELINE_DIM);
        for &samples in &[64usize, 128] {
            let serial = runtime::serial_device_s(&cfg, &dims, samples, PIPELINE_CHUNK);
            let piped = timing::chunked_s(samples, PIPELINE_CHUNK, |rows| {
                timing::stage_costs(&cfg, &dims, rows).total_s
            });
            let speedup = serial / piped;
            assert!(
                speedup >= 1.3,
                "pipeline workload speedup {speedup:.3} < 1.3 at {samples} samples"
            );
        }
        // Transfer-bound, as the workload claims: per chunk, the link
        // legs outweigh the MXU leg.
        let est = timing::stage_costs(&cfg, &dims, PIPELINE_CHUNK);
        assert!(est.input_transfer_s + est.output_transfer_s > est.compute_s);
    }

    #[test]
    fn fig6_bagging_matches_tpu_rows() {
        let t = fig6();
        let csv = t.to_csv();
        // For each dataset, the TPU and TPU_B rows carry identical values
        // (the merged model's zero-overhead property).
        let lines: Vec<&str> = csv.lines().skip(1).collect();
        for chunk in lines.chunks(3) {
            let tpu: Vec<&str> = chunk[1].split(',').skip(2).collect();
            let tpu_b: Vec<&str> = chunk[2].split(',').skip(2).collect();
            assert_eq!(tpu, tpu_b);
        }
    }
}
