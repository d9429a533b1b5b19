//! Subcommand implementations.

use std::error::Error;

use cpu_model::Platform;
use hd_datasets::{registry, Dataset, SampleBudget};
use hdc::serialize as hdm;
use hyperedge::{runtime, ExecutionSetting, Pipeline, PipelineConfig, UpdateProfile, WorkloadSpec};

use crate::args::ParsedArgs;

type CmdResult = Result<String, Box<dyn Error>>;

/// Usage text for `help` and error paths.
pub const USAGE: &str = "\
hyperedge — algorithm/hardware co-designed HDC on a simulated edge accelerator

USAGE:
    hyperedge <command> [--flag value]...

COMMANDS:
    datasets                          list the built-in (synthetic) paper datasets
    train      --dataset <name> | --csv <file.csv> [--header true]
               --out <model.hdm>
               [--setting cpu|tpu|tpu-bagging] [--dim N] [--iterations N]
               [--train N] [--test N] [--seed N] [--threads N]
               [--no-simd true]       train a model and save it (CSV: label
                                      in the last column, 20% tail held out;
                                      --threads N, or HD_THREADS, caps the
                                      GEMM worker threads; --no-simd true,
                                      or HD_NO_SIMD=1, forces the portable
                                      i8 GEMM kernel)
    evaluate   --model <model.hdm> --dataset <name>
               [--test N] [--seed N]  evaluate a saved model
    serve      --model <model.hdm> --dataset <name>
               [--test N] [--seed N] [--batch N] [--spares N]
               [--fault transient|link|weight-upset|hang] [--fault-rate R]
               [--fault-seed N] [--no-simd true]
                                      serve through the supervised two-device
                                      pipeline and print per-stage fault,
                                      retry and failover counters plus the
                                      kernel variants that served the run
    info       --model <model.hdm>    describe a saved model
    runtime    --dataset <name> [--setting ...] [--platform i5|a53]
                                      paper-scale runtime & energy breakdown
    lint       [--format text|json] [--deny-warnings]
                                      run the workspace lint pass (hd-analysis)
    verify     [--features N] [--dim N] [--classes N] [--buffer BYTES]
               [--format text|json]   statically verify the wide NN against
                                      the accelerator target
    help                              show this message
";

/// Rejects flags that no subcommand argument matches, catching typos
/// like `--dataest` before they silently fall back to defaults.
fn check_flags(args: &ParsedArgs, allowed: &[&str]) -> Result<(), String> {
    for name in args.flag_names() {
        if !allowed.contains(&name) {
            return Err(format!(
                "unknown flag --{name} for `{}` (allowed: {})",
                args.command,
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    Ok(())
}

/// Applies the `--no-simd` flag: `--no-simd true` disables the SIMD
/// `i8` GEMM kernel for this process so every call takes the portable
/// blocked path (`HD_NO_SIMD=1` is the environment equivalent).
fn apply_simd_flag(args: &ParsedArgs) -> Result<(), String> {
    match args.get("no-simd") {
        None => Ok(()),
        Some("true") => {
            hd_tensor::kernels::set_simd_enabled(false);
            Ok(())
        }
        Some("false") => {
            hd_tensor::kernels::set_simd_enabled(true);
            Ok(())
        }
        Some(other) => Err(format!("--no-simd expects true or false, got `{other}`")),
    }
}

/// One human-readable line naming which low-level kernels served a run:
/// the `i8` GEMM tile with its SIMD and portable call counts from a
/// [`hd_tensor::kernels::KernelStats`] delta, the `f32` GEMM tile, and
/// the packed-bipolar row count.
fn kernel_report_line(delta: &hd_tensor::kernels::KernelStats) -> String {
    format!(
        "kernels: i8 gemm = {} ({} simd / {} portable call(s)), f32 gemm = {}, \
         {} packed bipolar row(s) scored\n",
        hd_tensor::kernels::i8_gemm_kernel_name(),
        delta.simd_gemm_calls,
        delta.portable_gemm_calls,
        hd_tensor::kernels::f32_gemm_kernel_name(),
        delta.packed_score_rows,
    )
}

fn parse_setting(raw: &str) -> Result<ExecutionSetting, String> {
    match raw {
        "cpu" => Ok(ExecutionSetting::CpuBaseline),
        "tpu" => Ok(ExecutionSetting::Tpu),
        "tpu-bagging" | "tpu_b" => Ok(ExecutionSetting::TpuBagging),
        other => Err(format!(
            "unknown setting `{other}` (cpu | tpu | tpu-bagging)"
        )),
    }
}

/// Resolves the GEMM thread cap for `train`: the `--threads` flag wins,
/// then the `HD_THREADS` environment variable, then 1.
fn resolve_threads(args: &ParsedArgs) -> Result<usize, Box<dyn Error>> {
    let (source, raw) = match args.get("threads") {
        Some(raw) => ("--threads", raw.to_string()),
        None => match std::env::var("HD_THREADS") {
            Ok(raw) => ("HD_THREADS", raw),
            Err(_) => return Ok(1),
        },
    };
    let threads: usize = raw
        .parse()
        .map_err(|_| format!("{source} expects a positive integer, got `{raw}`"))?;
    if threads == 0 {
        return Err(format!("{source} must be at least 1").into());
    }
    Ok(threads)
}

fn load_dataset(
    args: &ParsedArgs,
    default_train: usize,
    default_test: usize,
) -> Result<Dataset, Box<dyn Error>> {
    if let Some(path) = args.get("csv") {
        let options = hd_datasets::csv::CsvOptions {
            has_header: args.get("header").is_some_and(|v| v == "true"),
            label: hd_datasets::csv::LabelColumn::Last,
        };
        let import = hd_datasets::csv::load_csv(path, &options)?;
        let mut data = hd_datasets::csv::into_dataset(import, path, 0.2)?;
        data.normalize();
        return Ok(data);
    }
    let name = args.required("dataset")?;
    let spec = registry::by_name(name)
        .ok_or_else(|| format!("unknown dataset `{name}` (try `hyperedge datasets`)"))?;
    let train = args.get_or("train", default_train)?;
    let test = args.get_or("test", default_test)?;
    let seed = args.get_or("seed", 42u64)?;
    let mut data = spec.generate(SampleBudget::Reduced { train, test }, seed)?;
    data.normalize();
    Ok(data)
}

/// `hyperedge datasets`
pub fn datasets(_args: &ParsedArgs) -> CmdResult {
    let mut out = String::from("name      samples  features  classes  description\n");
    for spec in registry::paper_datasets() {
        out.push_str(&format!(
            "{:<8} {:>8} {:>9} {:>8}  {}\n",
            spec.name, spec.train_samples, spec.features, spec.classes, spec.description
        ));
    }
    Ok(out)
}

/// `hyperedge train`
pub fn train(args: &ParsedArgs) -> CmdResult {
    check_flags(
        args,
        &[
            "dataset",
            "csv",
            "header",
            "out",
            "setting",
            "dim",
            "iterations",
            "train",
            "test",
            "seed",
            "threads",
            "no-simd",
        ],
    )?;
    apply_simd_flag(args)?;
    let out_path = args.required("out")?.to_string();
    let setting = parse_setting(args.get("setting").unwrap_or("tpu"))?;
    let dim = args.get_or("dim", 2048usize)?;
    let iterations = args.get_or("iterations", 10usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let threads = resolve_threads(args)?;
    let data = load_dataset(args, 600, 200)?;

    hd_tensor::gemm::set_thread_cap(threads);
    let kernels_before = hd_tensor::kernels::stats();
    let config = PipelineConfig::new(dim)
        .with_iterations(iterations)
        .with_seed(seed);
    let pipeline = Pipeline::new(config);
    let outcome = pipeline.train(
        &data.train.features,
        &data.train.labels,
        data.classes,
        setting,
    )?;
    let report = pipeline.evaluate(&outcome, &data.test.features, &data.test.labels)?;
    hdm::save_model(&outcome.model, &out_path)?;
    let kernel_delta = hd_tensor::kernels::stats().delta_since(&kernels_before);

    let measured = outcome.ledger.breakdown();
    Ok(format!(
        "trained {} on {} ({} samples, d = {dim}, {iterations} iterations)\n\
         test accuracy: {:.1}%\n\
         modeled training time: {:.4}s (encode {:.4} + update {:.4} + model-gen {:.4})\n\
         measured backend time: {:.4}s over {} compilation(s), {} cache hit(s), {} new device(s)\n\
         resilience: {} fault(s) observed, {} retry(ies), {:.4}s backoff, {} fallback(s)\n\
         {}\
         saved to {out_path}\n",
        setting.label(),
        data.name,
        data.train.len(),
        100.0 * report.accuracy,
        outcome.runtime.total_s(),
        outcome.runtime.encode_s,
        outcome.runtime.update_s,
        outcome.runtime.model_gen_s,
        measured.total_s(),
        outcome.ledger.compilations,
        outcome.ledger.cache_hits,
        outcome.ledger.devices_created,
        outcome.ledger.faults_observed,
        outcome.ledger.retries,
        outcome.ledger.backoff_s,
        outcome.ledger.fallbacks,
        kernel_report_line(&kernel_delta),
    ))
}

/// `hyperedge evaluate`
pub fn evaluate(args: &ParsedArgs) -> CmdResult {
    check_flags(
        args,
        &["model", "dataset", "csv", "header", "train", "test", "seed"],
    )?;
    let model = hdm::load_model(args.required("model")?)?;
    let data = load_dataset(args, 1, 400)?;
    if data.feature_count() != model.feature_count() {
        return Err(format!(
            "model expects {} features but dataset has {}",
            model.feature_count(),
            data.feature_count()
        )
        .into());
    }
    let predictions = model.predict(&data.test.features)?;
    let accuracy = hdc::eval::accuracy(&predictions, &data.test.labels)?;
    let cm = hdc::eval::ConfusionMatrix::from_predictions(
        &predictions,
        &data.test.labels,
        model.class_count(),
    )?;
    let mut out = format!(
        "accuracy: {:.1}% over {} test samples\nper-class recall:\n",
        100.0 * accuracy,
        data.test.len()
    );
    for class in 0..model.class_count() {
        match cm.recall(class) {
            Some(r) => out.push_str(&format!("  class {class}: {:.1}%\n", 100.0 * r)),
            None => out.push_str(&format!("  class {class}: (no samples)\n")),
        }
    }
    Ok(out)
}

/// `hyperedge serve`
pub fn serve(args: &ParsedArgs) -> CmdResult {
    check_flags(
        args,
        &[
            "model",
            "dataset",
            "csv",
            "header",
            "train",
            "test",
            "seed",
            "batch",
            "spares",
            "fault",
            "fault-rate",
            "fault-seed",
            "no-simd",
        ],
    )?;
    apply_simd_flag(args)?;
    let model = hdm::load_model(args.required("model")?)?;
    let data = load_dataset(args, 1, 400)?;
    if data.feature_count() != model.feature_count() {
        return Err(format!(
            "model expects {} features but dataset has {}",
            model.feature_count(),
            data.feature_count()
        )
        .into());
    }
    let batch = args.get_or("batch", 16usize)?.max(1);
    let spares = args.get_or("spares", 0usize)?;

    let mut config = PipelineConfig::new(model.dim()).with_batches(batch, batch);
    if let Some(kind) = args.get("fault") {
        let rate: f64 = args
            .get("fault-rate")
            .unwrap_or("1.0")
            .parse()
            .map_err(|_| "--fault-rate expects a number in [0, 1]".to_string())?;
        let fault_seed = args.get_or("fault-seed", 1u64)?;
        let fault = hyperedge::fleet::FaultConfig::default().with_seed(fault_seed);
        config.device.fault = match kind {
            "transient" => fault.with_transient_rate(rate),
            "link" => fault.with_link_corruption_rate(rate),
            "weight-upset" => fault.with_weight_upset_rate(rate),
            "hang" => {
                // A hang is only survivable under a firing deadline; the
                // stall is sized past it so every hang trips the
                // supervisor instead of blocking the run.
                config.supervision = config.supervision.with_deadline(Some(0.5));
                fault.with_hang(rate, 1.0)
            }
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (transient | link | weight-upset | hang)"
                )
                .into())
            }
        };
    }

    let server =
        hyperedge::TwoDeviceServer::with_spares(&model, &config, &data.test.features, spares)?;
    let kernels_before = hd_tensor::kernels::stats();
    let outcome = server.predict_supervised(&data.test.features)?;
    let kernel_delta = hd_tensor::kernels::stats().delta_since(&kernels_before);
    let report = outcome.report();
    let accuracy = hdc::eval::accuracy(&report.predictions, &data.test.labels)?;

    let mut out = format!(
        "served {} samples in chunks of {batch} across {} pooled device(s)\n\
         accuracy: {:.1}%\n\
         outcome: {}\n",
        data.test.len(),
        server.pool().len(),
        100.0 * accuracy,
        if outcome.is_degraded() {
            format!("degraded (quarantined device(s): {:?})", report.quarantined)
        } else {
            "clean".to_string()
        },
    );
    for (name, s) in ["encode", "score"].iter().zip(&report.supervision) {
        out.push_str(&format!(
            "stage {name}: {} fault(s), {} retry(ies), {:.4}s backoff, \
             {} substitution(s), {} rebind(s)\n",
            s.faults, s.retries, s.backoff_s, s.substitutions, s.rebinds
        ));
    }
    for d in &report.device_faults {
        out.push_str(&format!(
            "device {}: {} fault record(s)\n",
            d.ordinal,
            d.records.len()
        ));
    }
    out.push_str(&kernel_report_line(&kernel_delta));
    Ok(out)
}

/// `hyperedge info`
pub fn info(args: &ParsedArgs) -> CmdResult {
    check_flags(args, &["model"])?;
    let path = args.required("model")?;
    let model = hdm::load_model(path)?;
    let params = model.feature_count() * model.dim() + model.dim() * model.class_count();
    Ok(format!(
        "model: {path}\n\
         features (n):        {}\n\
         dimensionality (d):  {}\n\
         classes (k):         {}\n\
         f32 parameters:      {params} ({:.2} MB)\n\
         int8 on accelerator: {:.2} MB\n",
        model.feature_count(),
        model.dim(),
        model.class_count(),
        params as f64 * 4.0 / 1e6,
        params as f64 / 1e6,
    ))
}

/// `hyperedge runtime`
pub fn runtime_report(args: &ParsedArgs) -> CmdResult {
    check_flags(args, &["dataset", "platform", "dim"])?;
    let name = args.required("dataset")?;
    let spec = registry::by_name(name)
        .ok_or_else(|| format!("unknown dataset `{name}` (try `hyperedge datasets`)"))?;
    let platform = match args.get("platform").unwrap_or("i5") {
        "i5" => Platform::MobileI5,
        "a53" | "pi" => Platform::CortexA53,
        other => return Err(format!("unknown platform `{other}` (i5 | a53)").into()),
    };
    let dim = args.get_or("dim", 10_000usize)?;
    let config = PipelineConfig::new(dim).with_platform(platform);
    let workload = WorkloadSpec::from_dataset(&spec);
    let profile = UpdateProfile::geometric(config.iterations, 0.5, 0.75);

    let mut out = format!(
        "paper-scale runtime model for {name} ({} train / {} test samples, d = {dim})\n\n\
         setting  encode_s  update_s  modelgen_s  train_total  infer_s  energy_J\n",
        workload.train_samples, workload.test_samples
    );
    for setting in ExecutionSetting::all() {
        let b = runtime::training_breakdown(&config, &workload, setting, &profile);
        let infer = runtime::inference_time_s(&config, &workload, setting);
        let energy = runtime::training_energy_j(&config, &workload, setting, &profile).total_j()
            + runtime::inference_energy_j(&config, &workload, setting).total_j();
        out.push_str(&format!(
            "{:<8} {:>9.2} {:>9.2} {:>11.2} {:>12.2} {:>8.2} {:>9.1}\n",
            setting.label(),
            b.encode_s,
            b.update_s,
            b.model_gen_s,
            b.total_s(),
            infer,
            energy,
        ));
    }
    Ok(out)
}

/// Dispatches a parsed command line.
pub fn run(args: &ParsedArgs) -> CmdResult {
    match args.command.as_str() {
        "datasets" => datasets(args),
        "train" => train(args),
        "evaluate" | "eval" => evaluate(args),
        "serve" => serve(args),
        "info" => info(args),
        "runtime" => runtime_report(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn no_simd_flag_toggles_kernel_selection_and_rejects_bad_values() {
        apply_simd_flag(&parsed(&["train", "--no-simd", "true"])).unwrap();
        assert!(!hd_tensor::kernels::simd_permitted());
        apply_simd_flag(&parsed(&["train", "--no-simd", "false"])).unwrap();
        assert!(hd_tensor::kernels::simd_permitted());
        let err = apply_simd_flag(&parsed(&["train", "--no-simd", "maybe"])).unwrap_err();
        assert!(err.contains("--no-simd expects true or false"), "{err}");
        // Absent flag leaves the process-wide selection untouched.
        apply_simd_flag(&parsed(&["train"])).unwrap();
        assert!(hd_tensor::kernels::simd_permitted());
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        assert_eq!(resolve_threads(&parsed(&["train"])).unwrap(), 1);
        assert_eq!(
            resolve_threads(&parsed(&["train", "--threads", "4"])).unwrap(),
            4
        );
        let err = resolve_threads(&parsed(&["train", "--threads", "0"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        let err = resolve_threads(&parsed(&["train", "--threads", "two"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn threaded_cpu_training_matches_sequential_output() {
        let dir = std::env::temp_dir().join("hyperedge-cli-threads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |threads: &str, file: &str| {
            let path = dir.join(file);
            let out = train(&parsed(&[
                "train",
                "--dataset",
                "pamap2",
                "--out",
                path.to_str().unwrap(),
                "--dim",
                "256",
                "--iterations",
                "3",
                "--train",
                "120",
                "--test",
                "40",
                "--setting",
                "cpu",
                "--threads",
                threads,
            ]))
            .unwrap();
            (out, std::fs::read(path).unwrap())
        };
        let (out1, model1) = run("1", "seq.hdm");
        let (out2, model2) = run("2", "par.hdm");
        assert!(out1.contains("test accuracy"), "{out1}");
        assert_eq!(
            model1, model2,
            "threaded training must serialize bit-identically"
        );
        assert!(out2.contains("test accuracy"), "{out2}");
        hd_tensor::gemm::set_thread_cap(0);
    }

    #[test]
    fn datasets_lists_all_five() {
        let out = datasets(&parsed(&["datasets"])).unwrap();
        for name in ["face", "isolet", "ucihar", "mnist", "pamap2"] {
            assert!(out.contains(name), "missing {name} in\n{out}");
        }
    }

    #[test]
    fn train_info_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join("hyperedge-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("cli-model.hdm");
        let model_str = model_path.to_str().unwrap();

        let out = train(&parsed(&[
            "train",
            "--dataset",
            "pamap2",
            "--out",
            model_str,
            "--dim",
            "512",
            "--iterations",
            "4",
            "--train",
            "150",
            "--test",
            "60",
            "--setting",
            "cpu",
        ]))
        .unwrap();
        assert!(out.contains("test accuracy"), "{out}");
        assert!(
            out.contains(
                "resilience: 0 fault(s) observed, 0 retry(ies), 0.0000s backoff, 0 fallback(s)"
            ),
            "{out}"
        );
        assert!(out.contains("kernels: i8 gemm = "), "{out}");
        let f32_tile = format!("f32 gemm = {},", hd_tensor::kernels::f32_gemm_kernel_name());
        assert!(out.contains(&f32_tile), "{out}");

        // The device's int8 datapath runs on the dispatched GEMM, so a TPU
        // run attributes calls to it. Parallel tests only add to the
        // process-global counters, never subtract.
        let tpu_model_path = dir.join("cli-model-tpu.hdm");
        let out = train(&parsed(&[
            "train",
            "--dataset",
            "pamap2",
            "--out",
            tpu_model_path.to_str().unwrap(),
            "--dim",
            "256",
            "--iterations",
            "2",
            "--train",
            "100",
            "--test",
            "40",
            "--setting",
            "tpu",
        ]))
        .unwrap();
        std::fs::remove_file(&tpu_model_path).ok();
        // "kernels: i8 gemm = <name> (<s> simd / <p> portable call(s)), ..."
        let counts = out
            .lines()
            .find_map(|l| l.strip_prefix("kernels: i8 gemm = "))
            .and_then(|rest| rest.split_once('('))
            .and_then(|(_, rest)| rest.split_once(" call(s)"))
            .unwrap_or_else(|| panic!("no kernels line in\n{out}"))
            .0;
        let calls: u64 = counts
            .split_whitespace()
            .filter_map(|t| t.parse::<u64>().ok())
            .sum();
        assert!(calls > 0, "device run reported no i8 GEMM calls:\n{out}");

        let out = info(&parsed(&["info", "--model", model_str])).unwrap();
        assert!(out.contains("dimensionality (d):  512"), "{out}");

        let out = evaluate(&parsed(&[
            "evaluate",
            "--model",
            model_str,
            "--dataset",
            "pamap2",
            "--test",
            "60",
        ]))
        .unwrap();
        assert!(out.contains("accuracy:"), "{out}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn serve_reports_per_stage_counters_clean_and_degraded() {
        let dir = std::env::temp_dir().join("hyperedge-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("serve-model.hdm");
        let model_str = model_path.to_str().unwrap();
        train(&parsed(&[
            "train",
            "--dataset",
            "pamap2",
            "--out",
            model_str,
            "--dim",
            "256",
            "--iterations",
            "3",
            "--train",
            "120",
            "--test",
            "40",
            "--setting",
            "cpu",
        ]))
        .unwrap();

        // Fault-free: clean outcome, zeroed counters for both stages.
        let out = serve(&parsed(&[
            "serve",
            "--model",
            model_str,
            "--dataset",
            "pamap2",
            "--test",
            "40",
        ]))
        .unwrap();
        assert!(out.contains("outcome: clean"), "{out}");
        assert!(
            out.contains(
                "stage encode: 0 fault(s), 0 retry(ies), 0.0000s backoff, \
                 0 substitution(s), 0 rebind(s)"
            ),
            "{out}"
        );
        assert!(out.contains("stage score:"), "{out}");

        // A permanently faulting pool drains to the host: degraded
        // outcome naming quarantined devices, counters non-zero.
        let out = serve(&parsed(&[
            "serve",
            "--model",
            model_str,
            "--dataset",
            "pamap2",
            "--test",
            "40",
            "--fault",
            "transient",
            "--fault-rate",
            "1.0",
        ]))
        .unwrap();
        assert!(out.contains("degraded (quarantined device(s):"), "{out}");
        assert!(out.contains("accuracy:"), "{out}");
        assert!(out.contains("fault record(s)"), "{out}");

        let err = serve(&parsed(&[
            "serve",
            "--model",
            model_str,
            "--dataset",
            "pamap2",
            "--fault",
            "gamma-ray",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown fault kind"), "{err}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn evaluate_rejects_feature_mismatch() {
        let dir = std::env::temp_dir().join("hyperedge-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("cli-mismatch.hdm");
        let model_str = model_path.to_str().unwrap();
        train(&parsed(&[
            "train",
            "--dataset",
            "pamap2",
            "--out",
            model_str,
            "--dim",
            "256",
            "--iterations",
            "2",
            "--train",
            "60",
            "--test",
            "20",
            "--setting",
            "cpu",
        ]))
        .unwrap();
        let err = evaluate(&parsed(&[
            "evaluate",
            "--model",
            model_str,
            "--dataset",
            "mnist",
            "--test",
            "20",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("features"), "{err}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn runtime_report_covers_settings() {
        let out = runtime_report(&parsed(&["runtime", "--dataset", "mnist"])).unwrap();
        for label in ["CPU", "TPU", "TPU_B"] {
            assert!(out.contains(label), "{out}");
        }
    }

    #[test]
    fn unknown_command_and_dataset_fail_cleanly() {
        assert!(run(&parsed(&["frobnicate"])).is_err());
        assert!(train(&parsed(&[
            "train",
            "--dataset",
            "cifar",
            "--out",
            "/tmp/x.hdm"
        ]))
        .is_err());
        assert!(runtime_report(&parsed(&[
            "runtime",
            "--dataset",
            "mnist",
            "--platform",
            "m1"
        ]))
        .is_err());
    }

    #[test]
    fn setting_parser() {
        assert!(parse_setting("cpu").is_ok());
        assert!(parse_setting("tpu").is_ok());
        assert!(parse_setting("tpu-bagging").is_ok());
        assert!(parse_setting("gpu").is_err());
    }

    #[test]
    fn train_from_csv_works() {
        let dir = std::env::temp_dir().join("hyperedge-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("train.csv");
        // Two separable classes, 40 rows.
        let mut text = String::new();
        for i in 0..40 {
            let c = i % 2;
            let base = if c == 0 { 1.0 } else { -1.0 };
            text.push_str(&format!("{},{},{c}\n", base + 0.01 * i as f32, -base));
        }
        std::fs::write(&csv_path, text).unwrap();
        let model_path = dir.join("csv-model.hdm");
        let out = train(&parsed(&[
            "train",
            "--csv",
            csv_path.to_str().unwrap(),
            "--out",
            model_path.to_str().unwrap(),
            "--dim",
            "128",
            "--iterations",
            "3",
            "--setting",
            "cpu",
        ]))
        .unwrap();
        assert!(out.contains("test accuracy"), "{out}");
        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn typoed_flag_is_rejected() {
        let err = info(&parsed(&["info", "--modle", "x.hdm"])).unwrap_err();
        assert!(err.to_string().contains("--modle"), "{err}");
    }

    #[test]
    fn help_runs() {
        let out = run(&parsed(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }
}
