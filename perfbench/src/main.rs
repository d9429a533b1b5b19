//! `perfbench` — the end-to-end train/serve benchmark of the HyperEdge
//! workspace, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-cpu|train-tpub|serve-2dev --seed N --seconds N --trace 0|1
//! ```
//!
//! Prints every metric by name and unit, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones of a traced run, whose
//! spans are also written as Chrome trace-event JSON. Exits 1 if any
//! correctness check failed, 2 on a usage error. See `perfbench/README.md`.

mod common;
mod layers;
mod probe;
mod serve;
mod stats;
mod trace;
mod train;

use std::fmt::Write as _;
use std::process::ExitCode;

use hyperedge::ExecutionSetting;

use crate::common::Outcome;

const USAGE: &str = "usage: perfbench --workload train-cpu|train-tpub|serve-2dev --seed N \
                     --seconds N --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The machine-readable result line.
fn result_json(out: &Outcome, correct: bool) -> String {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.attempted, out.checks.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "train-cpu" => train::run(
            ExecutionSetting::CpuBaseline,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "train-tpub" => train::run(
            ExecutionSetting::TpuBagging,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve-2dev" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    // A value that is not a finite number cannot be compared; treat it as
    // a failed check rather than print it.
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.checks
                .record::<()>(Err(format!("{} is not finite", m.name)));
            m.value = 0.0;
        }
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} dim={} train_rows={} test_rows={} threads=1 available_parallelism={} i8_kernel={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::DIM,
        common::TRAIN_ROWS,
        common::TEST_ROWS,
        std::thread::available_parallelism().map_or(0, usize::from),
        hd_tensor::kernels::i8_gemm_kernel_name(),
    );
    for line in &out.info {
        println!("{line}");
    }
    for m in &out.metrics {
        println!(
            "  {:<28} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  error_rate {:.6} ({} of {} operations failed)",
        out.checks.error_rate(),
        out.checks.failed,
        out.checks.attempted
    );
    for f in &out.checks.failures {
        println!("  FAILED: {f}");
    }
    if args.trace {
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans)));
        match written {
            Ok(()) => println!(
                "  chrome trace ({} spans, wall clock): {path}",
                out.spans.len()
            ),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let correct = out.checks.failed == 0;
    println!("{}", result_json(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
