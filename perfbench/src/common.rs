//! Shapes, inputs, correctness bookkeeping and metric records shared by
//! the workloads.

use std::fmt::Display;
use std::time::Instant;

use hd_datasets::{registry, Dataset, SampleBudget};
use hd_tensor::{ops, Matrix};
use hyperedge::{BackendLedger, PipelineConfig};

use crate::trace::{Span, Tracer};

/// Hypervector dimensionality of every workload.
pub const DIM: usize = 2048;
/// Full-model training iterations (bagged members use the config's `I'`).
pub const ITERATIONS: usize = 10;
/// Training rows of the isolet-shaped dataset.
pub const TRAIN_ROWS: usize = 700;
/// Held-out rows: evaluated by the train workloads, served by serve-2dev.
pub const TEST_ROWS: usize = 320;

/// The pipeline configuration every workload runs: paper defaults at
/// [`DIM`] and [`ITERATIONS`], one worker thread, so load never exceeds
/// the two busy threads of the serve schedule.
pub fn config() -> PipelineConfig {
    // The host f32 GEMM would otherwise fan out over every core. On a
    // shared two-core host that makes its wall time swing by a third
    // between repetitions while gaining under a tenth, so the benchmark
    // pins it to the one thread the rest of the load runs on.
    hd_tensor::gemm::set_thread_cap(1);
    PipelineConfig::new(DIM)
        .with_iterations(ITERATIONS)
        .with_threads(1)
}

/// Generates the isolet-shaped dataset (617 features, 26 classes) for
/// `seed`, train and held-out rows in one call, then z-scores both splits
/// with the training split's statistics.
///
/// # Errors
///
/// Generator errors, as text.
pub fn dataset(seed: u64, tracer: Option<&Tracer>) -> Result<Dataset, String> {
    let spec = registry::by_name("isolet").ok_or("isolet is not registered")?;
    let budget = SampleBudget::Reduced {
        train: TRAIN_ROWS,
        test: TEST_ROWS,
    };
    let mut data = traced(tracer, "datasets.generate", || spec.generate(budget, seed))
        .ctx("generate dataset")?;
    traced(tracer, "datasets.normalize", || data.normalize());
    Ok(data)
}

/// Runs `f` in a span when tracing, bare otherwise, so traced and
/// untraced set-ups share one code path; returns the span index too.
pub fn tracer_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match tracer {
        Some(t) => {
            let (v, id) = t.span(name, f);
            (v, Some(id))
        }
        None => (f(), None),
    }
}

/// [`tracer_span`] without the index.
pub fn traced<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer_span(tracer, name, f).0
}

/// Simulated seconds of every phase a ledger charged.
pub fn ledger_sim_s(l: &BackendLedger) -> f64 {
    l.encode_s + l.update_s + l.model_gen_s + l.infer_s
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-row argmax of a score matrix.
///
/// # Errors
///
/// Empty rows.
pub fn argmax_rows(scores: &Matrix) -> Result<Vec<usize>, String> {
    (0..scores.rows())
        .map(|r| ops::argmax(scores.row(r)).ctx("argmax"))
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Attaches context to any displayable error.
pub trait Ctx<T> {
    /// Maps the error to `"<what>: <error>"`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// `Err(msg)` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Operations attempted and failed. An operation is one repetition, one
/// request, one set-up or one run-level correctness check; it fails if the
/// library returns an error or any of its checks does not hold.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation's outcome and passes its value through.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
                None
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit; `sim_s` marks the simulated clock, `s`/`ms` the wall clock.
    pub unit: &'static str,
    /// How it was measured, for the human-readable lines.
    pub note: String,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the machine-readable result line, in order.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines printed before the metrics.
    pub info: Vec<String>,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Spans of the traced run (empty with tracing off).
    pub spans: Vec<Span>,
}
