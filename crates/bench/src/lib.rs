//! Shared harness utilities for regenerating every table and figure of
//! the paper.
//!
//! Each `src/bin/<experiment>.rs` binary reproduces one table or figure:
//!
//! | binary   | paper artifact                                        |
//! |----------|-------------------------------------------------------|
//! | `table1` | Table I — dataset inventory                           |
//! | `fig4`   | Fig. 4 — train/validation accuracy vs iteration       |
//! | `fig5`   | Fig. 5 — training-runtime breakdown (CPU/TPU/TPU_B)   |
//! | `fig6`   | Fig. 6 — inference runtime (CPU/TPU/TPU_B)            |
//! | `fig7`   | Fig. 7 — inference accuracy across settings           |
//! | `fig8`   | Fig. 8 — bagging sampling-ratio search (ISOLET)       |
//! | `fig9`   | Fig. 9 — bagging iteration-count search (ISOLET)      |
//! | `fig10`  | Fig. 10 — encoding speedup vs feature count           |
//! | `table2` | Table II — speedups vs a Raspberry-Pi-3-class CPU     |
//! | `fig_fault` | extension — weight-fault rate vs accuracy, silent |
//! |          | SRAM upsets vs detected + recovered (resilience layer)|
//! | `fig_pipeline` | extension — pipelined execution: overlapped     |
//! |          | DMA/compute invoke + parallel bagged member training  |
//! |          | (also writes the `BENCH_pipeline.json` CI baseline)   |
//! | `fig_kernels` | extension — packed bipolar + SIMD i8 host-kernel |
//! |          | wall-clock microbenchmarks vs scalar references       |
//! |          | (also writes the `BENCH_kernels.json` CI baseline)    |
//! | `gate`   | CI regression gate: fresh `BENCH_*.json` vs baselines |
//! | `reproduce_all` | runs everything above in sequence              |
//!
//! The split between *functional* and *analytic* measurement is the same
//! throughout: accuracy numbers come from real (reduced-scale) training
//! runs through the full simulated stack, runtime numbers come from the
//! calibrated closed-form models evaluated at the paper's full Table I
//! scale, with the measured per-iteration update fractions plugged in.
//! Results print as aligned tables and are also written as CSV under
//! `results/`.
//!
//! Setting `HD_BENCH_SMOKE=1` switches the functional runs to a reduced
//! smoke scale (d = 512, 3 iterations, ~120 train samples per dataset)
//! so CI can run the harness binaries in release mode on every push; the
//! analytic runtime models are unaffected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod report;

use std::fmt::Write as _;
use std::path::Path;

use hd_datasets::{Dataset, DatasetSpec, SampleBudget};
use hyperedge::{
    ExecutionSetting, Pipeline, PipelineConfig, TrainingOutcome, UpdateProfile, WorkloadSpec,
};

/// Hypervector dimensionality used by the functional (accuracy) runs.
/// The paper's d = 10000 would work but is slow in a scalar simulator;
/// 2048 preserves every accuracy trend (HDC accuracy saturates well below
/// d = 2048 on these workloads).
pub const FUNCTIONAL_DIM: usize = 2048;

/// Hypervector dimensionality used by the analytic runtime models — the
/// paper's d = 10000.
pub const PAPER_DIM: usize = 10_000;

/// Hypervector dimensionality for smoke-mode functional runs. Divisible
/// by the bagging sub-model count so `TpuBagging` still exercises the
/// merge path.
pub const SMOKE_DIM: usize = 512;

/// Training iterations for smoke-mode functional runs.
pub const SMOKE_ITERATIONS: usize = 3;

/// Whether the harness is in smoke mode: `HD_BENCH_SMOKE` set to a
/// non-empty value other than `0`. Smoke mode shrinks dimensionality,
/// iteration counts and sample budgets so CI can drive every backend
/// path of the `fig5`/`fig10` harnesses in seconds; the analytic runtime
/// models still evaluate at paper scale.
pub fn smoke_mode() -> bool {
    std::env::var("HD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn budget_caps(smoke: bool) -> (usize, usize) {
    if smoke {
        (120, 60)
    } else {
        (700, 350)
    }
}

/// Reduced per-dataset sample budget for functional runs (smaller still
/// in [`smoke_mode`]).
pub fn reduced_budget(spec: &DatasetSpec) -> SampleBudget {
    let (train_cap, test_cap) = budget_caps(smoke_mode());
    SampleBudget::Reduced {
        train: spec.train_samples.min(train_cap),
        test: spec.test_samples.min(test_cap),
    }
}

/// Generates, normalizes, and returns a functional-scale instance of a
/// paper dataset.
///
/// # Panics
///
/// Panics if generation fails (registry specs are always valid).
pub fn functional_dataset(spec: &DatasetSpec, seed: u64) -> Dataset {
    let mut data = spec
        .generate(reduced_budget(spec), seed)
        .expect("registry specs generate successfully");
    data.normalize();
    data
}

/// The pipeline configuration used by functional runs.
pub fn functional_config() -> PipelineConfig {
    if smoke_mode() {
        PipelineConfig::new(SMOKE_DIM)
            .with_seed(0xBEEF)
            .with_iterations(SMOKE_ITERATIONS)
    } else {
        PipelineConfig::new(FUNCTIONAL_DIM).with_seed(0xBEEF)
    }
}

/// The pipeline configuration used by paper-scale analytic runtime
/// evaluation.
pub fn paper_config() -> PipelineConfig {
    PipelineConfig::new(PAPER_DIM).with_seed(0xBEEF)
}

/// Outcome of one functional run: accuracy plus the measured update
/// profile to feed the analytic models.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Which setting ran.
    pub setting: ExecutionSetting,
    /// Test accuracy of the trained model under its own setting.
    pub accuracy: f64,
    /// The full training outcome.
    pub outcome: TrainingOutcome,
}

/// Trains and evaluates one setting functionally.
///
/// # Panics
///
/// Panics on pipeline errors — harness binaries treat any failure as
/// fatal.
pub fn run_functional(
    pipeline: &Pipeline,
    data: &Dataset,
    setting: ExecutionSetting,
) -> FunctionalRun {
    let outcome = pipeline
        .train(
            &data.train.features,
            &data.train.labels,
            data.classes,
            setting,
        )
        .unwrap_or_else(|e| panic!("training failed for {}: {e}", setting.label()));
    let report = pipeline
        .evaluate(&outcome, &data.test.features, &data.test.labels)
        .unwrap_or_else(|e| panic!("evaluation failed for {}: {e}", setting.label()));
    FunctionalRun {
        setting,
        accuracy: report.accuracy,
        outcome,
    }
}

/// Paper-scale workload for a dataset spec.
pub fn paper_workload(spec: &DatasetSpec) -> WorkloadSpec {
    WorkloadSpec::from_dataset(spec)
}

/// A default update profile for analytic-only computations (matches the
/// convergence shape of Fig. 4).
pub fn default_profile(iterations: usize) -> UpdateProfile {
    UpdateProfile::geometric(iterations, 0.5, 0.75)
}

/// A simple aligned-column table printer that doubles as a CSV writer.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Starts a table with the given title and column names.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in table {}",
            self.title
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the CSV form.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table and writes `results/<name>.csv` (best-effort; a
    /// failed write prints a warning rather than aborting the harness).
    pub fn emit(&self, name: &str) {
        println!("{}", self.to_text());
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create results/: {e}");
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(written to {})\n", path.display());
        }
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_speedup(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(value: f64) -> String {
    format!("{:.1}%", 100.0 * value)
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}s")
    } else if value >= 1.0 {
        format!("{value:.2}s")
    } else {
        format!("{:.2}ms", value * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_datasets::registry;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = ResultTable::new("demo", &["a", "long_column"]);
        t.push_row(vec!["1".into(), "x".into()]);
        t.push_row(vec!["22".into(), "yy".into()]);
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("long_column"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,long_column"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = ResultTable::new("q", &["c"]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = ResultTable::new("bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(2.345), "2.35x");
        assert_eq!(fmt_pct(0.912), "91.2%");
        assert_eq!(fmt_secs(0.0012), "1.20ms");
        assert_eq!(fmt_secs(12.5), "12.50s");
        assert_eq!(fmt_secs(250.0), "250s");
    }

    #[test]
    fn reduced_budget_caps_sizes() {
        let spec = registry::by_name("mnist").unwrap();
        match reduced_budget(&spec) {
            SampleBudget::Reduced { train, test } => {
                assert_eq!(train, 700);
                assert_eq!(test, 350);
            }
            other => panic!("unexpected budget {other:?}"),
        }
    }

    #[test]
    fn smoke_caps_are_smaller_and_smoke_dim_supports_bagging() {
        let (full_train, full_test) = budget_caps(false);
        let (smoke_train, smoke_test) = budget_caps(true);
        assert!(smoke_train < full_train && smoke_test < full_test);
        assert_eq!(full_train, 700);
        assert_eq!(smoke_train, 120);
        assert_eq!(SMOKE_DIM % 4, 0, "bagging sub-models need dim % M == 0");
    }

    #[test]
    fn functional_dataset_is_normalized_and_shaped() {
        let spec = registry::by_name("pamap2").unwrap();
        let data = functional_dataset(&spec, 3);
        assert_eq!(data.feature_count(), 27);
        assert_eq!(data.train.len(), 700);
        // Normalized: per-feature means near zero.
        let col = data.train.features.col(0).unwrap();
        assert!(hd_tensor::stats::mean(&col).abs() < 1e-4);
    }

    #[test]
    fn functional_run_smoke() {
        let spec = registry::by_name("pamap2").unwrap();
        let data = functional_dataset(&spec, 4);
        let pipeline = Pipeline::new(functional_config().with_iterations(3));
        let run = run_functional(&pipeline, &data, ExecutionSetting::CpuBaseline);
        assert!(run.accuracy > 0.3);
    }
}
