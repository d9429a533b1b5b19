//! The `lint` and `verify` static-check subcommands.
//!
//! ```text
//! hyperedge lint   [--format text|json|sarif] [--deny-warnings]
//! hyperedge verify [--features N] [--dim D] [--classes K]
//!                  [--buffer BYTES] [--ranges] [--format text|json|sarif]
//! hyperedge verify --schedule [--members M] [--format text|json|sarif]
//! hyperedge verify --model-check [--depth N] [--members M]
//!                  [--format text|json|sarif]
//! ```
//!
//! `lint` runs the `hd-analysis` workspace lint engine (the same pass as
//! the standalone `hd-lint` binary) with the root `lint.toml` allowlist.
//! `verify` builds the paper's wide inference network at the given shape
//! and runs the `wide-nn` static model-graph verifier against the target,
//! printing the structured diagnostics — the compile-time contract check
//! without compiling or quantizing anything. With `--ranges` it also
//! quantizes the model against a deterministic calibration set and runs
//! the interval abstract interpretation ([`wide_nn::absint`]), reporting
//! per-stage accumulator and output bounds; a model whose worst-case
//! accumulator exceeds the i32 datapath fails the check (exit 1).
//!
//! `verify --schedule` reports the runtime validator's verdict on the
//! framework's three production SDF schedules (the double-buffered
//! device invoke, parallel bagged-member training and two-device
//! serving): repetition vectors, buffer bounds, deadlock-freedom, and
//! the analytic critical path. `--members` re-declares the bagging
//! fan-out and must be at least 1.
//!
//! `verify --model-check` goes one level deeper: it hands the same
//! three production schedules to the exhaustive interleaving model
//! checker
//! ([`hd_analysis::dataflow::check_interleavings`]), which replays the
//! runtime's per-token channel semantics over every reachable schedule
//! order — with stop and executor-error faults injected at every
//! reachable firing — and reports `schedule/interleaving-*` findings.
//! The explored state and transition counts are always printed (and
//! carried in the JSON/SARIF output), so a truncated search can never
//! pass silently; `--depth N` (at least 1) bounds the explored depth
//! explicitly.
//!
//! These flags include bare booleans (`--deny-warnings`), so the two
//! subcommands parse their own arguments instead of going through
//! [`crate::args::ParsedArgs`], and they follow the check exit-status
//! contract shared with `hd-lint`: 0 clean, 1 findings, 2 usage or IO
//! error.

use std::process::ExitCode;

use hd_analysis::dataflow::{
    analyze, check_interleavings, min_capacity, CheckConfig, InterleavingReport, ScheduleReport,
    SdfGraph,
};
use hd_analysis::{engine, json, sarif, Allowlist};
use hd_tensor::Matrix;
use hyperedge::schedule;
use wide_nn::{verify_model, Activation, ModelBuilder, NnError, QuantizedModel, TargetSpec};

const CHECKS_USAGE: &str = "usage: hyperedge <lint|verify> [options]\n\
    \n\
    hyperedge lint   [--format text|json|sarif] [--deny-warnings]\n\
    hyperedge verify [--features N] [--dim D] [--classes K] \
[--buffer BYTES] [--ranges] [--format text|json|sarif]\n\
    hyperedge verify --schedule [--members M] [--format text|json|sarif]\n\
    hyperedge verify --model-check [--depth N] [--members M] \
[--format text|json|sarif]";

/// Driver name stamped into SARIF output from the verify subcommand.
const VERIFY_DRIVER: &str = "hyperedge-verify";

/// Dispatches `hyperedge lint` / `hyperedge verify`.
#[must_use]
pub fn run(command: &str, args: &[String]) -> ExitCode {
    let result = match command {
        "lint" => run_lint(args),
        "verify" => run_verify(args),
        other => Err(format!(
            "unknown check subcommand {other:?}\n{CHECKS_USAGE}"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hyperedge: {message}");
            ExitCode::from(2)
        }
    }
}

/// Output format of the check subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn parse_format(value: Option<&String>) -> Result<Format, String> {
    match value.map(String::as_str) {
        Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some("sarif") => Ok(Format::Sarif),
        _ => Err("--format must be text, json or sarif".to_owned()),
    }
}

/// Runs the workspace lint pass; returns `Ok(true)` when clean.
fn run_lint(args: &[String]) -> Result<bool, String> {
    let mut format = Format::Text;
    let mut deny_warnings = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format(it.next())?,
            "--deny-warnings" => deny_warnings = true,
            other => return Err(format!("unknown lint option {other:?}\n{CHECKS_USAGE}")),
        }
    }

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = engine::find_workspace_root(&cwd)
        .ok_or("no workspace root found above the current directory")?;
    let allowlist = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => Allowlist::parse(&text).map_err(|e| format!("lint.toml: {e}"))?,
        Err(_) => Allowlist::default(),
    };
    let report = engine::lint_workspace(&root, &allowlist)?;
    match format {
        Format::Json => println!("{}", json::encode(&report.diagnostics)),
        Format::Sarif => println!("{}", sarif::encode(&report.diagnostics)),
        Format::Text => print!("{}", report.to_text()),
    }
    Ok(!report.fails(deny_warnings))
}

/// Renders the solved schedule facts — per-stage repetition counts,
/// per-channel declared/minimal capacities, and the analytic critical
/// path — as a JSON array, one object per schedule. Graphs the runtime
/// refuses carry `null` repetition and critical path, so a consumer can
/// still see what was declared against each channel's minimum.
fn schedules_summary_json(pairs: &[(SdfGraph, ScheduleReport)]) -> String {
    let mut out = String::from("[");
    for (g, (graph, report)) in pairs.iter().enumerate() {
        if g > 0 {
            out.push_str(", ");
        }
        let analysis = report.analysis.as_ref();
        out.push('{');
        out.push_str(&format!("\"name\": {}, ", json::escape(graph.name())));
        out.push_str("\"repetition\": ");
        match analysis {
            Some(a) => {
                out.push('[');
                for (i, (name, firings)) in a.stage_names.iter().zip(&a.repetition).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"stage\": {}, \"firings\": {firings}}}",
                        json::escape(name)
                    ));
                }
                out.push(']');
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"channels\": [");
        for (i, channel) in graph.channels().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"channel\": {}, \"declared\": ",
                json::escape(&graph.channel_label(channel))
            ));
            match channel.capacity {
                Some(declared) => out.push_str(&declared.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(", \"minimum\": {}}}", min_capacity(channel)));
        }
        out.push_str("], \"critical_path_s\": ");
        match analysis {
            Some(a) => out.push_str(&format!("{}", a.critical_path_s)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Runs the static dataflow-schedule analyzer over `graphs`; returns
/// the rendered report and whether no graph has an error.
///
/// JSON and SARIF output carry the solved facts, not just pass/fail: the
/// repetition vector and the computed minimal bound per channel ride
/// alongside the diagnostics (as a `schedules` key in JSON, and as the
/// SARIF run's property bag).
fn run_verify_schedule(graphs: Vec<SdfGraph>, format: Format) -> (String, bool) {
    let pairs: Vec<_> = graphs
        .into_iter()
        .map(|graph| {
            let report = analyze(&graph);
            (graph, report)
        })
        .collect();
    let any_errors = pairs.iter().any(|(_, r)| r.has_errors());
    let diagnostics = || -> Vec<_> {
        pairs
            .iter()
            .flat_map(|(_, r)| r.diagnostics.iter().cloned())
            .collect()
    };
    let text = match format {
        Format::Text => pairs.iter().map(|(_, report)| report.to_string()).collect(),
        Format::Json => format!(
            "{{\"schedules\": {}, \"diagnostics\": {}}}\n",
            schedules_summary_json(&pairs),
            json::encode(&diagnostics())
        ),
        Format::Sarif => {
            let properties = format!("{{\"schedules\": {}}}", schedules_summary_json(&pairs));
            format!(
                "{}\n",
                sarif::encode_with_properties(VERIFY_DRIVER, &diagnostics(), Some(&properties))
            )
        }
    };
    (text, !any_errors)
}

/// Renders the exploration statistics of every model-checked schedule
/// as a JSON array: state/transition counts, the deepest interleaving
/// seen, whether the search was truncated, and the violation count.
/// Graphs with no repetition vector (nothing to explore) carry `null`
/// statistics.
fn model_check_summary_json(reports: &[InterleavingReport]) -> String {
    let mut out = String::from("[");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        out.push_str(&format!("\"graph\": {}, ", json::escape(&report.graph)));
        out.push_str("\"explored\": ");
        match &report.check {
            Some(check) => out.push_str(&format!(
                "{{\"states\": {}, \"transitions\": {}, \"max_depth\": {}, \"truncated\": {}}}",
                check.states, check.transitions, check.max_depth_seen, check.truncated
            )),
            None => out.push_str("null"),
        }
        out.push_str(&format!(", \"violations\": {}", report.diagnostics.len()));
        out.push('}');
    }
    out.push(']');
    out
}

/// Runs the exhaustive interleaving model checker over `graphs`;
/// returns the rendered report and whether no graph has an
/// error-severity finding.
///
/// Every output format discloses how much was explored (states,
/// transitions, deepest interleaving, truncation), so a search cut
/// short by the state budget or an explicit `--depth` bound is visible
/// even when no violation was found.
fn run_verify_model_check(
    graphs: &[SdfGraph],
    depth: Option<usize>,
    format: Format,
) -> (String, bool) {
    let cfg = CheckConfig {
        max_depth: depth,
        ..CheckConfig::default()
    };
    let reports: Vec<InterleavingReport> = graphs
        .iter()
        .map(|graph| check_interleavings(graph, &cfg))
        .collect();
    let any_errors = reports.iter().any(InterleavingReport::has_errors);
    let diagnostics = || -> Vec<_> {
        reports
            .iter()
            .flat_map(|r| r.diagnostics.iter().cloned())
            .collect()
    };
    let text = match format {
        Format::Text => {
            let mut text = String::new();
            for report in &reports {
                let verdict = if report.has_errors() {
                    "REJECTED"
                } else {
                    "ok"
                };
                text.push_str(&format!(
                    "model-check `{}`: {verdict} ({})\n",
                    report.graph,
                    report.coverage()
                ));
                for d in &report.diagnostics {
                    text.push_str(&format!("  {d}\n"));
                }
            }
            text
        }
        Format::Json => format!(
            "{{\"model_check\": {}, \"diagnostics\": {}}}\n",
            model_check_summary_json(&reports),
            json::encode(&diagnostics())
        ),
        Format::Sarif => {
            let properties = format!(
                "{{\"model_check\": {}}}",
                model_check_summary_json(&reports)
            );
            format!(
                "{}\n",
                sarif::encode_with_properties(VERIFY_DRIVER, &diagnostics(), Some(&properties))
            )
        }
    };
    (text, !any_errors)
}

/// Builds the paper's `features -> dim -> classes` wide inference network
/// and statically verifies it; returns `Ok(true)` when the model passes.
fn run_verify(args: &[String]) -> Result<bool, String> {
    let mut features = 784usize;
    let mut dim = 10_000usize;
    let mut classes = 10usize;
    let mut buffer = TargetSpec::default().param_buffer_bytes;
    let mut ranges = false;
    let mut format = Format::Text;
    let mut schedule_mode = false;
    let mut model_check_mode = false;
    let mut depth: Option<usize> = None;
    let mut members = 8usize;
    let mut it = args.iter();
    let parse_usize = |value: Option<&String>, flag: &str| -> Result<usize, String> {
        value
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let parse_positive = |value: Option<&String>, flag: &str| -> Result<usize, String> {
        match parse_usize(value, flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--features" => features = parse_usize(it.next(), "--features")?,
            "--dim" => dim = parse_usize(it.next(), "--dim")?,
            "--classes" => classes = parse_usize(it.next(), "--classes")?,
            "--buffer" => buffer = parse_usize(it.next(), "--buffer")?,
            "--ranges" => ranges = true,
            "--schedule" => schedule_mode = true,
            "--model-check" => model_check_mode = true,
            "--depth" => depth = Some(parse_positive(it.next(), "--depth")?),
            "--members" => members = parse_positive(it.next(), "--members")?,
            "--format" => format = parse_format(it.next())?,
            other => return Err(format!("unknown verify option {other:?}\n{CHECKS_USAGE}")),
        }
    }
    if model_check_mode || schedule_mode {
        let (text, ok) = if model_check_mode {
            run_verify_model_check(&schedule::production_schedules(members), depth, format)
        } else {
            run_verify_schedule(schedule::production_schedules(members), format)
        };
        print!("{text}");
        return Ok(ok);
    }

    let defaults = TargetSpec::default();
    let target = TargetSpec::try_new(
        &defaults.name,
        defaults.array_rows,
        defaults.array_cols,
        buffer,
    )
    .map_err(|e| e.to_string())?;
    let model = ModelBuilder::new(features)
        .fully_connected(Matrix::filled(features, dim, 0.1))
        .map(|b| b.activation(Activation::Tanh))
        .and_then(|b| b.fully_connected(Matrix::filled(dim, classes, 0.1)))
        .and_then(|b| b.build())
        .map_err(|e| e.to_string())?;
    let report = verify_model(&model, &target);

    // With --ranges, quantize against a deterministic, all-positive
    // calibration set (worst case for the zero-point offset term) and run
    // the interval abstract interpretation over the quantized graph.
    let mut range_diags = Vec::new();
    let mut range_text = String::new();
    let mut range_failed = false;
    if ranges {
        let calibration = Matrix::from_fn(8, features, |r, c| ((r * 31 + c) % 97) as f32 / 96.0);
        match QuantizedModel::quantize_checked(&model, &calibration, false) {
            // A report that comes back has no errors: quantization
            // rejects overflowing models itself.
            Ok((_, range_report)) => {
                range_diags.extend(range_report.diagnostics().iter().cloned());
                range_text = format!("{range_report}");
            }
            // Surface the rejection's diagnostics as the report.
            Err(NnError::Verification { diagnostics }) => {
                range_failed = true;
                range_text = diagnostics
                    .iter()
                    .map(|d| format!("{d}\n"))
                    .collect::<String>();
                range_diags.extend(diagnostics);
            }
            Err(other) => return Err(other.to_string()),
        }
    }

    match format {
        Format::Json | Format::Sarif => {
            let mut diagnostics: Vec<_> = report.diagnostics().to_vec();
            diagnostics.extend(range_diags);
            if format == Format::Json {
                println!("{}", json::encode(&diagnostics));
            } else {
                println!("{}", sarif::encode_as(VERIFY_DRIVER, &diagnostics));
            }
        }
        Format::Text => {
            print!("{report}");
            println!(
                "model {features}x{dim}x{classes}: {} parameter bytes against a {} byte buffer",
                report.param_bytes_required(),
                target.param_buffer_bytes
            );
            print!("{range_text}");
        }
    }
    Ok(!report.has_errors() && !range_failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_analysis::dataflow::Resource;

    /// The production schedules with a mutant declared second: a
    /// two-stage device-encode → host-update graph whose chunk channel
    /// has no room at all.
    fn with_undersized_mutant(mut graphs: Vec<SdfGraph>) -> Vec<SdfGraph> {
        let mut mutant = SdfGraph::new("encode-update");
        let encode = mutant.add_stage("encode", Resource::DEVICE, 3e-3);
        let update = mutant.add_stage("update", Resource::Host, 1e-3);
        mutant.add_channel(encode, update, 1, 1, Some(0));
        graphs.insert(1, mutant);
        graphs
    }

    #[test]
    fn undersized_channel_fails_with_sarif_minimum() {
        let graphs = with_undersized_mutant(schedule::production_schedules(8));
        let (text, ok) = run_verify_schedule(graphs, Format::Sarif);
        assert!(!ok, "{text}");
        assert!(text.contains("\"schedule/buffer-undersized\""), "{text}");
        assert!(text.contains("minimal safe bound 1"), "{text}");
        assert!(text.contains("\"hyperedge-verify\""), "{text}");
    }

    #[test]
    fn undersized_json_reports_declared_zero_against_minimum_one() {
        let graphs = with_undersized_mutant(schedule::production_schedules(8));
        let (text, ok) = run_verify_schedule(graphs, Format::Json);
        assert!(!ok, "{text}");
        assert!(
            text.contains("{\"channel\": \"encode -> update\", \"declared\": 0, \"minimum\": 1}"),
            "{text}"
        );
        assert!(text.contains("schedule/buffer-undersized"), "{text}");
    }

    #[test]
    fn model_check_flags_the_undersized_mutant_with_interleaving_deadlock() {
        let graphs = with_undersized_mutant(schedule::production_schedules(8));
        let (text, ok) = run_verify_model_check(&graphs, None, Format::Text);
        assert!(!ok, "{text}");
        assert!(
            text.contains("error[schedule/interleaving-deadlock]"),
            "{text}"
        );
        assert!(
            text.contains("`encode` is waiting for space on `encode -> update`"),
            "{text}"
        );
        // The healthy graphs still report their coverage around the mutant.
        assert!(
            text.contains("model-check `parallel-members`: ok"),
            "{text}"
        );
    }

    #[test]
    fn model_check_diagnostic_order_is_deterministic_across_graphs() {
        // Diagnostics come out in graph declaration order, and inside each
        // graph sorted by (stage index, channel index) with whole-search
        // findings last — pinned here as the exact code sequence.
        let graphs = with_undersized_mutant(schedule::production_schedules(8));
        let (text, ok) = run_verify_model_check(&graphs, Some(3), Format::Text);
        assert!(!ok, "{text}");
        let codes: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                let l = l.trim_start();
                (l.starts_with("error[") || l.starts_with("warning[")).then(|| {
                    let end = l.find(']').unwrap();
                    &l[..=end]
                })
            })
            .collect();
        assert_eq!(
            codes,
            vec![
                "warning[schedule/interleaving-livelock]",
                "error[schedule/interleaving-deadlock]",
                "warning[schedule/interleaving-livelock]",
                "warning[schedule/interleaving-livelock]",
            ],
            "{text}"
        );
    }
}
