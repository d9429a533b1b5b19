//! End-to-end contract of `hyperedge verify --schedule` and
//! `hyperedge verify --model-check`.
//!
//! Exercises the built binary: a clean run over the declared production
//! schedules exits 0, and a model that does not fit its buffer exits 1.
//! How the verifier reports a deliberately undersized channel is pinned
//! by the unit tests beside `run_verify_schedule` and
//! `run_verify_model_check`. Both clean text reports are pinned as exact
//! snapshots: the analysis and the exploration are deterministic (no
//! wall clock, no randomness), so the solved facts and the
//! state/transition counts are stable and any silent change to them
//! fails here. Zero `--members` or `--depth` is a usage error.

use std::process::{Command, Output};

fn run_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperedge"))
        .arg("verify")
        .args(args)
        .output()
        .expect("hyperedge binary runs")
}

#[test]
fn clean_schedules_exit_zero_with_per_graph_reports() {
    let out = run_verify(&["--schedule"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for graph in ["overlapped-invoke", "parallel-members", "two-device-serve"] {
        assert!(stdout.contains(graph), "missing {graph} in:\n{stdout}");
    }
    assert!(stdout.contains("critical path"), "{stdout}");
}

#[test]
fn schedule_output_is_an_exact_deterministic_snapshot() {
    // The report over all three production graphs is pinned verbatim:
    // repetition vectors, per-resource busy times and critical paths.
    let out = run_verify(&["--schedule"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "schedule `overlapped-invoke`: ok\n\
         \x20 repetition: dma_inx1 computex1 dma_outx1\n\
         \x20 busy device: 1.716e-3 s/iter\n\
         \x20 busy host: 0.000e0 s/iter\n\
         \x20 busy link: 8.627e-3 s/iter\n\
         \x20 critical path: 9.127e-3 s/iter (incl. overhead)\n\
         schedule `parallel-members`: ok\n\
         \x20 repetition: planx1 memberx8 mergex1\n\
         \x20 busy device: 0.000e0 s/iter\n\
         \x20 busy host: 9.260e-1 s/iter\n\
         \x20 busy link: 0.000e0 s/iter\n\
         \x20 critical path: 9.260e-1 s/iter (incl. overhead)\n\
         schedule `two-device-serve`: ok\n\
         \x20 repetition: encodex1 scorex1\n\
         \x20 busy device: 9.127e-3 s/iter\n\
         \x20 busy device1: 8.508e-3 s/iter\n\
         \x20 busy host: 0.000e0 s/iter\n\
         \x20 busy link: 0.000e0 s/iter\n\
         \x20 critical path: 9.127e-3 s/iter (incl. overhead)\n"
    );
}

#[test]
fn zero_members_is_a_usage_error() {
    let out = run_verify(&["--schedule", "--members", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--members must be at least 1"), "{stderr}");
}

#[test]
fn zero_depth_is_a_usage_error() {
    let out = run_verify(&["--model-check", "--depth", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--depth must be at least 1"), "{stderr}");
}

#[test]
fn over_capacity_model_exits_one() {
    let out = run_verify(&["--buffer", "1"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[verify/over-capacity]"), "{stdout}");
}

#[test]
fn sarif_catalog_registers_schedule_rules() {
    // Even a clean run must carry the full rule catalog so SARIF viewers
    // can resolve any result's ruleIndex.
    let out = run_verify(&["--schedule", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "schedule/rate-inconsistent",
        "schedule/buffer-undersized",
        "schedule/deadlock",
        "schedule/no-overlap",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn unknown_schedule_option_exits_two() {
    let out = run_verify(&["--schedule", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn json_output_carries_repetition_vectors_and_channel_bounds() {
    let out = run_verify(&["--schedule", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Solved facts, not just pass/fail: every schedule lists its
    // repetition vector and each channel's declared/minimal capacity.
    assert!(stdout.starts_with("{\"schedules\": ["), "{stdout}");
    for needle in [
        "\"name\": \"overlapped-invoke\"",
        "\"name\": \"parallel-members\"",
        "\"name\": \"two-device-serve\"",
        "{\"stage\": \"member\", \"firings\": 8}",
        "{\"channel\": \"encode -> score\", \"declared\": 2, \"minimum\": 1}",
        "{\"channel\": \"dma_in -> compute\", \"declared\": 2, \"minimum\": 1}",
        "{\"channel\": \"plan -> member\", \"declared\": 8, \"minimum\": 8}",
        "\"critical_path_s\": ",
        "\"diagnostics\": [",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn model_check_output_is_an_exact_deterministic_snapshot() {
    // The virtual scheduler is fully deterministic, so the clean run
    // over all three production graphs is pinned verbatim — including
    // the state/transition counts, so pruning can never change
    // silently.
    let out = run_verify(&["--model-check"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "model-check `overlapped-invoke`: ok (158 states, 210 transitions, depth 17)\n\
         model-check `parallel-members`: ok (6487 states, 14734 transitions, depth 87)\n\
         model-check `two-device-serve`: ok (46 states, 55 transitions, depth 10)\n"
    );
}

#[test]
fn model_check_json_carries_exploration_statistics() {
    let out = run_verify(&["--model-check", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"model_check\": ["), "{stdout}");
    for needle in [
        "\"graph\": \"overlapped-invoke\"",
        "\"graph\": \"two-device-serve\"",
        "\"explored\": {\"states\": 158, \"transitions\": 210, \"max_depth\": 17, \
         \"truncated\": false}",
        "\"violations\": 0",
        "\"diagnostics\": [",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn model_check_sarif_registers_interleaving_rules_and_counts() {
    let out = run_verify(&["--model-check", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "\"schedule/interleaving-deadlock\"",
        "\"schedule/interleaving-overflow\"",
        "\"schedule/interleaving-lost-token\"",
        "\"schedule/interleaving-livelock\"",
        "\"hyperedge-verify\"",
        "\"properties\": {\"model_check\": [",
        "\"transitions\": 14734",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn explicit_shallow_depth_truncates_with_a_warning_not_an_error() {
    // A user-requested depth below the analytic bound is ordinary
    // truncation: disclosed, but not treated as a livelock witness.
    let out = run_verify(&["--model-check", "--depth", "3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(TRUNCATED)"), "{stdout}");
    assert!(
        stdout.contains("warning[schedule/interleaving-livelock]"),
        "{stdout}"
    );
    assert!(!stdout.contains("error["), "{stdout}");
}

#[test]
fn sarif_run_properties_carry_the_schedule_summaries() {
    let out = run_verify(&["--schedule", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"properties\": {\"schedules\": ["),
        "{stdout}"
    );
    for needle in [
        "{\"stage\": \"compute\", \"firings\": 1}",
        "{\"channel\": \"member -> merge\", \"declared\": 8, \"minimum\": 8}",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}
