//! End-to-end contract of `hyperedge verify --ranges`.
//!
//! Exercises the built binary on a small wide network and pins its text
//! and JSON output exactly: the calibration set is deterministic, so the
//! interval bounds and the saturation finding are stable, and a change to
//! how the range report is produced or printed fails here.

use std::process::Command;

/// Runs `hyperedge verify --ranges` on a 16 -> 64 -> 4 network; returns
/// the exit code and stdout.
fn verify_ranges(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperedge"))
        .args([
            "verify",
            "--features",
            "16",
            "--dim",
            "64",
            "--classes",
            "4",
            "--ranges",
        ])
        .args(extra)
        .output()
        .expect("hyperedge binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

const SATURATION_MESSAGE: &str = "stage 0 (fully-connected): 100% of output columns can \
    saturate int8 requantization (warn threshold 25%)";

const SATURATION_HELP: &str = "the calibrated output range under-covers the worst case; \
    widen the calibration batch or rescale the layer's weights";

#[test]
fn ranges_text_reports_every_stage_bound() {
    let (code, stdout) = verify_ranges(&[]);
    assert_eq!(code, Some(0), "{stdout}");
    let expected = format!(
        "model 16x64x4: 1536 parameter bytes against a 8388608 byte buffer\n\
         warning[range/output-saturation]: {SATURATION_MESSAGE} (layer 0 (fully-connected))\n  \
         help: {SATURATION_HELP}\n\
         ranges: input q in [-128, 127]\n\
         ranges: stage 0 fully-connected: acc in [0, 518160], out q in [-128, 127] \
         (100% of columns can saturate)\n\
         ranges: stage 1 lut: out q in [-128, 127]\n\
         ranges: stage 2 fully-connected: acc in [0, 2072640], out q in [-128, 127]\n"
    );
    assert_eq!(stdout, expected);
}

#[test]
fn ranges_json_carries_the_saturation_warning() {
    let (code, stdout) = verify_ranges(&["--format", "json"]);
    assert_eq!(code, Some(0), "{stdout}");
    let expected = format!(
        "[\n  {{\"severity\": \"warning\", \"code\": \"range/output-saturation\", \
         \"message\": \"{SATURATION_MESSAGE}\", \
         \"site\": {{\"kind\": \"layer\", \"index\": 0, \"layer\": \"fully-connected\"}}, \
         \"help\": \"{SATURATION_HELP}\"}}\n]\n"
    );
    assert_eq!(stdout, expected);
}
