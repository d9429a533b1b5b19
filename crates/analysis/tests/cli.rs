//! End-to-end tests of the `hd-lint` binary: exit codes, allowlisting and
//! JSON output.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels below the root")
        .to_path_buf()
}

fn hd_lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hd-lint"))
}

/// A scratch directory under target/ so test fixtures never leave the
/// repository.
fn fixture_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    dir
}

#[test]
fn repository_lints_clean() {
    let output = hd_lint()
        .arg("--root")
        .arg(workspace_root())
        .arg("--deny-warnings")
        .output()
        .expect("run hd-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "hd-lint found violations in the repository:\n{stdout}"
    );
    assert!(
        stdout.contains("files scanned"),
        "summary missing:\n{stdout}"
    );
}

#[test]
fn seeded_violation_fails_with_exit_code_one() {
    let dir = fixture_dir("seeded-violation");
    let fixture = dir.join("violation.rs");
    std::fs::write(
        &fixture,
        "pub fn is_zero(a: f32) -> bool {\n    a == 0.0\n}\n",
    )
    .expect("write fixture");

    let output = hd_lint()
        .arg("--root")
        .arg(workspace_root())
        .arg(&fixture)
        .output()
        .expect("run hd-lint");
    assert_eq!(output.status.code(), Some(1), "violation must exit 1");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("lint/no-float-eq"),
        "wrong finding:\n{stdout}"
    );
}

#[test]
fn seeded_violation_can_be_allowlisted() {
    let dir = fixture_dir("allowlisted-violation");
    let fixture = dir.join("violation.rs");
    std::fs::write(
        &fixture,
        "pub fn is_zero(a: f32) -> bool {\n    a == 0.0\n}\n",
    )
    .expect("write fixture");
    let allowlist = dir.join("lint.toml");
    std::fs::write(
        &allowlist,
        "[[allow]]\nrule = \"no-float-eq\"\npath = \"violation.rs\"\nreason = \"fixture\"\n",
    )
    .expect("write allowlist");

    let output = hd_lint()
        .arg("--root")
        .arg(workspace_root())
        .arg("--allowlist")
        .arg(&allowlist)
        .arg(&fixture)
        .output()
        .expect("run hd-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "allowlisted finding must exit 0:\n{stdout}"
    );
    assert!(
        stdout.contains("1 allowlisted"),
        "not suppressed:\n{stdout}"
    );
}

#[test]
fn json_output_snapshot() {
    let dir = fixture_dir("json-snapshot");
    let fixture = dir.join("violation.rs");
    std::fs::write(
        &fixture,
        "pub fn f(v: &[f32]) -> f32 {\n    if v[0] != 1.0 { 2.0 } else { 3.0 }\n}\n",
    )
    .expect("write fixture");

    let output = hd_lint()
        .arg("--root")
        .arg(workspace_root())
        .arg("--format")
        .arg("json")
        .arg(&fixture)
        .output()
        .expect("run hd-lint");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let file = fixture.strip_prefix(workspace_root()).unwrap_or(&fixture);
    let expected = format!(
        r#"[
  {{"severity": "error", "code": "lint/no-float-eq", "message": "exact float comparison ` != 1.0`", "site": {{"kind": "source", "file": "{}", "line": 2, "column": 13}}, "help": "compare against a tolerance, or allowlist if exact-zero is intended"}}
]
"#,
        file.display()
    );
    assert_eq!(stdout, expected);
}

#[test]
fn malformed_allowlist_is_a_usage_error() {
    let dir = fixture_dir("bad-allowlist");
    let allowlist = dir.join("lint.toml");
    std::fs::write(&allowlist, "[[allow]]\nrule = \"no-such-rule\"\n").expect("write allowlist");
    let output = hd_lint()
        .arg("--root")
        .arg(workspace_root())
        .arg("--allowlist")
        .arg(&allowlist)
        .output()
        .expect("run hd-lint");
    assert_eq!(output.status.code(), Some(2), "bad allowlist must exit 2");
}

/// The README's rules table is the `--list-rules` catalog rendered as
/// Markdown: one row per registered rule, in catalog order, with the
/// same severity and description.
#[test]
fn readme_rule_table_matches_the_registered_rules() {
    let readme =
        std::fs::read_to_string(workspace_root().join("README.md")).expect("read README.md");
    let rows: Vec<(String, String, String)> = readme
        .lines()
        .skip_while(|line| *line != "| Rule | Severity | Description |")
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells = line
                .strip_prefix("| ")
                .and_then(|l| l.strip_suffix(" |"))
                .unwrap_or_else(|| panic!("malformed table row: {line}"));
            let mut cells = cells.splitn(3, " | ");
            let mut cell = || cells.next().unwrap_or_default().to_string();
            (cell().trim_matches('`').to_string(), cell(), cell())
        })
        .collect();
    let registered: Vec<(String, String, String)> = hd_analysis::sarif::registered_rules()
        .into_iter()
        .map(|(id, rule)| {
            (
                id,
                rule.severity.name().to_string(),
                rule.description.to_string(),
            )
        })
        .collect();
    assert_eq!(rows, registered);
}
