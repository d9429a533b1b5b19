//! Workspace driver: file discovery, rule execution, allowlist filtering
//! and report formatting.

use std::path::{Path, PathBuf};

use crate::allowlist::Allowlist;
use crate::lexer::MaskedSource;
use crate::rules::lint_source;
use wide_nn::diag::{Diagnostic, Severity};

/// Directories scanned relative to the workspace root. The `compat/`
/// shims are vendored stand-ins for external crates and are exempt, like
/// any other third-party dependency would be.
const SCAN_DIRS: &[&str] = &["crates", "tests", "examples"];

/// A finished lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// Findings that survived the allowlist, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by the allowlist (kept for `--show-allowed`).
    pub suppressed: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Count of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the run should fail the build.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0)
    }

    /// Human-readable multi-line report with a trailing summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} files scanned: {} error(s), {} warning(s), {} note(s), {} allowlisted\n",
            self.files_scanned,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            self.suppressed.len(),
        ));
        out
    }
}

/// Lints one in-memory file (used by the CLI for explicit paths and by
/// tests for inline fixtures). `rel_path` selects hot-path handling.
pub fn lint_text(rel_path: &str, source: &str, allowlist: &Allowlist) -> LintReport {
    let masked = MaskedSource::new(source);
    let mut report = LintReport {
        files_scanned: 1,
        ..LintReport::default()
    };
    for diag in lint_source(rel_path, &masked) {
        if allowlist.suppresses(&diag) {
            report.suppressed.push(diag);
        } else {
            report.diagnostics.push(diag);
        }
    }
    report
}

/// Recursively collects `.rs` files under the standard scan dirs.
///
/// # Errors
///
/// Returns an IO error description if a directory walk fails.
pub fn discover_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let base = root.join(dir);
        if base.is_dir() {
            walk(&base, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source file under `root`, then reports each
/// allowlist entry that suppressed nothing as a `lint/stale-allow`
/// warning sited at its `[[allow]]` line in `lint.toml`.
///
/// # Errors
///
/// Returns an IO error description if discovery or reading fails.
pub fn lint_workspace(root: &Path, allowlist: &Allowlist) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    for path in discover_files(root)? {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let file_report = lint_text(&rel, &source, allowlist);
        report.diagnostics.extend(file_report.diagnostics);
        report.suppressed.extend(file_report.suppressed);
        report.files_scanned += 1;
    }
    for entry in allowlist.stale_entries(&report.suppressed) {
        report.diagnostics.push(
            Diagnostic::warning(
                "lint/stale-allow",
                format!(
                    "[[allow]] entry for `{}` in `{}` suppressed nothing",
                    entry.rule, entry.path
                ),
            )
            .at_source("lint.toml", entry.line, 1)
            .with_help("delete the entry; the code it exempted is gone or now passes"),
        );
    }
    Ok(report)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_text_applies_allowlist() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-float-eq\"\npath = \"crates/x/src/lib.rs\"\nreason = \"exact zero intended\"\n",
        )
        .unwrap();
        let src = "fn f(x: f32) -> bool { x == 0.0 }\n";
        let with = lint_text("crates/x/src/lib.rs", src, &allow);
        assert!(with.diagnostics.is_empty(), "{:?}", with.diagnostics);
        assert_eq!(with.suppressed.len(), 1);
        let without = lint_text("crates/x/src/lib.rs", src, &Allowlist::default());
        assert_eq!(without.count(Severity::Error), 1);
        assert!(without.fails(false));
    }

    #[test]
    fn deny_warnings_escalates() {
        let src = "impl B { pub fn with_x(self) -> Self { self } }\n";
        let report = lint_text("crates/x/src/lib.rs", src, &Allowlist::default());
        assert_eq!(report.count(Severity::Warning), 1);
        assert!(!report.fails(false));
        assert!(report.fails(true));
    }

    #[test]
    fn text_report_has_summary() {
        let report = lint_text(
            "crates/x/src/lib.rs",
            "fn f(x: f32) -> bool { x == 0.0 }\n",
            &Allowlist::default(),
        );
        let text = report.to_text();
        assert!(text.contains("lint/no-float-eq"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn stale_allowlist_entry_is_a_warning() {
        let root = std::env::temp_dir().join(format!("hd-lint-stale-{}", std::process::id()));
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(src.join("lib.rs"), "fn f(x: f32) -> bool { x == 0.0 }\n").unwrap();
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"no-float-eq\"\npath = \"crates/x/src/lib.rs\"\nreason = \"used\"\n\
             [[allow]]\nrule = \"no-float-eq\"\npath = \"crates/y/src/lib.rs\"\nreason = \"stale\"\n",
        )
        .unwrap();
        let report = lint_workspace(&root, &allow).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let stale = &report.diagnostics[0];
        assert_eq!(stale.code, "lint/stale-allow");
        assert_eq!(stale.severity, Severity::Warning);
        assert!(
            stale.message.contains("crates/y/src/lib.rs"),
            "{}",
            stale.message
        );
        assert!(matches!(
            &stale.site,
            wide_nn::Site::Source { file, line: 5, .. } if file == "lint.toml"
        ));
        assert!(!report.fails(false));
        assert!(report.fails(true));
    }

    #[test]
    fn workspace_root_detection_finds_this_repo() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates/analysis").is_dir());
    }

    #[test]
    fn discovery_finds_this_file_but_not_compat() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = discover_files(&root).unwrap();
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/analysis/src/engine.rs")));
        assert!(!files
            .iter()
            .any(|p| p.to_string_lossy().contains("compat/")));
    }
}
