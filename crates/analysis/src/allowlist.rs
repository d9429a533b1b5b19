//! The per-rule lint allowlist (`lint.toml` at the repository root).
//!
//! Format — a TOML subset of repeated `[[allow]]` tables with three
//! mandatory string keys:
//!
//! ```toml
//! [[allow]]
//! rule = "no-float-eq"
//! path = "crates/tensor/src/gemm.rs"
//! reason = "exact-zero sparsity test in the inner kernel"
//! ```
//!
//! `rule` must be one of the known rule names, `path` matches any file
//! whose workspace-relative path ends with it, and `reason` is mandatory:
//! an allowlist entry without a human justification is itself an error.
//! An entry that suppresses nothing in a workspace run is reported as a
//! `lint/stale-allow` warning (see [`crate::lint_workspace`]), so an
//! exemption cannot outlive the code it was written for.

use crate::rules::RULE_NAMES;
use wide_nn::diag::Diagnostic;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule name without the `lint/` prefix.
    pub rule: String,
    /// Workspace-relative path suffix the entry applies to.
    pub path: String,
    /// Why the violation is acceptable.
    pub reason: String,
    /// One-based `lint.toml` line of the entry's `[[allow]]` header.
    pub line: usize,
}

/// A parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

/// A parse/validation failure with its `lint.toml` line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistError {
    /// One-based line the problem was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for AllowlistError {}

impl Allowlist {
    /// Parses the `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns an [`AllowlistError`] on malformed lines, unknown keys or
    /// rules, and entries missing `rule`, `path` or `reason`.
    pub fn parse(text: &str) -> Result<Self, AllowlistError> {
        let mut entries = Vec::new();
        let mut current: Option<(usize, AllowEntry)> = None;

        let finish = |current: &mut Option<(usize, AllowEntry)>,
                      entries: &mut Vec<AllowEntry>|
         -> Result<(), AllowlistError> {
            if let Some((start, entry)) = current.take() {
                for (field, value) in [
                    ("rule", &entry.rule),
                    ("path", &entry.path),
                    ("reason", &entry.reason),
                ] {
                    if value.is_empty() {
                        return Err(AllowlistError {
                            line: start,
                            message: format!("[[allow]] entry is missing `{field}`"),
                        });
                    }
                }
                if !RULE_NAMES.contains(&entry.rule.as_str()) {
                    return Err(AllowlistError {
                        line: start,
                        message: format!(
                            "unknown rule {:?}; known rules: {}",
                            entry.rule,
                            RULE_NAMES.join(", ")
                        ),
                    });
                }
                entries.push(entry);
            }
            Ok(())
        };

        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut current, &mut entries)?;
                current = Some((
                    lineno,
                    AllowEntry {
                        rule: String::new(),
                        path: String::new(),
                        reason: String::new(),
                        line: lineno,
                    },
                ));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowlistError {
                    line: lineno,
                    message: format!("expected `key = \"value\"` or `[[allow]]`, got {line:?}"),
                });
            };
            let Some((_, entry)) = current.as_mut() else {
                return Err(AllowlistError {
                    line: lineno,
                    message: "key outside an [[allow]] table".to_owned(),
                });
            };
            let value = value.trim();
            let unquoted = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| AllowlistError {
                    line: lineno,
                    message: format!("value must be a double-quoted string, got {value:?}"),
                })?;
            match key.trim() {
                "rule" => entry.rule = unquoted.to_owned(),
                "path" => entry.path = unquoted.to_owned(),
                "reason" => entry.reason = unquoted.to_owned(),
                other => {
                    return Err(AllowlistError {
                        line: lineno,
                        message: format!("unknown key {other:?}; expected rule, path or reason"),
                    });
                }
            }
        }
        finish(&mut current, &mut entries)?;
        Ok(Allowlist { entries })
    }

    /// The parsed entries.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Whether `diag` (a `lint/<rule>` finding at a source site) is
    /// suppressed by some entry.
    pub fn suppresses(&self, diag: &Diagnostic) -> bool {
        self.entry_for(diag).is_some()
    }

    /// The first entry suppressing `diag`, if any.
    pub fn entry_for(&self, diag: &Diagnostic) -> Option<&AllowEntry> {
        let wide_nn::Site::Source { file, .. } = &diag.site else {
            return None;
        };
        self.entries.iter().find(|e| {
            diag.code == format!("lint/{}", e.rule)
                && (file == &e.path || file.ends_with(&format!("/{}", e.path)))
        })
    }

    /// The entries that suppress none of `suppressed` — the findings a run
    /// filtered through this allowlist. An entry shadowed by an earlier
    /// one for the same rule and file is stale too.
    pub(crate) fn stale_entries(&self, suppressed: &[Diagnostic]) -> Vec<&AllowEntry> {
        let used: Vec<&AllowEntry> = suppressed
            .iter()
            .filter_map(|d| self.entry_for(d))
            .collect();
        self.entries
            .iter()
            .filter(|e| !used.iter().any(|u| std::ptr::eq(*u, *e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# exact-zero checks are intentional in the sparse kernels
[[allow]]
rule = "no-float-eq"
path = "crates/tensor/src/gemm.rs"
reason = "exact-zero sparsity test"

[[allow]]
rule = "no-panic-in-hot-path"
path = "crates/tensor/src/gemm.rs"
reason = "bounds-checked block windows"
"#;

    #[test]
    fn parses_entries() {
        let list = Allowlist::parse(GOOD).unwrap();
        assert_eq!(list.entries().len(), 2);
        assert_eq!(list.entries()[0].rule, "no-float-eq");
    }

    #[test]
    fn missing_reason_rejected() {
        let err =
            Allowlist::parse("[[allow]]\nrule = \"no-float-eq\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = Allowlist::parse(
            "[[allow]]\nrule = \"no-such-rule\"\npath = \"x.rs\"\nreason = \"r\"\n",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown rule"), "{err}");
    }

    #[test]
    fn unknown_key_rejected() {
        let err = Allowlist::parse("[[allow]]\nfile = \"x.rs\"\n").unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unquoted_value_rejected() {
        let err = Allowlist::parse("[[allow]]\nrule = no-float-eq\n").unwrap_err();
        assert!(err.message.contains("double-quoted"), "{err}");
    }

    #[test]
    fn suppression_matches_rule_and_path_suffix() {
        let list = Allowlist::parse(GOOD).unwrap();
        let hit = Diagnostic::error("lint/no-float-eq", "x == 0.0").at_source(
            "crates/tensor/src/gemm.rs",
            3,
            4,
        );
        assert!(list.suppresses(&hit));
        let wrong_rule = Diagnostic::error("lint/missing-must-use", "m").at_source(
            "crates/tensor/src/gemm.rs",
            3,
            4,
        );
        assert!(!list.suppresses(&wrong_rule));
        let wrong_file = Diagnostic::error("lint/no-float-eq", "x == 0.0").at_source(
            "crates/nn/src/lib.rs",
            1,
            1,
        );
        assert!(!list.suppresses(&wrong_file));
        let global = Diagnostic::error("lint/no-float-eq", "g");
        assert!(!list.suppresses(&global));
    }

    #[test]
    fn empty_text_is_empty_allowlist() {
        assert!(Allowlist::parse("").unwrap().entries().is_empty());
    }
}
