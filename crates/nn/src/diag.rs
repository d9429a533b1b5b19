//! Structured diagnostics shared by the static analysis passes.
//!
//! Both the model-graph verifier in this crate ([`crate::verify`]) and the
//! workspace lint engine (`hd-analysis`) report findings as [`Diagnostic`]
//! values: a severity, a stable `area/rule` code, a human message, an
//! optional site (a source location for lints, a layer index for graph
//! checks) and an optional help string. Keeping one diagnostic currency
//! lets the `hd-lint` driver merge source-level and graph-level findings
//! into a single report with one output format.

/// How bad a finding is.
///
/// Ordering is by increasing severity, so `max()` over a report yields the
/// worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a check.
    Note,
    /// Suspicious but allowed; fails only under a deny-warnings policy.
    Warning,
    /// A contract violation; the producing check fails.
    Error,
}

impl Severity {
    /// Stable lower-case name (`"note"` / `"warning"` / `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the stable name back into a severity.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// Where a finding is anchored.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Site {
    /// No meaningful anchor (whole-model / whole-workspace findings).
    Global,
    /// A layer of a model graph.
    Layer {
        /// Zero-based layer index in execution order.
        index: usize,
        /// Stable layer name (e.g. `"fully-connected"`).
        layer: String,
    },
    /// A location in a source file.
    Source {
        /// Path relative to the workspace root.
        file: String,
        /// One-based line number.
        line: usize,
        /// One-based column number.
        column: usize,
    },
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Site::Global => write!(f, "<global>"),
            Site::Layer { index, layer } => write!(f, "layer {index} ({layer})"),
            Site::Source { file, line, column } => write!(f, "{file}:{line}:{column}"),
        }
    }
}

/// One structured finding from a static check.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// Stable machine-readable code, namespaced `area/rule`
    /// (e.g. `verify/over-capacity`, `lint/no-panic-in-hot-path`).
    pub code: String,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where the finding is anchored.
    pub site: Site,
    /// Optional actionable suggestion.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Builds an error-severity diagnostic.
    #[must_use]
    pub fn error(code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: message.into(),
            site: Site::Global,
            help: None,
        }
    }

    /// Builds a warning-severity diagnostic.
    #[must_use]
    pub fn warning(code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Builds a note-severity diagnostic.
    #[must_use]
    pub fn note(code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message)
        }
    }

    /// Anchors the diagnostic at a model layer.
    #[must_use]
    pub fn at_layer(mut self, index: usize, layer: impl Into<String>) -> Self {
        self.site = Site::Layer {
            index,
            layer: layer.into(),
        };
        self
    }

    /// Anchors the diagnostic at a source location.
    #[must_use]
    pub fn at_source(mut self, file: impl Into<String>, line: usize, column: usize) -> Self {
        self.site = Site::Source {
            file: file.into(),
            line,
            column,
        };
        self
    }

    /// Attaches an actionable suggestion.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.site {
            Site::Global => write!(
                f,
                "{}[{}]: {}",
                self.severity.name(),
                self.code,
                self.message
            )?,
            site => write!(
                f,
                "{}[{}]: {} ({})",
                self.severity.name(),
                self.code,
                self.message,
                site
            )?,
        }
        if let Some(help) = &self.help {
            write!(f, "\n  help: {help}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("fatal"), None);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn builders_set_fields() {
        let d = Diagnostic::error("verify/over-capacity", "too big")
            .at_layer(2, "fully-connected")
            .with_help("split the layer");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.code, "verify/over-capacity");
        assert_eq!(
            d.site,
            Site::Layer {
                index: 2,
                layer: "fully-connected".into()
            }
        );
        assert_eq!(d.help.as_deref(), Some("split the layer"));
    }

    #[test]
    fn display_includes_site_and_help() {
        let d = Diagnostic::warning("lint/no-float-eq", "float compared with ==")
            .at_source("crates/x/src/lib.rs", 10, 5)
            .with_help("compare with a tolerance");
        let text = d.to_string();
        assert!(text.contains("warning[lint/no-float-eq]"));
        assert!(text.contains("crates/x/src/lib.rs:10:5"));
        assert!(text.contains("help: compare with a tolerance"));
    }

    #[test]
    fn global_site_display_is_compact() {
        let d = Diagnostic::note("verify/boundary", "one host/device transition");
        assert_eq!(
            d.to_string(),
            "note[verify/boundary]: one host/device transition"
        );
    }
}
