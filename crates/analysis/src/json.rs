//! JSON encoding for diagnostic reports.
//!
//! The build environment has no real serde, so `--format json` is
//! implemented directly: a small encoder over [`Diagnostic`], pinned by
//! exact snapshot tests. The schema is an array of objects:
//!
//! ```json
//! [{"severity": "error", "code": "lint/no-float-eq", "message": "…",
//!   "site": {"kind": "source", "file": "…", "line": 3, "column": 9},
//!   "help": "…"}]
//! ```
//!
//! `site.kind` is `"global"`, `"layer"` (with `index`, `layer`) or
//! `"source"` (with `file`, `line`, `column`); `help` is `null` when
//! absent.

use wide_nn::diag::{Diagnostic, Site};

/// Escapes `s` as a quoted JSON string literal — for callers (e.g. the
/// CLI's enriched `verify --schedule` output) that assemble structured
/// JSON around the diagnostic arrays this module encodes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes diagnostics as a JSON array (stable key order).
pub fn encode(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"severity\": ");
        escape_into(&mut out, d.severity.name());
        out.push_str(", \"code\": ");
        escape_into(&mut out, &d.code);
        out.push_str(", \"message\": ");
        escape_into(&mut out, &d.message);
        out.push_str(", \"site\": ");
        match &d.site {
            Site::Global => out.push_str("{\"kind\": \"global\"}"),
            Site::Layer { index, layer } => {
                out.push_str(&format!(
                    "{{\"kind\": \"layer\", \"index\": {index}, \"layer\": "
                ));
                escape_into(&mut out, layer);
                out.push('}');
            }
            Site::Source { file, line, column } => {
                out.push_str("{\"kind\": \"source\", \"file\": ");
                escape_into(&mut out, file);
                out.push_str(&format!(", \"line\": {line}, \"column\": {column}}}"));
            }
        }
        out.push_str(", \"help\": ");
        match &d.help {
            Some(help) => escape_into(&mut out, help),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_every_site_kind_and_escape() {
        let diags = vec![
            Diagnostic::error("lint/no-float-eq", "x == 0.5 \"quoted\"")
                .at_source("crates/a/src/lib.rs", 3, 9)
                .with_help("line1\nline2"),
            Diagnostic::warning("lint/missing-must-use", "builder").at_layer(2, "fully-connected"),
            Diagnostic::note("verify/placement-boundary", "boundary"),
            Diagnostic::error("lint/x", "héllo \u{1} — em-dash\ttab\r\\"),
        ];
        let expected = r#"[
  {"severity": "error", "code": "lint/no-float-eq", "message": "x == 0.5 \"quoted\"", "site": {"kind": "source", "file": "crates/a/src/lib.rs", "line": 3, "column": 9}, "help": "line1\nline2"},
  {"severity": "warning", "code": "lint/missing-must-use", "message": "builder", "site": {"kind": "layer", "index": 2, "layer": "fully-connected"}, "help": null},
  {"severity": "note", "code": "verify/placement-boundary", "message": "boundary", "site": {"kind": "global"}, "help": null},
  {"severity": "error", "code": "lint/x", "message": "héllo \u0001 — em-dash\ttab\r\\", "site": {"kind": "global"}, "help": null}
]"#;
        assert_eq!(encode(&diags), expected);
    }

    #[test]
    fn empty_report_is_an_empty_array() {
        assert_eq!(encode(&[]), "[\n]");
    }

    #[test]
    fn escape_quotes_the_string() {
        assert_eq!(escape("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
