//! SARIF 2.1.0 output for the static checks.
//!
//! GitHub code scanning ingests findings as SARIF (Static Analysis
//! Results Interchange Format). This module renders a report as a
//! minimal but schema-valid SARIF log: one run, a driver carrying the
//! metadata of **every registered rule** — the lint rules
//! ([`RULES`](crate::rules::RULES)), the value-range rules
//! ([`RANGE_RULES`](crate::absint::RANGE_RULES)), and the schedule
//! rules ([`SCHEDULE_RULES`](crate::dataflow::SCHEDULE_RULES)) — and
//! one result per [`Diagnostic`]. Emitting the full rules table even
//! when a rule has no findings means a clean run still documents what
//! was checked, and every result's `ruleId` resolves to driver
//! metadata via `ruleIndex` regardless of which analysis produced it.
//! There is no serde in this build, so the encoder is hand-rolled over
//! the same string-escaping core as `--format json`, and exact snapshot
//! tests pin its output.
//!
//! Source sites become `physicalLocation`s with a repository-relative
//! URI under the `%SRCROOT%` base, which is what the `upload-sarif`
//! action expects; layer- and model-level diagnostics (which have no
//! file) are emitted without a location, which SARIF permits.

use crate::json::escape_into;
use crate::rules::RuleInfo;
use wide_nn::diag::{Diagnostic, Severity, Site};

/// SARIF `level` for a diagnostic severity.
fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Note => "note",
    }
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    escape_into(out, key);
    out.push_str(": ");
    escape_into(out, value);
}

/// Every registered rule across the analyses, as `(full id, metadata)`
/// pairs in a stable order: `lint/*`, then `range/*`, then
/// `schedule/*`. Diagnostic codes are namespaced the same way, so a
/// code equals its rule's full id.
#[must_use]
pub fn registered_rules() -> Vec<(String, &'static RuleInfo)> {
    let namespaces: [(&str, &[RuleInfo]); 3] = [
        ("lint", crate::rules::RULES),
        ("range", crate::absint::RANGE_RULES),
        ("schedule", crate::dataflow::SCHEDULE_RULES),
    ];
    namespaces
        .iter()
        .flat_map(|(prefix, rules)| {
            rules
                .iter()
                .map(move |rule| (format!("{prefix}/{}", rule.name), rule))
        })
        .collect()
}

/// Encodes diagnostics as a SARIF 2.1.0 log under the `hd-lint` driver.
#[must_use]
pub fn encode(diags: &[Diagnostic]) -> String {
    encode_as("hd-lint", diags)
}

/// Encodes diagnostics as a SARIF 2.1.0 log under the named driver
/// (e.g. `hyperedge-verify` for `hyperedge verify --schedule`).
#[must_use]
pub fn encode_as(driver: &str, diags: &[Diagnostic]) -> String {
    encode_with_properties(driver, diags, None)
}

/// [`encode_as`] with an optional run-level `properties` bag:
/// `properties` must be a pre-rendered JSON object (SARIF allows
/// arbitrary property bags on a run). `hyperedge verify --schedule`
/// uses it to attach each schedule's solved repetition vector and
/// computed channel bounds alongside the pass/fail diagnostics.
#[must_use]
pub fn encode_with_properties(
    driver: &str,
    diags: &[Diagnostic],
    properties: Option<&str>,
) -> String {
    let rules = registered_rules();
    let mut out = String::with_capacity(2048 + diags.len() * 256);
    out.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          ");
    push_kv(&mut out, "name", driver);
    out.push_str(",\n");
    out.push_str("          \"informationUri\": \"https://github.com/hyperedge/hyperedge\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, rule)) in rules.iter().enumerate() {
        out.push_str("            {");
        push_kv(&mut out, "id", id);
        out.push_str(", ");
        push_kv(&mut out, "name", rule.name);
        out.push_str(", \"shortDescription\": {");
        push_kv(&mut out, "text", rule.description);
        out.push_str("}, \"defaultConfiguration\": {");
        push_kv(&mut out, "level", level(rule.severity));
        out.push_str("}}");
        if i + 1 < rules.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("        {");
        push_kv(&mut out, "ruleId", &d.code);
        if let Some(index) = rules.iter().position(|(id, _)| *id == d.code) {
            out.push_str(&format!(", \"ruleIndex\": {index}"));
        }
        out.push_str(", ");
        push_kv(&mut out, "level", level(d.severity));
        out.push_str(", \"message\": {");
        let text = match &d.help {
            Some(help) => format!("{}\nhelp: {help}", d.message),
            None => d.message.clone(),
        };
        push_kv(&mut out, "text", &text);
        out.push('}');
        if let Site::Source { file, line, column } = &d.site {
            out.push_str(", \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {");
            push_kv(&mut out, "uri", file);
            out.push_str(", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": {");
            out.push_str(&format!(
                "\"startLine\": {}, \"startColumn\": {}",
                line.max(&1),
                column.max(&1)
            ));
            out.push_str("}}}]");
        }
        out.push('}');
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]");
    if let Some(bag) = properties {
        out.push_str(",\n      \"properties\": ");
        out.push_str(bag);
    }
    out.push_str("\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULES;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("lint/no-float-eq", "x == 0.5")
                .at_source("crates/a/src/lib.rs", 3, 9)
                .with_help("compare against a tolerance"),
            Diagnostic::warning("lint/missing-must-use", "builder").at_source(
                "crates/b/src/lib.rs",
                7,
                5,
            ),
            Diagnostic::error("range/accumulator-overflow", "acc exceeds i32")
                .at_layer(0, "fully-connected"),
            Diagnostic::error(
                "schedule/buffer-undersized",
                "channel `encode -> update` declares capacity 0, below the minimal safe bound 1",
            ),
        ]
    }

    /// The result lines `encode(&sample())` writes.
    const SAMPLE_RESULTS: [&str; 4] = [
        r#"        {"ruleId": "lint/no-float-eq", "ruleIndex": 1, "level": "error", "message": {"text": "x == 0.5\nhelp: compare against a tolerance"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "crates/a/src/lib.rs", "uriBaseId": "%SRCROOT%"}, "region": {"startLine": 3, "startColumn": 9}}}]},"#,
        r#"        {"ruleId": "lint/missing-must-use", "ruleIndex": 4, "level": "warning", "message": {"text": "builder"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "crates/b/src/lib.rs", "uriBaseId": "%SRCROOT%"}, "region": {"startLine": 7, "startColumn": 5}}}]},"#,
        r#"        {"ruleId": "range/accumulator-overflow", "ruleIndex": 9, "level": "error", "message": {"text": "acc exceeds i32"}},"#,
        r#"        {"ruleId": "schedule/buffer-undersized", "ruleIndex": 13, "level": "error", "message": {"text": "channel `encode -> update` declares capacity 0, below the minimal safe bound 1"}}"#,
    ];

    /// How each line of the rules table starts.
    const RULE_LINE: &str = r#"            {"id": "#;

    /// `out` without the rules table's lines, which the rule-listing test
    /// pins on their own.
    fn without_rules(out: &str) -> String {
        out.lines()
            .filter(|line| !line.starts_with(RULE_LINE))
            .map(|line| format!("{line}\n"))
            .collect()
    }

    /// The lines of `out`'s results array.
    fn result_lines(out: &str) -> Vec<&str> {
        out.lines()
            .filter(|line| line.starts_with(r#"        {"ruleId": "#))
            .collect()
    }

    /// The exact log around the rules table: `results` holds the result
    /// lines and `properties` what follows the results array.
    fn snapshot(tool: &str, results: &[&str], properties: &str) -> String {
        let results: String = results.iter().map(|line| format!("{line}\n")).collect();
        format!(
            r#"{{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {{
      "tool": {{
        "driver": {{
          "name": "{tool}",
          "informationUri": "https://github.com/hyperedge/hyperedge",
          "rules": [
          ]
        }}
      }},
      "results": [
{results}      ]{properties}
    }}
  ]
}}
"#
        )
    }

    #[test]
    fn output_is_valid_json_with_sarif_envelope() {
        assert_eq!(
            without_rules(&encode(&sample())),
            snapshot("hd-lint", &SAMPLE_RESULTS, "")
        );
    }

    #[test]
    fn driver_lists_every_registered_rule_even_on_an_empty_run() {
        let out = encode(&[]);
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with(RULE_LINE)).collect();
        let rules = registered_rules();
        assert_eq!(lines.len(), rules.len());
        assert!(rules.len() > RULES.len(), "range/schedule rules missing");
        for (i, (line, (id, meta))) in lines.iter().zip(&rules).enumerate() {
            let comma = if i + 1 < rules.len() { "," } else { "" };
            let expected = format!(
                r#"{RULE_LINE}"{id}", "name": "{}", "shortDescription": {{"text": "{}"}}, "defaultConfiguration": {{"level": "{}"}}}}{comma}"#,
                meta.name,
                meta.description,
                level(meta.severity)
            );
            assert_eq!(*line, expected);
        }
        assert_eq!(
            lines[1],
            r#"            {"id": "lint/no-float-eq", "name": "no-float-eq", "shortDescription": {"text": "no exact ==/!= comparison against float literals or constants outside tests"}, "defaultConfiguration": {"level": "error"}},"#
        );
    }

    #[test]
    fn registered_rule_ids_are_unique_and_namespaced() {
        let rules = registered_rules();
        for (i, (id, _)) in rules.iter().enumerate() {
            assert!(
                id.starts_with("lint/") || id.starts_with("range/") || id.starts_with("schedule/"),
                "{id}"
            );
            assert!(
                !rules.iter().skip(i + 1).any(|(other, _)| other == id),
                "duplicate rule id {id}"
            );
        }
    }

    #[test]
    fn custom_driver_name_is_used() {
        assert_eq!(
            without_rules(&encode_as("hyperedge-verify", &[])),
            snapshot("hyperedge-verify", &[], "")
        );
    }

    #[test]
    fn source_results_carry_physical_locations() {
        let out = encode(&sample());
        assert_eq!(result_lines(&out)[..2], SAMPLE_RESULTS[..2]);
    }

    #[test]
    fn range_and_schedule_results_resolve_to_rule_metadata() {
        let out = encode(&sample());
        let results = result_lines(&out);
        assert_eq!(results[2..], SAMPLE_RESULTS[2..]);
        // The pinned indices are the rules' positions in the rules
        // table; layer-level sites carry no location.
        let rules = registered_rules();
        for (line, code) in results[2..]
            .iter()
            .zip(["range/accumulator-overflow", "schedule/buffer-undersized"])
        {
            let index = rules.iter().position(|(id, _)| id == code).unwrap();
            assert!(
                line.contains(&format!(r#""ruleIndex": {index},"#)),
                "{line}"
            );
            assert!(!line.contains("locations"), "{line}");
        }
    }

    #[test]
    fn unknown_codes_omit_rule_index() {
        let diags = vec![Diagnostic::error("custom/unregistered", "one-off")];
        assert_eq!(
            result_lines(&encode(&diags)),
            [
                r#"        {"ruleId": "custom/unregistered", "level": "error", "message": {"text": "one-off"}}"#
            ]
        );
    }

    #[test]
    fn empty_report_still_valid() {
        assert_eq!(without_rules(&encode(&[])), snapshot("hd-lint", &[], ""));
    }

    #[test]
    fn run_property_bag_is_injected_verbatim() {
        let bag = r#"{"schedules": [{"name": "overlapped-invoke"}]}"#;
        let out = encode_with_properties("hyperedge-verify", &sample(), Some(bag));
        let properties = format!(",\n      \"properties\": {bag}");
        assert_eq!(
            without_rules(&out),
            snapshot("hyperedge-verify", &SAMPLE_RESULTS, &properties)
        );
        // Without a bag the run stays bag-free (and encode_as delegates).
        assert_eq!(
            without_rules(&encode_as("hyperedge-verify", &sample())),
            snapshot("hyperedge-verify", &SAMPLE_RESULTS, "")
        );
    }

    #[test]
    fn messages_with_quotes_and_newlines_escape_cleanly() {
        let diags = vec![Diagnostic::error("lint/x", "say \"hi\"\nline2")];
        assert_eq!(
            result_lines(&encode(&diags)),
            [
                r#"        {"ruleId": "lint/x", "level": "error", "message": {"text": "say \"hi\"\nline2"}}"#
            ]
        );
    }
}
