//! Machine-readable benchmark records and the regression gate CI runs
//! over them.
//!
//! CSV tables under `results/` are for humans and plots; the
//! `BENCH_<name>.json` artifacts written at the repository root are for
//! machines — CI reruns a benchmark binary at reduced scale and the
//! `gate` binary compares the fresh numbers against the committed
//! baseline, failing only on clear regressions. Every artifact is one
//! [`BenchRecord`]: a flat JSON object with one key per line, rendered
//! and parsed here without a JSON library.

use std::path::{Path, PathBuf};

use crate::ResultTable;

/// One benchmark run's machine-readable record: the bench name, whether
/// it ran at `HD_BENCH_SMOKE` scale, and its measurements as ordered
/// `(key, rendered value)` pairs. Each writer renders its values at the
/// precision the key needs, so a record round-trips through its JSON
/// form byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench name; the artifact is `BENCH_<bench>.json`.
    pub bench: String,
    /// Whether the run was at `HD_BENCH_SMOKE` scale.
    pub smoke: bool,
    /// Measurements in render order, each value a JSON literal.
    pub fields: Vec<(String, String)>,
}

impl BenchRecord {
    /// An empty record for `bench`.
    #[must_use]
    pub fn new(bench: &str, smoke: bool) -> Self {
        BenchRecord {
            bench: bench.to_string(),
            smoke,
            fields: Vec::new(),
        }
    }

    /// Appends `key` with its already-rendered JSON value.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Renders the flat JSON form, one key per line. `git_describe` is
    /// always `null`: the artifact is committed alongside the code it
    /// measured, so the revision is the commit itself.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"git_describe\": null,\n  \"smoke\": {}",
            self.bench, self.smoke
        );
        for (key, value) in &self.fields {
            json.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        json.push_str("\n}\n");
        json
    }

    /// Parses the form [`BenchRecord::to_json`] renders; any other text,
    /// down to a missing comma, is refused because it does not re-render
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// If `text` is not a record in the rendered form.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut fields: Vec<(String, String)> = text
            .lines()
            .filter_map(|line| {
                let (key, value) = line.trim().trim_end_matches(',').split_once(": ")?;
                Some((key.trim_matches('"').to_string(), value.to_string()))
            })
            .collect();
        if fields.len() < 3 {
            return Err("no bench/git_describe/smoke header".to_string());
        }
        let header: Vec<_> = fields.drain(..3).collect();
        let record = BenchRecord {
            bench: header[0].1.trim_matches('"').to_string(),
            smoke: header[2].1 == "true",
            fields,
        };
        if record.to_json() == text {
            Ok(record)
        } else {
            Err("not a flat one-key-per-line bench record".to_string())
        }
    }

    /// The value of `key`, as rendered and as a finite number.
    fn measurement(&self, key: &str) -> Result<(&str, f64), String> {
        let value = self
            .fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("{}: key `{key}` is missing", self.bench))?;
        match value.parse::<f64>() {
            Ok(number) if number.is_finite() => Ok((value, number)),
            _ => Err(format!("{}: `{key}` = {value} is not a number", self.bench)),
        }
    }
}

/// What a [`Check`] compares its key against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Passes when `fresh >= limit`.
    AtLeast(f64),
    /// Passes when `fresh <= limit`.
    AtMost(f64),
    /// Passes when `fresh >= factor * baseline` for the same key.
    AtLeastBaseline(f64),
}

/// One regression check of the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    /// Bench whose record holds the key.
    pub bench: &'static str,
    /// Key of the measurement checked.
    pub key: &'static str,
    /// The passing region.
    pub bound: Bound,
    /// Failure message; `{fresh}` and `{baseline}` expand to the values
    /// as rendered in the records.
    pub failure: &'static str,
}

/// The gate's thresholds. Simulated-clock numbers (schedule drift,
/// supervision overhead) are gated exactly; wall-clock ratios sit far
/// below the committed full-scale baselines, because CI runners are
/// noisy and only a path falling back to serial or scalar-shaped work
/// should trip them. Smoke runs amortize fixed backoff over fewer rows,
/// hence the generous factor on the recovered-throughput baseline.
#[rustfmt::skip]
pub const CHECKS: [Check; 12] = [
    Check { bench: "pipeline", key: "simulated_speedup", bound: Bound::AtLeast(1.0),
        failure: "pipelined schedule no faster than serial ({fresh}x)" },
    Check { bench: "pipeline", key: "simulated_speedup", bound: Bound::AtLeastBaseline(0.5),
        failure: "simulated speedup regressed >50% vs baseline ({fresh}x vs {baseline}x)" },
    Check { bench: "pipeline", key: "wall_speedup", bound: Bound::AtLeast(0.7),
        failure: "parallel member training clearly slower than sequential ({fresh}x)" },
    Check { bench: "schedule", key: "max_abs_delta_s", bound: Bound::AtMost(1e-9),
        failure: "runtime drifted from the declared prediction ({fresh}s)" },
    Check { bench: "schedule", key: "serve_speedup", bound: Bound::AtLeast(1.2),
        failure: "two-device serve schedule lost its overlap win ({fresh}x)" },
    Check { bench: "resilience", key: "zero_fault_overhead", bound: Bound::AtMost(1.01),
        failure: "supervision costs {fresh}x on the fault-free path" },
    Check { bench: "resilience", key: "total_faults", bound: Bound::AtLeast(1.0),
        failure: "fault injection never fired ({fresh} faults)" },
    Check { bench: "resilience", key: "min_recovered_frac", bound: Bound::AtLeast(0.05),
        failure: "recovered throughput collapsed ({fresh} of clean)" },
    Check { bench: "resilience", key: "min_recovered_frac", bound: Bound::AtLeastBaseline(0.25),
        failure: "recovered throughput collapsed vs baseline ({fresh} vs {baseline}; smoke runs \
                  amortize fixed backoff over fewer rows, hence the generous factor)" },
    Check { bench: "kernels", key: "packed_speedup", bound: Bound::AtLeast(2.0),
        failure: "packed scoring lost its representation win ({fresh}x)" },
    Check { bench: "kernels", key: "gemm_speedup", bound: Bound::AtLeast(1.5),
        failure: "dispatched i8 gemm barely beats the naive loop ({fresh}x)" },
    Check { bench: "kernels", key: "f32_gemm_speedup", bound: Bound::AtLeast(1.5),
        failure: "packed f32 gemm barely beats the naive loop ({fresh}x)" },
];

impl Check {
    /// Applies the check to a fresh record and its baseline.
    ///
    /// # Errors
    ///
    /// The failure message if the fresh value is outside the bound, or a
    /// message naming the bench and key if a value the check reads is
    /// missing or not a number.
    pub fn apply(&self, fresh: &BenchRecord, baseline: &BenchRecord) -> Result<(), String> {
        let (fresh_text, value) = fresh.measurement(self.key)?;
        let (pass, baseline_text) = match self.bound {
            Bound::AtLeast(limit) => (value >= limit, ""),
            Bound::AtMost(limit) => (value <= limit, ""),
            Bound::AtLeastBaseline(factor) => {
                let (text, b) = baseline.measurement(self.key)?;
                (value >= factor * b, text)
            }
        };
        if pass {
            return Ok(());
        }
        let message = self
            .failure
            .replace("{fresh}", fresh_text)
            .replace("{baseline}", baseline_text);
        Err(format!("{}: {message}", self.bench))
    }
}

/// Runs every check of [`CHECKS`] on `bench`, returning one failure
/// message per failed check (empty when all pass). A record that names
/// another bench fails outright, so no check is silently skipped.
#[must_use]
pub fn gate(bench: &str, fresh: &BenchRecord, baseline: &BenchRecord) -> Vec<String> {
    if fresh.bench != bench || baseline.bench != bench {
        return vec![format!(
            "{bench}: records name `{}` and `{}`",
            fresh.bench, baseline.bench
        )];
    }
    CHECKS
        .iter()
        .filter(|c| c.bench == bench)
        .filter_map(|c| c.apply(fresh, baseline).err())
        .collect()
}

/// Repository-root path of the `BENCH_<name>.json` artifact.
#[must_use]
pub fn bench_report_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(format!("BENCH_{name}.json"))
}

/// Prints and writes `table` as `results/fig_<bench>.csv`, then writes
/// `record` to the repository-root `BENCH_<bench>.json` artifact.
/// Exits with status 1 if the artifact cannot be written.
pub fn emit(table: &ResultTable, record: &BenchRecord) {
    table.emit(&format!("fig_{}", record.bench));
    let path = bench_report_path(&record.bench);
    match std::fs::write(&path, record.to_json()) {
        Ok(()) => println!("(report written to {})", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_path_lands_at_repo_root() {
        let path = bench_report_path("pipeline");
        assert!(path.ends_with("../../BENCH_pipeline.json"));
    }

    /// Checks the committed `BENCH_<bench>.json`: a flat object of
    /// `lines` lines, one key per line, each `(key, decimals)` rendered
    /// as a number with that many digits after the point (0: an integer).
    fn assert_flat_and_line_parsable(bench: &str, lines: usize, keys: &[(&str, usize)]) {
        let json = std::fs::read_to_string(bench_report_path(bench)).unwrap();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        // One key per line so CI can read values without a JSON parser.
        assert_eq!(json.lines().count(), lines, "BENCH_{bench}.json");
        for header in [
            format!("\"bench\": \"{bench}\""),
            "\"git_describe\": null".to_string(),
        ] {
            assert!(json.contains(&header), "missing `{header}` in\n{json}");
        }
        let record = BenchRecord::parse(&json).unwrap();
        for &(key, decimals) in keys {
            let (value, _) = record.measurement(key).unwrap();
            let fraction = value.split_once('.').map_or(0, |(_, f)| f.len());
            assert_eq!(
                fraction, decimals,
                "`{key}` = {value} in BENCH_{bench}.json"
            );
        }
    }

    #[test]
    fn json_is_flat_and_line_parsable() {
        assert_flat_and_line_parsable(
            "pipeline",
            12,
            &[
                ("threads", 0),
                ("simulated_speedup", 4),
                ("wall_speedup", 4),
            ],
        );
    }

    #[test]
    fn resilience_json_is_flat_and_line_parsable() {
        assert_flat_and_line_parsable(
            "resilience",
            15,
            &[
                ("zero_fault_overhead", 6),
                ("min_recovered_frac", 6),
                ("total_faults", 0),
            ],
        );
    }

    #[test]
    fn kernels_json_is_flat_and_line_parsable() {
        assert_flat_and_line_parsable(
            "kernels",
            26,
            &[
                ("packed_speedup", 3),
                ("gemm_speedup", 3),
                ("f32_gemm_speedup", 3),
                ("bundle_gib_s", 3),
            ],
        );
        let json = std::fs::read_to_string(bench_report_path("kernels")).unwrap();
        let record = BenchRecord::parse(&json).unwrap();
        let (_, kernel) = record
            .fields
            .iter()
            .find(|(k, _)| k == "i8_kernel")
            .unwrap();
        assert!(kernel.starts_with('"') && kernel.ends_with('"'), "{kernel}");
    }

    #[test]
    fn schedule_json_is_flat_and_line_parsable() {
        assert_flat_and_line_parsable(
            "schedule",
            15,
            &[("max_abs_delta_s", 15), ("serve_speedup", 4)],
        );
    }

    #[test]
    fn committed_baselines_round_trip_byte_identical() {
        for name in ["pipeline", "schedule", "resilience", "kernels"] {
            let text = std::fs::read_to_string(bench_report_path(name)).unwrap();
            let record = BenchRecord::parse(&text).unwrap();
            assert_eq!(record.bench, name);
            assert_eq!(record.to_json(), text, "BENCH_{name}.json");
        }
    }

    #[test]
    fn committed_baselines_pass_the_gate_against_themselves() {
        for name in ["pipeline", "schedule", "resilience", "kernels"] {
            let text = std::fs::read_to_string(bench_report_path(name)).unwrap();
            let record = BenchRecord::parse(&text).unwrap();
            assert_eq!(gate(name, &record, &record), Vec::<String>::new());
        }
    }

    #[test]
    fn parse_rejects_malformed_records() {
        for bad in [
            "",
            "{\n  \"bench\": \"x\"\n}",
            "{\n  \"bench\": \"x\"\n  \"git_describe\": null\n}\n",
            "{\n  \"bench\": x,\n  \"git_describe\": null,\n  \"smoke\": true\n}\n",
            "{\n  \"bench\": \"x\",\n  \"git_describe\": \"v1\",\n  \"smoke\": true\n}\n",
            "{\n  \"bench\": \"x\",\n  \"git_describe\": null,\n  \"smoke\": 1\n}\n",
            "{\n  \"git_describe\": null,\n  \"bench\": \"x\",\n  \"smoke\": true\n}\n",
        ] {
            assert!(BenchRecord::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A record of `bench` whose every gated key passes, with `key`
    /// overridden to `value` (or removed when `value` is `None`).
    fn record(bench: &str, key: &str, value: Option<&str>) -> BenchRecord {
        let passing: &[(&str, &str)] = match bench {
            "pipeline" => &[("simulated_speedup", "1.4729"), ("wall_speedup", "0.9642")],
            "schedule" => &[
                ("max_abs_delta_s", "0.000000000000000"),
                ("serve_speedup", "1.9960"),
            ],
            "resilience" => &[
                ("zero_fault_overhead", "1.000000"),
                ("min_recovered_frac", "0.136570"),
                ("total_faults", "22"),
            ],
            "kernels" => &[
                ("packed_speedup", "16.752"),
                ("gemm_speedup", "12.084"),
                ("f32_gemm_speedup", "20.000"),
            ],
            other => panic!("unknown bench {other}"),
        };
        let mut r = BenchRecord::new(bench, true);
        for &(k, v) in passing {
            if k != key {
                r = r.field(k, v);
            }
        }
        match value {
            Some(v) => r.field(key, v),
            None => r,
        }
    }

    /// Gate outcome for a fresh `key = fresh` against a baseline
    /// `key = baseline`, every other key passing.
    fn outcome(bench: &str, key: &str, fresh: &str, baseline: &str) -> Vec<String> {
        gate(
            bench,
            &record(bench, key, Some(fresh)),
            &record(bench, key, Some(baseline)),
        )
    }

    #[test]
    fn every_check_passes_at_its_threshold_and_fails_just_past_it() {
        // (bench, key, baseline, at the threshold, just past it); each
        // pair of inputs isolates one of the twelve checks.
        let cases = [
            (
                "pipeline",
                "simulated_speedup",
                "1.4729",
                "1.0000",
                "0.9999",
            ),
            (
                "pipeline",
                "simulated_speedup",
                "3.0000",
                "1.5000",
                "1.4999",
            ),
            ("pipeline", "wall_speedup", "0.9642", "0.7000", "0.6999"),
            (
                "schedule",
                "max_abs_delta_s",
                "0.000000000000000",
                "0.000000001000000",
                "0.000000001000001",
            ),
            ("schedule", "serve_speedup", "1.9960", "1.2000", "1.1999"),
            (
                "resilience",
                "zero_fault_overhead",
                "1.000000",
                "1.010000",
                "1.010001",
            ),
            ("resilience", "total_faults", "22", "1", "0"),
            (
                "resilience",
                "min_recovered_frac",
                "0.136570",
                "0.050000",
                "0.049999",
            ),
            (
                "resilience",
                "min_recovered_frac",
                "0.400000",
                "0.100000",
                "0.099999",
            ),
            ("kernels", "packed_speedup", "16.752", "2.000", "1.999"),
            ("kernels", "gemm_speedup", "12.084", "1.500", "1.499"),
            ("kernels", "f32_gemm_speedup", "20.000", "1.500", "1.499"),
        ];
        assert_eq!(cases.len(), CHECKS.len());
        for (check, (bench, key, baseline, at, past)) in CHECKS.iter().zip(cases) {
            assert_eq!((check.bench, check.key), (bench, key));
            assert_eq!(outcome(bench, key, at, baseline), Vec::<String>::new());
            let failures = outcome(bench, key, past, baseline);
            let expected = check
                .failure
                .replace("{fresh}", past)
                .replace("{baseline}", baseline);
            assert_eq!(failures, vec![format!("{bench}: {expected}")]);
        }
    }

    #[test]
    fn a_missing_or_non_numeric_key_fails_naming_bench_and_key() {
        for check in &CHECKS {
            let (bench, key) = (check.bench, check.key);
            let full = record(bench, key, Some("1000"));
            let missing = record(bench, key, None);
            let garbage = record(bench, key, Some("\"avx2\""));
            let failures = gate(bench, &missing, &full);
            assert!(
                failures.contains(&format!("{bench}: key `{key}` is missing")),
                "{failures:?}"
            );
            let failures = gate(bench, &garbage, &full);
            assert!(
                failures.contains(&format!("{bench}: `{key}` = \"avx2\" is not a number")),
                "{failures:?}"
            );
            if matches!(check.bound, Bound::AtLeastBaseline(_)) {
                assert!(gate(bench, &full, &missing)
                    .contains(&format!("{bench}: key `{key}` is missing")));
                assert!(gate(bench, &full, &garbage)
                    .contains(&format!("{bench}: `{key}` = \"avx2\" is not a number")));
            }
        }
        let nan = record("schedule", "max_abs_delta_s", Some("NaN"));
        assert_eq!(
            gate("schedule", &nan, &nan),
            vec!["schedule: `max_abs_delta_s` = NaN is not a number".to_string()]
        );
    }

    #[test]
    fn a_record_of_another_bench_fails_instead_of_skipping_its_checks() {
        let kernels = record("kernels", "gemm_speedup", Some("12.084"));
        let schedule = record("schedule", "serve_speedup", Some("1.9960"));
        assert_eq!(
            gate("schedule", &kernels, &schedule),
            vec!["schedule: records name `kernels` and `schedule`".to_string()]
        );
        assert_eq!(gate("schedule", &schedule, &kernels).len(), 1);
    }
}
