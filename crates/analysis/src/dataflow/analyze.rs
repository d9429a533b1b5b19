//! The static schedule analyzer.
//!
//! [`analyze`] reports the runtime's own verdict on a declared
//! [`SdfGraph`]: it calls [`ExecutablePlan::validate`] once — the check
//! every execution obeys — and renders a refusal as the matching
//! `schedule/*` error. An accepted plan yields a [`ScheduleAnalysis`]
//! read from the plan (repetition vector, per-resource busy time and the
//! analytic critical path of one steady-state iteration) and a
//! `schedule/no-overlap` warning for every cross-resource channel too
//! shallow to overlap its endpoints. What this analyzer accepts is
//! therefore exactly what the runtime runs.

use std::fmt;

use hd_dataflow::graph::{Resource, SdfGraph};
use hd_dataflow::runtime::{ExecutablePlan, PlanError};
use hd_dataflow::solve::{self, Stall};
use wide_nn::diag::Diagnostic;

/// Solved facts of a plan the runtime accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleAnalysis {
    /// Stage names, in [`SdfGraph::stages`] order (for reporting).
    pub stage_names: Vec<String>,
    /// Firings of each stage per steady-state iteration, in
    /// [`SdfGraph::stages`] order — the smallest positive solution of
    /// the balance equations.
    pub repetition: Vec<u64>,
    /// Busy seconds per resource over one iteration:
    /// `Σ repetition × cost` of the stages pinned to it, ordered
    /// devices, host, links.
    pub resource_busy_s: Vec<(Resource, f64)>,
    /// Elapsed seconds one iteration cannot beat:
    /// `overhead + max(resource busy times)`. Resources serialize
    /// internally and overlap with each other.
    pub critical_path_s: f64,
}

/// Outcome of analyzing one declared schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Name of the analyzed graph.
    pub graph: String,
    /// The refusal as one error, or the accepted plan's warnings.
    pub diagnostics: Vec<Diagnostic>,
    /// Solved facts; `None` when the runtime refuses the graph.
    pub analysis: Option<ScheduleAnalysis>,
}

impl ScheduleReport {
    /// Whether any diagnostic is an error (the schedule is unsafe).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == wide_nn::diag::Severity::Error)
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.has_errors() {
            "REJECTED"
        } else if self.diagnostics.is_empty() {
            "ok"
        } else {
            "ok (with warnings)"
        };
        writeln!(f, "schedule `{}`: {verdict}", self.graph)?;
        if let Some(analysis) = &self.analysis {
            write!(f, "  repetition:")?;
            for (name, reps) in analysis.stage_names.iter().zip(&analysis.repetition) {
                write!(f, " {name}x{reps}")?;
            }
            writeln!(f)?;
            for (resource, busy) in &analysis.resource_busy_s {
                writeln!(f, "  busy {resource}: {busy:.3e} s/iter")?;
            }
            writeln!(
                f,
                "  critical path: {:.3e} s/iter (incl. overhead)",
                analysis.critical_path_s
            )?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Builds the `schedule/deadlock` diagnostic for a stalled state.
fn deadlock_diag(graph: &SdfGraph, stall: &Stall) -> Diagnostic {
    let mut stuck = Vec::new();
    let mut reason = String::new();
    for (s, stage) in graph.stages().iter().enumerate() {
        if stall.remaining[s] == 0 {
            continue;
        }
        stuck.push(stage.name.clone());
        if !reason.is_empty() {
            continue;
        }
        for (c, channel) in graph.channels().iter().enumerate() {
            let held = stall.tokens[c];
            if channel.to.index() == s && held < channel.consume {
                reason = format!(
                    "`{}` waits for {} token(s) on `{}` which holds {held}",
                    stage.name,
                    channel.consume,
                    graph.channel_label(channel),
                );
                break;
            }
            if channel.from.index() == s {
                if let Some(cap) = channel.capacity {
                    if held + channel.produce > cap {
                        reason = format!(
                            "`{}` has no space on `{}` (capacity {cap}, holding {held})",
                            stage.name,
                            graph.channel_label(channel),
                        );
                        break;
                    }
                }
            }
        }
    }
    Diagnostic::error(
        "schedule/deadlock",
        format!(
            "steady-state execution stalls with unfired stages [{}]: {reason}",
            stuck.join(", ")
        ),
    )
    .with_help(
        "every channel starts empty, so break the dependency cycle or raise the blocking \
         channel's capacity",
    )
}

/// Renders the validator's refusal as its `schedule/*` error.
fn plan_error_diag(graph: &SdfGraph, err: &PlanError) -> Diagnostic {
    let channel = |c: usize| &graph.channels()[c];
    match err {
        PlanError::Dangling { .. } => Diagnostic::error(
            "schedule/rate-inconsistent",
            "a channel references a stage that is not part of this graph".to_string(),
        ),
        PlanError::ZeroRate { channel: c } => {
            let channel = channel(*c);
            Diagnostic::error(
                "schedule/rate-inconsistent",
                format!(
                    "channel `{}` declares a zero token rate (produce {}, consume {})",
                    graph.channel_label(channel),
                    channel.produce,
                    channel.consume
                ),
            )
            .with_help("every firing must move at least one token")
        }
        PlanError::RateInconsistent { channel: c } => {
            let channel = channel(*c);
            Diagnostic::error(
                "schedule/rate-inconsistent",
                format!(
                    "channel `{}` (produce {}, consume {}) contradicts the rates implied by \
                     the rest of the graph: no balanced repetition vector exists",
                    graph.channel_label(channel),
                    channel.produce,
                    channel.consume
                ),
            )
            .with_help(
                "every cycle of rate ratios must multiply to 1; fix the \
                 production/consumption declaration of this channel",
            )
        }
        PlanError::Undersized {
            channel: c,
            declared,
            minimum,
        } => Diagnostic::error(
            "schedule/buffer-undersized",
            format!(
                "channel `{}` declares capacity {declared}, below the minimal safe bound \
                 {minimum}",
                graph.channel_label(channel(*c))
            ),
        )
        .with_help(format!(
            "raise the declared bound to at least {minimum} (produce + consume - gcd)"
        )),
        PlanError::Deadlock(stall) => deadlock_diag(graph, stall),
    }
}

/// Analyzes a declared schedule: the runtime's verdict on it, and for
/// an accepted plan its overlap warnings and analytic critical path.
#[must_use]
pub fn analyze(graph: &SdfGraph) -> ScheduleReport {
    let plan = match ExecutablePlan::validate(graph.clone()) {
        Ok(plan) => plan,
        Err(err) => {
            return ScheduleReport {
                graph: graph.name().to_string(),
                diagnostics: vec![plan_error_diag(graph, &err)],
                analysis: None,
            }
        }
    };
    let graph = plan.graph();

    // A cross-resource channel whose declared bound cannot hold one
    // producer and one consumer firing at once serializes its
    // endpoints. Warnings come out ordered by (producer stage, channel).
    let mut warnings: Vec<((usize, usize), Diagnostic)> = Vec::new();
    for (c, channel) in graph.channels().iter().enumerate() {
        let Some(declared) = channel.capacity else {
            continue;
        };
        let overlap = channel.produce + channel.consume;
        if declared < overlap
            && graph.stages()[channel.from.index()].resource
                != graph.stages()[channel.to.index()].resource
        {
            warnings.push((
                (channel.from.index(), c),
                Diagnostic::warning(
                    "schedule/no-overlap",
                    format!(
                        "channel `{}` crosses resources but its capacity {declared} cannot \
                         hold one producer and one consumer firing in flight together",
                        graph.channel_label(channel)
                    ),
                )
                .with_help(format!(
                    "declare capacity >= {overlap} (produce + consume) to let the two \
                     resources overlap"
                )),
            ));
        }
    }
    warnings.sort_by_key(|&(key, _)| key);

    ScheduleReport {
        graph: graph.name().to_string(),
        diagnostics: warnings.into_iter().map(|(_, d)| d).collect(),
        analysis: Some(ScheduleAnalysis {
            stage_names: graph.stages().iter().map(|s| s.name.clone()).collect(),
            repetition: plan.repetition().to_vec(),
            resource_busy_s: solve::resource_busy_s(graph, plan.repetition()),
            critical_path_s: solve::critical_path_s(graph, plan.repetition()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Resource;

    fn codes(report: &ScheduleReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    /// The double-buffered invoke shape: link -> device -> link.
    fn overlapped_invoke() -> SdfGraph {
        let mut g = SdfGraph::new("overlapped-invoke").with_overhead_s(1e-3);
        let dma_in = g.add_stage("dma_in", Resource::LINK, 2e-3);
        let compute = g.add_stage("compute", Resource::DEVICE, 5e-3);
        let dma_out = g.add_stage("dma_out", Resource::LINK, 1e-3);
        g.add_channel(dma_in, compute, 1, 1, Some(2));
        g.add_channel(compute, dma_out, 1, 1, Some(2));
        g
    }

    #[test]
    fn balanced_unit_rate_chain_is_accepted() {
        let report = analyze(&overlapped_invoke());
        assert!(report.diagnostics.is_empty(), "{report}");
        let analysis = report.analysis.expect("analysis");
        assert_eq!(analysis.repetition, vec![1, 1, 1]);
        // Critical path: overhead + max(link busy 3e-3, device busy 5e-3).
        assert!((analysis.critical_path_s - 6e-3).abs() < 1e-15);
    }

    #[test]
    fn non_unit_rates_get_a_scaled_repetition_vector() {
        let mut g = SdfGraph::new("fan");
        let plan = g.add_stage("plan", Resource::Host, 1e-6);
        let member = g.add_stage("member", Resource::Host, 1e-3);
        let merge = g.add_stage("merge", Resource::Host, 5e-6);
        g.add_channel(plan, member, 4, 1, Some(4));
        g.add_channel(member, merge, 1, 4, Some(4));
        let report = analyze(&g);
        assert!(!report.has_errors(), "{report}");
        let analysis = report.analysis.expect("analysis");
        assert_eq!(analysis.repetition, vec![1, 4, 1]);
    }

    #[test]
    fn inconsistent_rates_are_rejected_without_analysis() {
        let mut g = SdfGraph::new("bad-rates");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 2, 1, None);
        g.add_channel(a, b, 1, 1, None); // contradicts 2:1
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/rate-inconsistent"]);
        assert!(report.analysis.is_none());
        assert!(report.has_errors());
    }

    #[test]
    fn zero_rate_is_rejected() {
        let mut g = SdfGraph::new("zero-rate");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 0, 1, None);
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/rate-inconsistent"]);
    }

    #[test]
    fn undersized_buffer_is_rejected_with_computed_minimum() {
        let mut g = SdfGraph::new("undersized");
        let a = g.add_stage("a", Resource::DEVICE, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 3, 2, Some(2));
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/buffer-undersized"]);
        // 3 + 2 - gcd(3, 2) = 4.
        assert!(
            report.diagnostics[0]
                .message
                .contains("minimal safe bound 4"),
            "{}",
            report.diagnostics[0].message
        );
        // A refused graph has no solved facts to report.
        assert!(report.analysis.is_none());
    }

    #[test]
    fn rejection_reports_only_the_validators_first_error() {
        let mut g = SdfGraph::new("two-faults");
        let a = g.add_stage("a", Resource::DEVICE, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, Some(0));
        g.add_channel(b, a, 1, 1, Some(0));
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/buffer-undersized"]);
        assert!(
            report.diagnostics[0].message.contains("`a -> b`"),
            "{}",
            report.diagnostics[0].message
        );
    }

    #[test]
    fn zero_capacity_channel_is_undersized() {
        let mut g = SdfGraph::new("rendezvous");
        let a = g.add_stage("a", Resource::DEVICE, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, Some(0));
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/buffer-undersized"]);
        assert!(report.diagnostics[0]
            .message
            .contains("minimal safe bound 1"));
    }

    #[test]
    fn zero_token_cycle_deadlocks() {
        let mut g = SdfGraph::new("cycle");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, None);
        g.add_channel(b, a, 1, 1, None);
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/deadlock"]);
        assert!(report.diagnostics[0].message.contains("waits for"));
    }

    // Every channel starts empty, so an unfireable self-loop is an
    // ordinary steady-state deadlock.
    #[test]
    fn unfireable_self_loop_is_rejected() {
        let mut g = SdfGraph::new("self-loop");
        let a = g.add_stage("a", Resource::DEVICE, 1.0);
        g.add_channel(a, a, 1, 1, Some(1));
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/deadlock"]);
        assert!(
            report.diagnostics[0]
                .message
                .contains("`a` waits for 1 token(s) on `a -> a` which holds 0"),
            "{}",
            report.diagnostics[0].message
        );
    }

    #[test]
    fn shallow_cross_resource_channel_warns_about_overlap() {
        let mut g = SdfGraph::new("serialized");
        let a = g.add_stage("a", Resource::DEVICE, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, Some(1));
        let report = analyze(&g);
        assert_eq!(codes(&report), vec!["schedule/no-overlap"]);
        assert!(!report.has_errors(), "warnings only: {report}");
    }

    #[test]
    fn same_resource_shallow_channel_does_not_warn() {
        let mut g = SdfGraph::new("host-chain");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, Some(1));
        let report = analyze(&g);
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn capacity_induced_deadlock_is_detected() {
        // `a` exhausts its two firings, then `b` and `c` are jointly
        // stuck on their mutual zero-token cycle even though every
        // individual capacity meets its per-channel minimum.
        let mut g = SdfGraph::new("capacity-deadlock");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        let c = g.add_stage("c", Resource::Host, 1.0);
        g.add_channel(a, c, 1, 2, Some(2));
        g.add_channel(b, c, 1, 1, Some(1));
        g.add_channel(c, b, 1, 1, Some(1));
        let report = analyze(&g);
        assert!(codes(&report).contains(&"schedule/deadlock"), "{report}");
    }

    #[test]
    fn report_displays_verdict_and_critical_path() {
        let report = analyze(&overlapped_invoke());
        let text = format!("{report}");
        assert!(text.contains("overlapped-invoke"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        let mut bad = SdfGraph::new("bad");
        let a = bad.add_stage("a", Resource::Host, 1.0);
        let b = bad.add_stage("b", Resource::Host, 1.0);
        bad.add_channel(a, b, 2, 1, None);
        bad.add_channel(a, b, 1, 1, None);
        assert!(format!("{}", analyze(&bad)).contains("REJECTED"));
    }

    #[test]
    fn two_device_schedule_reports_both_device_resources() {
        let mut g = SdfGraph::new("two-device");
        let enc = g.add_stage("encode", Resource::DEVICE, 2e-3);
        let score = g.add_stage("score", Resource::Device(1), 3e-3);
        g.add_channel(enc, score, 1, 1, Some(2));
        let report = analyze(&g);
        assert!(!report.has_errors(), "{report}");
        let text = format!("{report}");
        assert!(text.contains("busy device:"), "{text}");
        assert!(text.contains("busy device1:"), "{text}");
    }

    #[test]
    fn schedule_rule_table_covers_all_emitted_codes() {
        let names: Vec<&str> = crate::dataflow::SCHEDULE_RULES
            .iter()
            .map(|r| r.name)
            .collect();
        for code in [
            "rate-inconsistent",
            "buffer-undersized",
            "deadlock",
            "no-overlap",
        ] {
            assert!(names.contains(&code), "{code} missing from SCHEDULE_RULES");
        }
    }
}
