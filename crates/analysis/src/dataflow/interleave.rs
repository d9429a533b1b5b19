//! Diagnostic surface of the interleaving model checker.
//!
//! [`check_interleavings`] drives the exhaustive virtual scheduler in
//! [`hd_dataflow::model_check`] over a declared graph and renders every
//! [`Violation`] as a `schedule/interleaving-*` diagnostic in the shared
//! [`Diagnostic`] currency, so model-check findings flow through the
//! same text/JSON/SARIF machinery as the analyzer's. The two are
//! complementary oracles: the analyzer
//! ([`analyze`](crate::dataflow::analyze)) reports the runtime
//! validator's whole-stage verdict on the *declaration*, while
//! the checker replays the runtime's per-token semantics and proves the
//! same properties — plus loss-free teardown under injected faults — for
//! every *interleaving* the runtime could schedule.
//!
//! Diagnostics are deterministically ordered by (stage index, channel
//! index), matching the analyzer's convention, and the state/transition
//! counts always accompany the verdict so a truncated search can never
//! pass silently.

use hd_dataflow::graph::SdfGraph;
use hd_dataflow::model_check::{check_graph, CheckConfig, CheckReport, Violation};
use wide_nn::diag::Diagnostic;

/// Outcome of model-checking one declared schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavingReport {
    /// Name of the checked graph.
    pub graph: String,
    /// Exploration statistics and raw violations; `None` when the graph
    /// has no repetition vector (reported as a diagnostic instead).
    pub check: Option<CheckReport>,
    /// All `schedule/interleaving-*` findings, ordered by stage index
    /// then channel index.
    pub diagnostics: Vec<Diagnostic>,
}

impl InterleavingReport {
    /// Whether any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == wide_nn::diag::Severity::Error)
    }

    /// One-line exploration summary (`N states, M transitions`), so
    /// reports always disclose how much was explored.
    #[must_use]
    pub fn coverage(&self) -> String {
        match &self.check {
            Some(check) => format!(
                "{} states, {} transitions, depth {}{}",
                check.states,
                check.transitions,
                check.max_depth_seen,
                if check.truncated { " (TRUNCATED)" } else { "" }
            ),
            None => "not explored (no repetition vector)".to_string(),
        }
    }
}

/// Sort key for deterministic diagnostic order: stage index, then
/// channel index.
fn violation_key(violation: &Violation) -> (usize, usize) {
    match *violation {
        Violation::Deadlock { stage, channel, .. }
        | Violation::Overflow { stage, channel, .. }
        | Violation::LostToken { stage, channel, .. } => (stage, channel),
        Violation::Unbalanced { stage, .. } => (stage, 0),
        Violation::Livelock { .. } => (usize::MAX, usize::MAX),
    }
}

fn render(graph: &SdfGraph, violation: &Violation) -> Diagnostic {
    let stage_name = |s: usize| graph.stages()[s].name.clone();
    let channel_name = |c: usize| graph.channel_label(&graph.channels()[c]);
    match violation {
        Violation::Deadlock {
            stage,
            channel,
            receiving,
            tokens,
        } => {
            let side = if *receiving {
                "waiting for a token on"
            } else {
                "waiting for space on"
            };
            let occupancy: Vec<String> = tokens.iter().map(ToString::to_string).collect();
            Diagnostic::error(
                "schedule/interleaving-deadlock",
                format!(
                    "a reachable interleaving wedges: `{}` is {side} `{}` with channel \
                     occupancies [{}] and no stage can take a step",
                    stage_name(*stage),
                    channel_name(*channel),
                    occupancy.join(", ")
                ),
            )
            .with_help(
                "raise the blocking channel's capacity or break the dependency cycle (every \
                 channel starts empty); the validator's minimal bounds are necessary but \
                 this interleaving shows they are not sufficient here",
            )
        }
        Violation::Overflow {
            stage,
            channel,
            occupancy,
            capacity,
        } => Diagnostic::error(
            "schedule/interleaving-overflow",
            format!(
                "`{}` can drive `{}` to {occupancy} token(s), above its declared capacity \
                 {capacity}",
                stage_name(*stage),
                channel_name(*channel)
            ),
        )
        .with_help("the declared capacity does not bound what the schedule can buffer"),
        Violation::LostToken {
            stage,
            channel,
            stranded,
            fault,
        } => {
            let trigger = match fault {
                Some(f) => format!("after an injected fault in `{}`", stage_name(*f)),
                None => "with no fault injected".to_string(),
            };
            Diagnostic::error(
                "schedule/interleaving-lost-token",
                format!(
                    "{trigger}, {stranded} buffered token(s) on `{}` are dropped instead of \
                     drained by `{}`",
                    channel_name(*channel),
                    stage_name(*stage)
                ),
            )
            .with_help(
                "loss-free teardown requires every receiver to drain its buffered input \
                 before winding down",
            )
        }
        Violation::Unbalanced {
            stage,
            fired,
            target,
        } => Diagnostic::error(
            "schedule/interleaving-lost-token",
            format!(
                "a fault-free run can finish with `{}` at {fired} of {target} firings: the \
                 token counts do not balance",
                stage_name(*stage)
            ),
        )
        .with_help("some tokens this stage owed or was owed never moved"),
        Violation::Livelock {
            states,
            transitions,
            depth_exceeded,
        } => {
            if *depth_exceeded {
                Diagnostic::error(
                    "schedule/interleaving-livelock",
                    format!(
                        "a run exceeded the analytic transition bound without terminating \
                         ({states} states, {transitions} transitions explored)"
                    ),
                )
                .with_help("no terminating execution can be this long: the schedule loops")
            } else {
                Diagnostic::warning(
                    "schedule/interleaving-livelock",
                    format!(
                        "exploration truncated by the state or depth budget after {states} \
                         states and {transitions} transitions: termination is not proven"
                    ),
                )
                .with_help("raise the model-check state budget or depth to finish the proof")
            }
        }
    }
}

/// Model-checks a declared graph and renders the findings as ordered
/// `schedule/interleaving-*` diagnostics.
#[must_use]
pub fn check_interleavings(graph: &SdfGraph, cfg: &CheckConfig) -> InterleavingReport {
    match check_graph(graph, cfg) {
        Ok(check) => {
            let mut violations: Vec<&Violation> = check.violations.iter().collect();
            violations.sort_by_key(|v| violation_key(v));
            let diagnostics = violations.into_iter().map(|v| render(graph, v)).collect();
            InterleavingReport {
                graph: graph.name().to_string(),
                check: Some(check),
                diagnostics,
            }
        }
        Err(err) => InterleavingReport {
            graph: graph.name().to_string(),
            check: None,
            diagnostics: vec![Diagnostic::error(
                "schedule/rate-inconsistent",
                format!("cannot model-check: {err}"),
            )],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Resource;

    fn chain(cap: usize) -> SdfGraph {
        let mut g = SdfGraph::new("chain");
        let a = g.add_stage("a", Resource::LINK, 1.0);
        let b = g.add_stage("b", Resource::DEVICE, 1.0);
        let c = g.add_stage("c", Resource::LINK, 1.0);
        g.add_channel(a, b, 1, 1, Some(cap));
        g.add_channel(b, c, 1, 1, Some(cap));
        g
    }

    #[test]
    fn clean_graph_reports_coverage_and_no_diagnostics() {
        let report = check_interleavings(&chain(2), &CheckConfig::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(!report.has_errors());
        assert!(
            report.coverage().contains("states"),
            "{}",
            report.coverage()
        );
    }

    #[test]
    fn undersized_capacity_yields_interleaving_deadlock() {
        let report = check_interleavings(&chain(0), &CheckConfig::default());
        assert!(report.has_errors());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "schedule/interleaving-deadlock"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn truncated_search_warns_livelock_with_counts() {
        let report = check_interleavings(
            &chain(2),
            &CheckConfig {
                max_states: 2,
                ..CheckConfig::default()
            },
        );
        let livelock = report
            .diagnostics
            .iter()
            .find(|d| d.code == "schedule/interleaving-livelock")
            .expect("livelock diagnostic");
        assert!(
            livelock.message.contains("transitions"),
            "{}",
            livelock.message
        );
        assert!(report.coverage().contains("TRUNCATED"));
    }

    #[test]
    fn rate_inconsistency_degrades_to_analyzer_code() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 2, 1, None);
        g.add_channel(a, b, 1, 1, None);
        let report = check_interleavings(&g, &CheckConfig::default());
        assert!(report.check.is_none());
        assert_eq!(report.diagnostics[0].code, "schedule/rate-inconsistent");
        assert!(report.coverage().contains("not explored"));
    }

    #[test]
    fn diagnostics_are_ordered_by_stage_then_channel() {
        // A two-input join under fault injection strands tokens on both
        // of its input channels (on different explored paths); the
        // rendered diagnostics must come out in channel order.
        let mut g = SdfGraph::new("join");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        let j = g.add_stage("join", Resource::Host, 1.0);
        g.add_channel(a, j, 1, 1, Some(1));
        g.add_channel(b, j, 1, 1, Some(1));
        let report = check_interleavings(&g, &CheckConfig::default());
        let messages: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "schedule/interleaving-lost-token")
            .map(|d| d.message.as_str())
            .collect();
        let first = messages.iter().position(|m| m.contains("`a -> join`"));
        let second = messages.iter().position(|m| m.contains("`b -> join`"));
        assert!(
            first.is_some() && second.is_some(),
            "expected strands on both channels: {messages:?}"
        );
        assert!(first < second, "{messages:?}");
    }
}
