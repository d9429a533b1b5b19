//! Static verification of declared dataflow schedules.
//!
//! The framework's overlapped schedules (the device's double-buffered
//! DMA/compute invoke, parallel bagged member training, and two-device
//! serving) were first checked only by runtime `TimingLedger`
//! invariants. This module is the static half of that contract: a small
//! [synchronous-dataflow](https://en.wikipedia.org/wiki/Synchronous_Data_Flow)
//! (SDF) stage-graph IR plus an analyzer that *proves* a declared
//! schedule safe before any thread spawns or any simulated DMA fires.
//!
//! The IR ([`hd_dataflow::graph`]) models a schedule as stages with token
//! production/consumption rates on bounded channels, a resource tag
//! ([`Resource`]: device, host, or link) and a per-firing cost in
//! seconds. Every channel starts empty.
//!
//! There is one verdict on whether a schedule runs:
//! [`ExecutablePlan::validate`](hd_dataflow::runtime::ExecutablePlan::validate),
//! which every execution obeys. The analyzer ([`analyze`]) calls it once
//! and reports its refusal as one error:
//!
//! * `schedule/rate-inconsistent` — no smallest positive integer
//!   repetition vector balances every channel (or a channel is
//!   dangling or declares a zero rate),
//! * `schedule/buffer-undersized` — a declared capacity is below the
//!   minimal safe bound `produce + consume - gcd`; the message names
//!   the minimum,
//! * `schedule/deadlock` — symbolic execution of one steady-state
//!   iteration under the declared capacities stalls (any directed
//!   cycle, an empty self-loop included, since no channel is seeded);
//!   the message names the stuck stages and the blocking channel.
//!
//! For an accepted plan it adds a `schedule/no-overlap` warning for
//! every cross-resource channel too shallow to overlap its endpoints,
//! and reports the **analytic critical path** per steady-state
//! iteration, `overhead + max over resources of Σ(firings × cost)`:
//! resources serialize internally and overlap with each other, exactly
//! the `elapsed = overhead + max(transfer, compute)` law the simulated
//! device's ledger obeys. The prediction is a checkable lower bound that
//! the integration suite pins against measured ledgers to 1e-12.
//!
//! The validator fires whole stages atomically. Its dynamic
//! counterpart, [`check_interleavings`], drives the exhaustive
//! interleaving model checker ([`hd_dataflow::model_check`]) over the
//! same declaration, replaying the runtime's per-token `sync_channel`
//! semantics — including `Fire::Stop` and executor-error teardown
//! injected at every reachable firing — and surfaces its verdicts as
//! `schedule/interleaving-*` diagnostics. A differential property test
//! holds the two deadlock verdicts equal over random graphs.
//!
//! Diagnostics reuse the shared [`Diagnostic`](wide_nn::diag::Diagnostic)
//! currency under the `schedule/` code namespace; [`SCHEDULE_RULES`]
//! carries their metadata for SARIF output.

mod analyze;
mod interleave;

pub use analyze::{analyze, ScheduleAnalysis, ScheduleReport};
pub use hd_dataflow::model_check::{CheckConfig, CheckReport};
pub use interleave::{check_interleavings, InterleavingReport};
// The IR itself lives in the dependency-free `hd-dataflow` crate, shared
// with the executing runtime; re-exported here so analysis consumers keep
// their `hd_analysis::dataflow::*` paths.
pub use hd_dataflow::graph::{Channel, Resource, SdfGraph, Stage, StageId};
pub use hd_dataflow::solve::min_capacity;

use crate::rules::RuleInfo;
use wide_nn::diag::Severity;

/// Metadata for every `schedule/*` diagnostic the analyzer can emit,
/// mirroring [`RULES`](crate::rules::RULES) for the lint rules. Names
/// are bare; diagnostics carry the code `schedule/<name>`.
pub const SCHEDULE_RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "rate-inconsistent",
        severity: Severity::Error,
        description: "the declared token rates admit no balanced repetition vector; the \
                      schedule would accumulate or starve tokens every iteration",
    },
    RuleInfo {
        name: "buffer-undersized",
        severity: Severity::Error,
        description: "a declared channel capacity is below the analyzer's minimal safe bound \
                      (produce + consume - gcd)",
    },
    RuleInfo {
        name: "deadlock",
        severity: Severity::Error,
        description: "symbolic execution of the steady state stalls: some stage can never \
                      gather its input tokens and output space",
    },
    RuleInfo {
        name: "no-overlap",
        severity: Severity::Warning,
        description: "a cross-resource channel is too shallow to let producer and consumer \
                      fire concurrently; the declared overlap cannot happen",
    },
    RuleInfo {
        name: "interleaving-deadlock",
        severity: Severity::Error,
        description: "exhaustive model checking of the runtime's per-token semantics found a \
                      reachable interleaving where no stage can take a step",
    },
    RuleInfo {
        name: "interleaving-overflow",
        severity: Severity::Error,
        description: "a reachable interleaving drives a channel above its declared capacity",
    },
    RuleInfo {
        name: "interleaving-lost-token",
        severity: Severity::Error,
        description: "a reachable interleaving (possibly under an injected stop or executor \
                      error) strands buffered tokens that a receiver was obligated to drain, \
                      or finishes a fault-free run with unbalanced token counts",
    },
    RuleInfo {
        name: "interleaving-livelock",
        severity: Severity::Warning,
        description: "the interleaving exploration exceeded its transition bound or state \
                      budget, so termination of every schedule order is not proven",
    },
];
