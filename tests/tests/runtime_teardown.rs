//! Loss-free teardown of the SDF runtime under injected stage faults.
//!
//! The model checker proves on the virtual scheduler that a stage
//! dying — by executor error or by [`Fire::Stop`] — never strands
//! tokens a downstream receiver was obligated to drain. These tests
//! hold the real runtime to the same law: every stage of every
//! production graph is killed at every firing index, and the
//! closure-side token counters must show each receiver downstream of
//! the fault consumed every complete firing's worth of tokens that was
//! actually produced for it. (Receivers *upstream* of the fault owe no
//! such drain: their consumer died, so the runtime correctly fails
//! them fast.)
//!
//! Counters live in the executor closures because a stage error aborts
//! [`runtime::run`] without a [`RunReport`] — the closures are the only
//! witnesses of what moved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, FiringCtx, RunError, Supervised, Supervision,
};
use hd_dataflow::SdfGraph;
use hyperedge::schedule;

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Executor returns an error: the firing does not count and aborts
    /// the run.
    Error,
    /// Executor returns [`Fire::Stop`] with no outputs: the firing
    /// counts, the stage retires gracefully under-producing.
    Stop,
}

/// Stages reachable from `victim` through channel directions (the
/// stages whose input supply the fault cuts off), victim included.
fn downstream_of(graph: &SdfGraph, victim: usize) -> Vec<bool> {
    let mut reach = vec![false; graph.stages().len()];
    reach[victim] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for c in graph.channels() {
            if reach[c.from.index()] && !reach[c.to.index()] {
                reach[c.to.index()] = true;
                changed = true;
            }
        }
    }
    reach
}

/// Runs `plan` with synthetic executors, killing `victim` at its
/// `kill_at`-th firing, and returns the per-channel
/// `(produced, consumed)` token counts the closures observed.
fn run_with_fault(
    plan: &ExecutablePlan,
    iterations: u64,
    victim: usize,
    kill_at: u64,
    fault: Fault,
) -> Vec<(u64, u64)> {
    let graph = plan.graph();
    let produced: Vec<Arc<AtomicU64>> = (0..graph.channels().len())
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let consumed: Vec<Arc<AtomicU64>> = (0..graph.channels().len())
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let bindings: Vec<Binding<(), String>> = graph
        .stages()
        .iter()
        .enumerate()
        .map(|(s, _)| {
            let ins: Vec<(usize, u64)> = graph
                .channels()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.to.index() == s)
                .map(|(i, c)| (i, c.consume as u64))
                .collect();
            let outs: Vec<(usize, u64)> = graph
                .channels()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.from.index() == s)
                .map(|(i, c)| (i, c.produce as u64))
                .collect();
            let produce_total: usize = outs.iter().map(|&(_, r)| r as usize).sum();
            let produced = produced.clone();
            let consumed = consumed.clone();
            Supervised::map(
                Supervision::none(),
                move |ctx: FiringCtx, _inputs: &mut [()]| {
                    let firing = ctx.firing;
                    // The runtime collected this firing's full input batch
                    // before invoking us, so it counts as consumed even if
                    // the firing faults below — exactly the runtime's
                    // semantics (an erroring firing wastes its inputs).
                    for &(c, rate) in &ins {
                        consumed[c].fetch_add(rate, Ordering::SeqCst);
                    }
                    if s == victim && firing == kill_at {
                        return match fault {
                            Fault::Error => Err("injected fault".to_string()),
                            Fault::Stop => Ok((Vec::new(), Fire::Stop)),
                        };
                    }
                    for &(c, rate) in &outs {
                        produced[c].fetch_add(rate, Ordering::SeqCst);
                    }
                    Ok((vec![(); produce_total], Fire::Continue))
                },
            )
            .into_binding()
        })
        .collect();

    let result = runtime::run(plan, iterations, bindings);
    match fault {
        Fault::Error => match result {
            Err(RunError::Stage { stage, .. }) => {
                assert_eq!(stage, victim, "error must name the faulted stage")
            }
            other => panic!("expected a stage error, got {other:?}"),
        },
        Fault::Stop => {
            result.expect("a graceful stop never errors the run");
        }
    }

    produced
        .iter()
        .zip(&consumed)
        .map(|(p, c)| (p.load(Ordering::SeqCst), c.load(Ordering::SeqCst)))
        .collect()
}

/// How the supervised victim stage escalates after its injected fault.
#[derive(Clone, Copy, Debug)]
enum Escalated {
    /// `Escalation::Quarantine` whose rebind handler supplies a
    /// replacement: the firing re-runs and the run completes.
    QuarantineRebinds,
    /// `Escalation::Quarantine` whose rebind handler declines: the run
    /// aborts exactly like a stage error under `Escalation::Abort`.
    QuarantineDeclines,
}

/// Runs `plan` with the victim stage wrapped in a `Supervision` policy
/// that faults at firing `kill_at` and escalates per `mode`; healthy
/// stages run under `Supervision::none()`. Returns the per-channel
/// `(produced, consumed)` counts the closures observed.
///
/// The consumed counter bumps once per *firing* (not per attempt): the
/// runtime collects a firing's inputs once and replays the same batch
/// into every retry and re-bound executor, so a re-run must not
/// double-count the drain.
fn run_with_escalation(
    plan: &ExecutablePlan,
    iterations: u64,
    victim: usize,
    kill_at: u64,
    mode: Escalated,
) -> Vec<(u64, u64)> {
    let graph = plan.graph();
    let produced: Vec<Arc<AtomicU64>> = (0..graph.channels().len())
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let consumed: Vec<Arc<AtomicU64>> = (0..graph.channels().len())
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let bindings: Vec<Binding<(), String>> = graph
        .stages()
        .iter()
        .enumerate()
        .map(|(s, _)| {
            let ins: Vec<(usize, u64)> = graph
                .channels()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.to.index() == s)
                .map(|(i, c)| (i, c.consume as u64))
                .collect();
            let outs: Vec<(usize, u64)> = graph
                .channels()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.from.index() == s)
                .map(|(i, c)| (i, c.produce as u64))
                .collect();
            let produce_total: usize = outs.iter().map(|&(_, r)| r as usize).sum();
            let produced = produced.clone();
            let consumed = consumed.clone();
            // Healthy firing body, shared by the primary and the
            // re-bound executor. `counted` tracks the next un-tallied
            // firing so attempt replays of the same firing count its
            // consumed inputs exactly once.
            let counted = Arc::new(AtomicU64::new(0));
            let healthy = {
                let ins = ins.clone();
                let outs = outs.clone();
                let produced = produced.clone();
                let consumed = consumed.clone();
                let counted = counted.clone();
                move |firing: u64| {
                    if counted
                        .compare_exchange(firing, firing + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        for &(c, rate) in &ins {
                            consumed[c].fetch_add(rate, Ordering::SeqCst);
                        }
                    }
                    for &(c, rate) in &outs {
                        produced[c].fetch_add(rate, Ordering::SeqCst);
                    }
                    Ok((vec![(); produce_total], Fire::Continue))
                }
            };
            if s != victim {
                let healthy = healthy.clone();
                return Supervised::map(
                    Supervision::none(),
                    move |ctx: FiringCtx, _: &mut [()]| healthy(ctx.firing),
                )
                .into_binding();
            }
            let primary = {
                let healthy = healthy.clone();
                let consumed = consumed.clone();
                let counted = counted.clone();
                let ins = ins.clone();
                move |ctx: FiringCtx, _inputs: &mut [()]| {
                    if ctx.firing == kill_at {
                        // The runtime already drained this firing's
                        // inputs off the channels; tally them even
                        // though the attempt dies.
                        if counted
                            .compare_exchange(
                                ctx.firing,
                                ctx.firing + 1,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                        {
                            for &(c, rate) in &ins {
                                consumed[c].fetch_add(rate, Ordering::SeqCst);
                            }
                        }
                        return Err("injected fault".to_string());
                    }
                    healthy(ctx.firing)
                }
            };
            let supervised = Supervised::map(Supervision::none(), primary);
            match mode {
                Escalated::QuarantineRebinds => {
                    let healthy = healthy.clone();
                    supervised
                        .or_quarantine(move |_firing, _attempts, _e: &String| {
                            let healthy = healthy.clone();
                            Some(Box::new(move |ctx: FiringCtx, _inputs: &mut [()]| {
                                healthy(ctx.firing)
                            })
                                as runtime::SupervisedFn<'_, (), String>)
                        })
                        .into_binding()
                }
                Escalated::QuarantineDeclines => supervised
                    .or_quarantine(|_firing, _attempts, _e: &String| None)
                    .into_binding(),
            }
        })
        .collect();

    let result = runtime::run(plan, iterations, bindings);
    match mode {
        Escalated::QuarantineRebinds => {
            let report = result.expect("escalation recovers the run");
            assert!(report.completed, "recovered runs complete");
            let stats = &report.supervision[victim];
            assert_eq!(stats.faults, 1, "exactly the injected fault");
            assert_eq!(stats.rebinds, 1);
        }
        Escalated::QuarantineDeclines => match result {
            Err(RunError::Stage {
                stage,
                firing,
                attempts,
                ..
            }) => {
                assert_eq!(stage, victim, "error must name the faulted stage");
                assert_eq!(firing, kill_at);
                assert_eq!(attempts, 1, "no retries under Supervision::none()");
            }
            other => panic!("expected a stage error, got {other:?}"),
        },
    }

    produced
        .iter()
        .zip(&consumed)
        .map(|(p, c)| (p.load(Ordering::SeqCst), c.load(Ordering::SeqCst)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill every stage of every production graph at every firing
    /// index, both by executor error and by `Fire::Stop`: on every
    /// channel downstream of the fault, the receiver must have drained
    /// every complete firing's worth of tokens that was produced before
    /// the pipeline wound down — nothing buffered is dropped.
    #[test]
    fn prop_downstream_receivers_drain_everything_buffered_before_a_fault(
        iterations in 1u64..3,
        members in 2usize..5,
    ) {
        let graphs = schedule::production_schedules(members);
        for graph in graphs {
            let name = graph.name().to_string();
            let plan = ExecutablePlan::validate(graph).expect("production graphs validate");
            let targets: Vec<u64> =
                plan.repetition().iter().map(|&r| r * iterations).collect();
            for (victim, &target) in targets.iter().enumerate() {
                for kill_at in 0..target {
                    for fault in [Fault::Error, Fault::Stop] {
                        let counts =
                            run_with_fault(&plan, iterations, victim, kill_at, fault);
                        let downstream = downstream_of(plan.graph(), victim);
                        for (c, channel) in plan.graph().channels().iter().enumerate() {
                            if channel.to.index() == victim
                                || !downstream[channel.from.index()]
                            {
                                continue;
                            }
                            let (produced, consumed) = counts[c];
                            let consume = channel.consume as u64;
                            prop_assert_eq!(
                                consumed,
                                (produced / consume) * consume,
                                "{}: victim {} ({:?}) at firing {}: channel {} \
                                 produced {} but only {} consumed",
                                name,
                                victim,
                                fault,
                                kill_at,
                                plan.graph().channel_label(channel),
                                produced,
                                consumed
                            );
                        }
                    }
                }
            }
        }
    }

    /// The same law under every `Supervision` escalation path: fault
    /// every stage of every production graph at every firing index and
    /// escalate via a re-binding `Quarantine` and a declining
    /// `Quarantine`. Recovered runs must complete with every channel
    /// fully drained (produced == consumed); the declining quarantine
    /// must tear down exactly like an aborting stage error, with
    /// downstream receivers draining everything buffered.
    #[test]
    fn prop_escalations_preserve_the_teardown_guarantees(
        iterations in 1u64..3,
        members in 2usize..5,
    ) {
        let graphs = schedule::production_schedules(members);
        for graph in graphs {
            let name = graph.name().to_string();
            let plan = ExecutablePlan::validate(graph).expect("production graphs validate");
            let targets: Vec<u64> =
                plan.repetition().iter().map(|&r| r * iterations).collect();
            for (victim, &target) in targets.iter().enumerate() {
                for kill_at in 0..target {
                    for mode in [Escalated::QuarantineRebinds, Escalated::QuarantineDeclines] {
                        let counts =
                            run_with_escalation(&plan, iterations, victim, kill_at, mode);
                        match mode {
                            Escalated::QuarantineRebinds => {
                                // Recovery is total: the run completed, so
                                // every channel is fully drained.
                                for (c, channel) in
                                    plan.graph().channels().iter().enumerate()
                                {
                                    let (produced, consumed) = counts[c];
                                    prop_assert_eq!(
                                        produced,
                                        consumed,
                                        "{}: victim {} ({:?}) at firing {}: channel {} \
                                         left tokens behind after recovery",
                                        name,
                                        victim,
                                        mode,
                                        kill_at,
                                        plan.graph().channel_label(channel)
                                    );
                                    prop_assert!(produced > 0 || consumed == 0);
                                }
                            }
                            Escalated::QuarantineDeclines => {
                                let downstream = downstream_of(plan.graph(), victim);
                                for (c, channel) in
                                    plan.graph().channels().iter().enumerate()
                                {
                                    if channel.to.index() == victim
                                        || !downstream[channel.from.index()]
                                    {
                                        continue;
                                    }
                                    let (produced, consumed) = counts[c];
                                    let consume = channel.consume as u64;
                                    prop_assert_eq!(
                                        consumed,
                                        (produced / consume) * consume,
                                        "{}: victim {} ({:?}) at firing {}: channel {} \
                                         produced {} but only {} consumed",
                                        name,
                                        victim,
                                        mode,
                                        kill_at,
                                        plan.graph().channel_label(channel),
                                        produced,
                                        consumed
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
