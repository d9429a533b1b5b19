//! Exhaustive interleaving model checker for the SDF runtime.
//!
//! The runtime's validator
//! ([`ExecutablePlan::validate`](crate::runtime::ExecutablePlan::validate),
//! which `hd-analysis` reports) proves properties of a *declared* graph
//! symbolically, firing whole stages atomically. The runtime
//! ([`crate::runtime`]) executes the same graph with one thread per
//! stage over bounded `sync_channel`s, where every token send and
//! receive is its own blocking step. This module closes the gap between
//! the two: a **virtual scheduler** that replays the runtime's exact
//! per-token semantics — the recv/fire/send loop of `run_supervised`,
//! the one loop every serial stage runs, over the
//! endpoint layout fixed by
//! [`runtime::stage_ports`](crate::runtime::stage_ports) — and
//! exhaustively explores **all interleavings** of those steps with a
//! bounded-depth DFS over the state graph.
//!
//! At every reachable state the checker verifies:
//!
//! 1. **No deadlock** — some non-terminal stage can always take a step
//!    ([`Violation::Deadlock`]).
//! 2. **Bounded occupancy** — no channel ever holds more tokens than
//!    its declared capacity ([`Violation::Overflow`]).
//! 3. **Termination** — every maximal run finishes within the analytic
//!    transition bound (each step moves a token, completes a firing, or
//!    retires a stage, so the bound is exact); a search that exhausts
//!    its state or depth budget is reported ([`Violation::Livelock`]),
//!    never silently pruned.
//! 4. **Loss-free teardown** — with [`Inject::StopAndError`], a
//!    `Fire::Stop` and an executor error are injected at *every*
//!    reachable firing point of every stage; downstream receivers must
//!    still drain every token buffered before the fault
//!    ([`Violation::LostToken`]).
//! 5. **Token balance** — every fault-free terminal state has each
//!    stage at its full `repetition × iterations` firing target and
//!    every channel empty again
//!    ([`Violation::Unbalanced`]).
//!
//! Exploration is **deterministic**: no wall clock, no RNG, fixed
//! enumeration order (stage index, then step kind, then port order),
//! and exact state dedup via a hash map keyed on the full state (not a
//! lossy digest, so hash collisions cannot mask states). Two sound
//! reductions keep the state space small without hiding violations:
//!
//! * **Persistent singleton fires** — a fault-free `fire` step touches
//!   no channel and commutes with every step of every other stage, so
//!   when a stage's only enabled step is a normal fire the checker
//!   commits to the lowest such stage's fire alone (a singleton
//!   persistent set of an invisible transition). At injection points
//!   the fire branches three ways and the reduction is disabled.
//! * **Sleep sets** — after exploring step `t` from a state, sibling
//!   subtrees inherit `t` in their sleep set when independent of the
//!   sibling (disjoint stages *and* disjoint channel footprints), the
//!   classic Godefroid reduction. Sleep sets are reconciled with the
//!   visited cache: a state reached again under a sleep set that is not
//!   a superset of the stored one is re-explored under the
//!   intersection, so the combination stays exhaustive.
//!
//! The checker models the serial supervised loop
//! ([`Binding::Supervised`](crate::runtime::Binding::Supervised)) with
//! each firing's outcome — produce, stop, or an error that escalates to
//! abort — as one atomic step. Every serial stage in production runs
//! that loop; the only other stage shape, `SupervisedParMap`, refines
//! it by reassembling its firings' outputs in firing order. Retries and quarantine re-binds re-run a firing over inputs
//! already collected, touching no channel, and are not modelled as
//! separate transitions. Rate violations by a binding are the runtime's
//! own protocol check, out of scope here.
//! Multi-input stages drain their ports in channel order, so — exactly
//! like the runtime — a fault can strand tokens on a *later* port of a
//! stage that wound down on an earlier one; the checker reports that as
//! lost tokens rather than papering over it (all production graphs are
//! single-input per stage and pass clean).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::graph::SdfGraph;
use crate::runtime::{stage_ports, StagePorts};
use crate::solve;

/// Fault-injection mode of a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Explore only fault-free executions.
    None,
    /// Additionally branch every reachable firing of every stage into a
    /// `Fire::Stop` and an executor-error variant. At most one fault is
    /// injected per explored path, which still covers every reachable
    /// injection point.
    StopAndError,
}

/// Configuration of one model-check run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Steady-state iterations to drive (each stage fires
    /// `repetition × iterations` times). Two by default, so teardown
    /// interacts with a second iteration's in-flight tokens.
    pub iterations: u64,
    /// Fault-injection mode.
    pub inject: Inject,
    /// Cap on distinct states explored; hitting it truncates the search
    /// and reports [`Violation::Livelock`] so pruning is never silent.
    pub max_states: u64,
    /// Cap on the DFS path depth (transitions along one run). `None`
    /// derives the analytic bound, which no terminating execution can
    /// exceed — so exceeding it *is* a non-termination witness. An
    /// explicit cap below the analytic bound makes hitting it ordinary
    /// truncation (reported, but not a witness).
    pub max_depth: Option<usize>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            iterations: 2,
            inject: Inject::StopAndError,
            max_states: 4_000_000,
            max_depth: None,
        }
    }
}

/// Why the checker could not start: the graph has no balanced firing
/// target to check against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSetupError(pub solve::RateError);

impl fmt::Display for CheckSetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph has no repetition vector: {:?}", self.0)
    }
}

impl std::error::Error for CheckSetupError {}

/// One property violation, with the reachable state that witnesses it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// No non-terminal stage can take a step.
    Deadlock {
        /// The lowest-index stuck stage.
        stage: usize,
        /// The channel it is blocked on.
        channel: usize,
        /// True when blocked receiving (empty channel, live producer);
        /// false when blocked sending (full channel, live consumer).
        receiving: bool,
        /// Channel occupancies at the stall, in channel order.
        tokens: Vec<u32>,
    },
    /// A channel exceeded its declared capacity.
    Overflow {
        /// Producing stage.
        stage: usize,
        /// Channel index.
        channel: usize,
        /// Observed occupancy.
        occupancy: u32,
        /// The declared capacity it exceeded.
        capacity: usize,
    },
    /// Tokens were stranded on a channel whose consumer retired without
    /// a fault of its own: the drain guarantee failed.
    LostToken {
        /// Consuming stage that should have drained them.
        stage: usize,
        /// Channel index.
        channel: usize,
        /// Tokens stranded on the channel.
        stranded: u32,
        /// Stage index of the fault injected on this path, if any.
        fault: Option<usize>,
    },
    /// A fault-free terminal state where a stage fell short of its
    /// firing target: the token counts do not balance.
    Unbalanced {
        /// Stage index.
        stage: usize,
        /// Firings observed.
        fired: u64,
        /// Firings required (`repetition × iterations`).
        target: u64,
    },
    /// The search was cut short, so termination is not proven.
    Livelock {
        /// Distinct states explored before truncation.
        states: u64,
        /// Transitions executed before truncation.
        transitions: u64,
        /// True when a path exceeded the transition bound (a genuine
        /// non-termination witness); false when the state budget ran
        /// out.
        depth_exceeded: bool,
    },
}

/// Outcome of a model-check run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed (including re-explorations forced by
    /// sleep-set reconciliation).
    pub transitions: u64,
    /// Deepest DFS path reached.
    pub max_depth_seen: usize,
    /// Whether the search was truncated by a budget (also reported as a
    /// [`Violation::Livelock`]).
    pub truncated: bool,
    /// Deduplicated violations, sorted for deterministic output.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether every property held on every interleaving and the
    /// exploration was complete.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any interleaving deadlocks.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::Deadlock { .. }))
    }
}

/// How a stage left the system, mirroring the runtime's exit paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Terminal {
    /// Reached its firing target and exited the loop.
    Completed,
    /// `collect_inputs` saw a dead upstream on an empty buffer: the
    /// stage drained what it could and wound down.
    WoundDownRecv,
    /// A send failed because the consumer was gone: upstream fail-fast.
    WoundDownSend,
    /// An injected `Fire::Stop`: the firing counts, nothing is
    /// produced, the stage retires gracefully.
    Stopped,
    /// An injected executor error: the firing does not count.
    Failed,
}

/// The phase of one virtual stage thread within its current firing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// Collecting inputs; `got[p]` tokens received on input port `p`.
    Recv { got: Vec<u32> },
    /// Emitting outputs; `sent[p]` tokens sent on output port `p`.
    Send { sent: Vec<u32> },
    /// Endpoints dropped.
    Done(Terminal),
}

/// One interleaving state: channel occupancies, every stage's phase and
/// firing count, and the single-fault budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    tokens: Vec<u32>,
    fired: Vec<u64>,
    phases: Vec<Phase>,
    fault: Option<usize>,
}

/// A step of the virtual scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// Receive one token on input port `port`.
    Recv { stage: usize, port: usize },
    /// Complete one firing (no channel interaction).
    Fire { stage: usize },
    /// Complete one firing, then stop gracefully (injected fault).
    FireStop { stage: usize },
    /// Fail the firing (injected fault).
    FireError { stage: usize },
    /// Send one token on output port `port`.
    Send { stage: usize, port: usize },
    /// Drop endpoints with the given terminal kind.
    End { stage: usize, kind: Terminal },
}

impl Step {
    fn stage(self) -> usize {
        match self {
            Step::Recv { stage, .. }
            | Step::Fire { stage }
            | Step::FireStop { stage }
            | Step::FireError { stage }
            | Step::Send { stage, .. }
            | Step::End { stage, .. } => stage,
        }
    }

    /// The channels this step can affect. Terminal transitions touch
    /// every adjacent channel: they flip the liveness their neighbours'
    /// enabled steps depend on.
    fn touches(self, ports: &[StagePorts]) -> ChannelSet {
        match self {
            Step::Recv { stage, port } => ChannelSet::one(ports[stage].inputs[port].channel),
            Step::Send { stage, port } => ChannelSet::one(ports[stage].outputs[port].channel),
            Step::Fire { .. } => ChannelSet::NONE,
            Step::FireStop { stage } | Step::FireError { stage } | Step::End { stage, .. } => {
                let mut set = ChannelSet::NONE;
                for port in ports[stage].inputs.iter().chain(&ports[stage].outputs) {
                    set.insert(port.channel);
                }
                set
            }
        }
    }

    /// Independence for sleep sets: distinct stages with disjoint
    /// channel footprints commute and preserve each other's
    /// enabledness.
    fn independent(self, other: Step, ports: &[StagePorts]) -> bool {
        self.stage() != other.stage() && !self.touches(ports).intersects(other.touches(ports))
    }
}

/// A channel-index bit set. Graphs with more than 64 channels saturate
/// the set, which soundly disables the sleep-set reduction (everything
/// is treated as overlapping) without affecting exhaustiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChannelSet {
    bits: u64,
    saturated: bool,
}

impl ChannelSet {
    const NONE: ChannelSet = ChannelSet {
        bits: 0,
        saturated: false,
    };

    fn one(channel: usize) -> ChannelSet {
        let mut set = ChannelSet::NONE;
        set.insert(channel);
        set
    }

    fn insert(&mut self, channel: usize) {
        if channel < 64 {
            self.bits |= 1 << channel;
        } else {
            self.saturated = true;
        }
    }

    fn intersects(self, other: ChannelSet) -> bool {
        self.saturated || other.saturated || (self.bits & other.bits) != 0
    }
}

/// The immutable checking context.
struct Checker<'g> {
    graph: &'g SdfGraph,
    ports: Vec<StagePorts>,
    /// Blocking bound per channel (declared, or the solver minimum for
    /// unbounded declarations) — the `sync_channel` size.
    capacities: Vec<usize>,
    /// Firing target per stage: `repetition × iterations`.
    targets: Vec<u64>,
    inject: Inject,
    max_states: u64,
    max_depth: usize,
    /// Whether `max_depth` is at least the analytic transition bound —
    /// only then is exceeding it a non-termination witness rather than
    /// an explicitly requested shallow search.
    depth_is_witness: bool,
}

/// Mutable exploration bookkeeping.
struct Search {
    /// Visited states with the sleep set they were explored under.
    visited: HashMap<State, Vec<Step>>,
    states: u64,
    transitions: u64,
    max_depth_seen: usize,
    truncated: bool,
    depth_exceeded: bool,
    violations: Vec<Violation>,
}

impl Search {
    fn record(&mut self, violation: Violation) {
        // Deduplicate and bound the list; the counts in the report keep
        // the full magnitude visible.
        if self.violations.len() < 64 && !self.violations.contains(&violation) {
            self.violations.push(violation);
        }
    }
}

/// Model-checks a declared graph, resolving capacities the way
/// [`ExecutablePlan::validate`](crate::runtime::ExecutablePlan::validate) does (declared bound as-is, solver
/// minimum for unbounded channels), so for a validated plan this checks
/// exactly the `sync_channel`s the runtime allocates. It does **not**
/// first reject undersized bounds or deadlocking structures: where the
/// validator would only refuse, the checker exhibits the interleaving
/// that deadlocks or strands tokens.
///
/// # Errors
///
/// [`CheckSetupError`] when no repetition vector exists (rate
/// inconsistency): there is no firing target to check against.
pub fn check_graph(graph: &SdfGraph, cfg: &CheckConfig) -> Result<CheckReport, CheckSetupError> {
    let repetition = solve::repetition_vector(graph).map_err(CheckSetupError)?;
    let capacities = graph
        .channels()
        .iter()
        .map(|c| c.capacity.unwrap_or_else(|| solve::min_capacity(c)))
        .collect();
    Ok(check_resolved(graph, capacities, &repetition, cfg))
}

fn check_resolved(
    graph: &SdfGraph,
    capacities: Vec<usize>,
    repetition: &[u64],
    cfg: &CheckConfig,
) -> CheckReport {
    let ports = stage_ports(graph);
    let targets: Vec<u64> = repetition.iter().map(|&r| r * cfg.iterations).collect();

    // Analytic per-path transition bound: every step of a terminating
    // run either moves a token (per-firing receives + sends), completes
    // a firing, or retires a stage — so the bound below is exact and a
    // path exceeding it has provably entered a loop.
    let bound: u64 = targets
        .iter()
        .zip(&ports)
        .map(|(&target, p)| {
            let moved: usize = p
                .inputs
                .iter()
                .chain(&p.outputs)
                .map(|port| port.rate)
                .sum();
            target.saturating_mul(moved as u64 + 1).saturating_add(1)
        })
        .sum();
    let analytic_depth = usize::try_from(bound).unwrap_or(usize::MAX);
    let max_depth = cfg.max_depth.unwrap_or(analytic_depth).max(1);
    let checker = Checker {
        capacities,
        targets,
        inject: cfg.inject,
        max_states: cfg.max_states,
        max_depth,
        depth_is_witness: max_depth >= analytic_depth,
        graph,
        ports,
    };

    let initial = State {
        tokens: vec![0; graph.channels().len()],
        fired: vec![0; graph.stages().len()],
        phases: (0..graph.stages().len())
            .map(|s| Phase::Recv {
                got: vec![0; checker.ports[s].inputs.len()],
            })
            .collect(),
        fault: None,
    };

    let mut search = Search {
        visited: HashMap::new(),
        states: 0,
        transitions: 0,
        max_depth_seen: 0,
        truncated: false,
        depth_exceeded: false,
        violations: Vec::new(),
    };
    explore(&checker, &mut search, initial);

    if search.truncated {
        let (states, transitions) = (search.states, search.transitions);
        search.record(Violation::Livelock {
            states,
            transitions,
            depth_exceeded: search.depth_exceeded,
        });
    }
    search.violations.sort();
    CheckReport {
        states: search.states,
        transitions: search.transitions,
        max_depth_seen: search.max_depth_seen,
        truncated: search.truncated,
        violations: search.violations,
    }
}

fn is_done(phase: &Phase) -> bool {
    matches!(phase, Phase::Done(_))
}

/// Enumerates the enabled steps of one stage in deterministic order,
/// mirroring the runtime's `run_supervised` loop: check the firing target,
/// collect inputs port-by-port, execute, emit outputs port-by-port.
/// Every stage has at most one enabled step, except at a firing point
/// with an unspent fault budget, where the normal / stop / error
/// variants branch.
fn stage_steps(checker: &Checker<'_>, state: &State, s: usize, out: &mut Vec<Step>) {
    let ports = &checker.ports[s];
    match &state.phases[s] {
        Phase::Done(_) => {}
        Phase::Recv { got } => {
            if state.fired[s] >= checker.targets[s] {
                out.push(Step::End {
                    stage: s,
                    kind: Terminal::Completed,
                });
                return;
            }
            // First port still short of its rate — exactly
            // `collect_inputs`, which never looks past a blocked port.
            for (p, port) in ports.inputs.iter().enumerate() {
                if (got[p] as usize) < port.rate {
                    if state.tokens[port.channel] > 0 {
                        out.push(Step::Recv { stage: s, port: p });
                    } else if is_done(
                        &state.phases[checker.graph.channels()[port.channel].from.index()],
                    ) {
                        // recv() returned Err: drained and upstream dead.
                        out.push(Step::End {
                            stage: s,
                            kind: Terminal::WoundDownRecv,
                        });
                    }
                    // Otherwise: blocked on a live producer — no step.
                    return;
                }
            }
            // All inputs collected: the firing executes.
            out.push(Step::Fire { stage: s });
            if checker.inject == Inject::StopAndError && state.fault.is_none() {
                out.push(Step::FireStop { stage: s });
                out.push(Step::FireError { stage: s });
            }
        }
        Phase::Send { sent } => {
            for (p, port) in ports.outputs.iter().enumerate() {
                if (sent[p] as usize) < port.rate {
                    let channel = &checker.graph.channels()[port.channel];
                    if is_done(&state.phases[channel.to.index()]) {
                        // send() returned Err: consumer gone, fail fast.
                        out.push(Step::End {
                            stage: s,
                            kind: Terminal::WoundDownSend,
                        });
                    } else if (state.tokens[port.channel] as usize)
                        < checker.capacities[port.channel]
                    {
                        out.push(Step::Send { stage: s, port: p });
                    }
                    // Otherwise: blocked on a full channel — no step.
                    return;
                }
            }
            // Unreachable in practice: `apply` loops a completed Send
            // phase straight back to Recv. Kept total for safety.
            out.push(Step::Fire { stage: s });
        }
    }
}

/// Applies a step, checking declared capacity right where occupancy
/// changes.
fn apply(checker: &Checker<'_>, search: &mut Search, state: &State, step: Step) -> State {
    let mut next = state.clone();
    match step {
        Step::Recv { stage, port } => {
            next.tokens[checker.ports[stage].inputs[port].channel] -= 1;
            if let Phase::Recv { got } = &mut next.phases[stage] {
                got[port] += 1;
            }
        }
        Step::Fire { stage } => match &state.phases[stage] {
            Phase::Recv { .. } => {
                next.fired[stage] += 1;
                if checker.ports[stage].outputs.is_empty() {
                    next.phases[stage] = Phase::Recv {
                        got: vec![0; checker.ports[stage].inputs.len()],
                    };
                } else {
                    next.phases[stage] = Phase::Send {
                        sent: vec![0; checker.ports[stage].outputs.len()],
                    };
                }
            }
            // The defensive Send-phase loop-around from `stage_steps`.
            Phase::Send { .. } | Phase::Done(_) => {
                next.phases[stage] = Phase::Recv {
                    got: vec![0; checker.ports[stage].inputs.len()],
                };
            }
        },
        Step::FireStop { stage } => {
            // Fire::Stop with empty outputs: the firing counts, nothing
            // is produced, endpoints drop.
            next.fired[stage] += 1;
            next.phases[stage] = Phase::Done(Terminal::Stopped);
            next.fault = Some(stage);
        }
        Step::FireError { stage } => {
            next.phases[stage] = Phase::Done(Terminal::Failed);
            next.fault = Some(stage);
        }
        Step::Send { stage, port } => {
            let channel = checker.ports[stage].outputs[port].channel;
            next.tokens[channel] += 1;
            if let Some(declared) = checker.graph.channels()[channel].capacity {
                if next.tokens[channel] as usize > declared {
                    search.record(Violation::Overflow {
                        stage,
                        channel,
                        occupancy: next.tokens[channel],
                        capacity: declared,
                    });
                }
            }
            if let Phase::Send { sent } = &mut next.phases[stage] {
                sent[port] += 1;
                if sent
                    .iter()
                    .zip(&checker.ports[stage].outputs)
                    .all(|(&done, p)| done as usize >= p.rate)
                {
                    // Last token of the firing: straight back to Recv.
                    next.phases[stage] = Phase::Recv {
                        got: vec![0; checker.ports[stage].inputs.len()],
                    };
                }
            }
        }
        Step::End { stage, kind } => {
            next.phases[stage] = Phase::Done(kind);
        }
    }
    next
}

/// Checks the properties that are only meaningful once every stage has
/// retired and no step remains.
fn check_terminal(checker: &Checker<'_>, search: &mut Search, state: &State) {
    for (c, channel) in checker.graph.channels().iter().enumerate() {
        let consumer = channel.to.index();
        let stranded = match state.phases[consumer] {
            // A consumer that retired at its target, or wound down on a
            // dead upstream, was obligated to drain to empty first.
            Phase::Done(Terminal::Completed | Terminal::WoundDownRecv) => state.tokens[c],
            // Tokens parked behind the fault itself, or behind a stage
            // that failed fast on a dead downstream, are the documented
            // fail-fast semantics, not a drain violation.
            _ => 0,
        };
        if stranded > 0 {
            search.record(Violation::LostToken {
                stage: consumer,
                channel: c,
                stranded,
                fault: state.fault,
            });
        }
    }
    if state.fault.is_none() {
        for (s, &fired) in state.fired.iter().enumerate() {
            if fired != checker.targets[s] {
                search.record(Violation::Unbalanced {
                    stage: s,
                    fired,
                    target: checker.targets[s],
                });
            }
        }
    }
}

/// Diagnoses a wedged state: the lowest non-retired stage and the
/// channel it is blocked on.
fn diagnose_deadlock(checker: &Checker<'_>, search: &mut Search, state: &State) {
    let Some(stage) = state.phases.iter().position(|p| !is_done(p)) else {
        return;
    };
    let (channel, receiving) = match &state.phases[stage] {
        Phase::Recv { got } => checker.ports[stage]
            .inputs
            .iter()
            .enumerate()
            .find(|(p, port)| (got[*p] as usize) < port.rate)
            .map_or((0, true), |(_, port)| (port.channel, true)),
        Phase::Send { sent } => checker.ports[stage]
            .outputs
            .iter()
            .enumerate()
            .find(|(p, port)| (sent[*p] as usize) < port.rate)
            .map_or((0, false), |(_, port)| (port.channel, false)),
        Phase::Done(_) => (0, true),
    };
    search.record(Violation::Deadlock {
        stage,
        channel,
        receiving,
        tokens: state.tokens.clone(),
    });
}

/// One DFS stack frame: a state, the steps still to explore from it,
/// and the sleep set in force.
struct Frame {
    state: State,
    steps: Vec<Step>,
    cursor: usize,
    sleep: Vec<Step>,
}

/// Visits a state: reconciles it with the visited cache, enumerates its
/// enabled steps, applies the persistent-singleton reduction, checks
/// deadlock/terminal properties, and pushes a frame if there is
/// anything left to explore.
fn enter(
    checker: &Checker<'_>,
    search: &mut Search,
    state: State,
    sleep: Vec<Step>,
    stack: &mut Vec<Frame>,
) {
    // Prune only when a previous visit explored at least this much
    // (its sleep set was a subset of ours); otherwise re-explore under
    // the intersection.
    let sleep = match search.visited.entry(state.clone()) {
        Entry::Occupied(mut seen) => {
            if seen.get().iter().all(|t| sleep.contains(t)) {
                return;
            }
            let merged: Vec<Step> = seen
                .get()
                .iter()
                .copied()
                .filter(|t| sleep.contains(t))
                .collect();
            seen.insert(merged.clone());
            merged
        }
        Entry::Vacant(slot) => {
            slot.insert(sleep.clone());
            search.states += 1;
            sleep
        }
    };

    let mut enabled = Vec::new();
    for s in 0..checker.graph.stages().len() {
        stage_steps(checker, &state, s, &mut enabled);
    }
    if enabled.is_empty() {
        if state.phases.iter().all(is_done) {
            check_terminal(checker, search, &state);
        } else {
            diagnose_deadlock(checker, search, &state);
        }
        return;
    }

    // Persistent singleton: the lowest stage whose sole enabled step is
    // an invisible normal fire. (At an injection point that stage has
    // three enabled steps, so the reduction self-disables there.)
    let singleton = enabled.iter().copied().find(|step| {
        matches!(step, Step::Fire { stage }
            if enabled.iter().filter(|t| t.stage() == *stage).count() == 1)
    });
    let candidates = match singleton {
        Some(fire) => vec![fire],
        None => enabled,
    };
    // A state whose every candidate is slept is fully covered by
    // sibling subtrees — not a deadlock.
    let steps: Vec<Step> = candidates
        .into_iter()
        .filter(|t| !sleep.contains(t))
        .collect();
    if steps.is_empty() {
        return;
    }
    stack.push(Frame {
        state,
        steps,
        cursor: 0,
        sleep,
    });
}

/// Iterative DFS with persistent singleton fires and sleep sets.
fn explore(checker: &Checker<'_>, search: &mut Search, initial: State) {
    let mut stack: Vec<Frame> = Vec::new();
    enter(checker, search, initial, Vec::new(), &mut stack);

    while let Some(frame) = stack.last_mut() {
        if search.states > checker.max_states {
            search.truncated = true;
            return;
        }
        if frame.cursor >= frame.steps.len() {
            stack.pop();
            continue;
        }
        let step = frame.steps[frame.cursor];
        frame.cursor += 1;

        // Sleep set for the child: inherited plus already-explored
        // siblings, keeping only steps independent of the one taken.
        let child_sleep: Vec<Step> = frame
            .sleep
            .iter()
            .chain(&frame.steps[..frame.cursor - 1])
            .copied()
            .filter(|t| t.independent(step, &checker.ports))
            .collect();
        let state = frame.state.clone();

        if stack.len() > checker.max_depth {
            search.truncated = true;
            search.depth_exceeded |= checker.depth_is_witness;
            return;
        }
        search.transitions += 1;
        search.max_depth_seen = search.max_depth_seen.max(stack.len());
        let next = apply(checker, search, &state, step);
        enter(checker, search, next, child_sleep, &mut stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Resource, SdfGraph};
    use crate::runtime::ExecutablePlan;

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
    fn validated_chain_is_clean_under_fault_injection() {
        let plan = ExecutablePlan::validate(chain(2)).unwrap();
        let report = check_graph(plan.graph(), &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(!report.truncated);
        assert!(report.states > 0 && report.transitions > 0);
    }

    #[test]
    fn zero_capacity_chain_deadlocks() {
        let report = check_graph(&chain(0), &CheckConfig::default()).unwrap();
        assert!(report.has_deadlock(), "{:?}", report.violations);
    }

    #[test]
    fn zero_token_cycle_deadlocks() {
        let mut g = SdfGraph::new("cycle");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, Some(1));
        g.add_channel(b, a, 1, 1, Some(1));
        let report = check_graph(&g, &CheckConfig::default()).unwrap();
        assert!(report.has_deadlock(), "{:?}", report.violations);
    }

    #[test]
    fn fanout_graph_is_clean_at_min_capacities() {
        let mut g = SdfGraph::new("fan");
        let plan = g.add_stage("plan", Resource::Host, 0.0);
        let member = g.add_stage("member", Resource::Host, 1.0);
        let merge = g.add_stage("merge", Resource::Host, 0.0);
        g.add_channel(plan, member, 4, 1, Some(4));
        g.add_channel(member, merge, 1, 4, Some(4));
        let plan = ExecutablePlan::validate(g).unwrap();
        let report = check_graph(plan.graph(), &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn multi_input_fault_strands_later_port_tokens() {
        // join consumes from both ports in channel order; killing the
        // first producer can strand a token the second already buffered
        // — the runtime's own drain gap, which the checker must surface
        // rather than paper over.
        let mut g = SdfGraph::new("join");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        let j = g.add_stage("join", Resource::Host, 1.0);
        g.add_channel(a, j, 1, 1, Some(1));
        g.add_channel(b, j, 1, 1, Some(1));
        let plan = ExecutablePlan::validate(g).unwrap();
        let clean = check_graph(
            plan.graph(),
            &CheckConfig {
                inject: Inject::None,
                ..CheckConfig::default()
            },
        )
        .unwrap();
        assert!(clean.is_clean(), "{:?}", clean.violations);
        let faulted = check_graph(plan.graph(), &CheckConfig::default()).unwrap();
        assert!(
            faulted
                .violations
                .iter()
                .any(|v| matches!(v, Violation::LostToken { channel: 1, .. })),
            "{:?}",
            faulted.violations
        );
    }

    #[test]
    fn exhausted_state_budget_reports_livelock() {
        let report = check_graph(
            &chain(2),
            &CheckConfig {
                max_states: 3,
                ..CheckConfig::default()
            },
        )
        .unwrap();
        assert!(report.truncated);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Livelock { .. })),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let once = check_graph(&chain(2), &CheckConfig::default()).unwrap();
        let twice = check_graph(&chain(2), &CheckConfig::default()).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn rate_inconsistency_is_a_setup_error() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 2, 1, None);
        g.add_channel(a, b, 1, 1, None);
        assert!(check_graph(&g, &CheckConfig::default()).is_err());
    }
}
