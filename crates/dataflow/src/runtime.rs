//! The SDF schedule runtime: execute a validated graph directly.
//!
//! Lifecycle: **declare** an [`SdfGraph`]
//! (stages + channels + costs), **verify** it into an
//! [`ExecutablePlan`] (rates balance, capacities meet the solver's
//! minimal safe bounds, steady state cannot deadlock), **bind** one
//! [`Binding`] executor per stage, then **execute** with [`run`]. The
//! runtime runs the stage with the most declared work on the calling
//! thread and every other stage on a scoped thread of its own, connects
//! them with bounded `sync_channel`s sized exactly from the plan's
//! capacities, and drives each stage `repetition × iterations` firings.
//! A caller that runs one graph shape many times (a server answering
//! requests) keeps a [`Session`] instead: the same stage loops, but the
//! stages other than the caller's live on workers that persist across
//! runs, so a run pays for no thread start.
//!
//! Each stage shape has exactly one executor type and one run loop, and
//! every binding carries a fault policy: a serial stage is a
//! [`Supervised`] executor, a data-parallel stage a
//! [`Binding::SupervisedParMap`]. A stage that wants no fault handling
//! binds [`Supervision::none()`] with no escalation (no fallback,
//! no recovery); on a run that returns `Ok` it behaves exactly like a
//! bare executor. Executors borrow a firing's inputs as `&mut [T]`, so a
//! terminal stage can move its tokens out instead of cloning them. A
//! retried, re-bound or recovered attempt sees the slice as the failed
//! attempt left it; executors that can fail should only read it.
//!
//! This module is the single sanctioned concurrency site in the
//! workspace: the `no-adhoc-concurrency` lint allowlists exactly this
//! file, and every production pipeline (overlapped device invoke,
//! parallel ensemble members, blocked GEMM rows, two-device serving)
//! executes through it.
//!
//! Teardown is cooperative and loss-free for completed work: when a
//! stage stops early — [`Fire::Stop`], an executor error, or a
//! disconnected neighbour — it drops its channel endpoints. Upstream
//! senders then fail fast, while downstream receivers still drain every
//! token already buffered, so results produced before a fault stand.

use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::graph::SdfGraph;
use crate::solve;

/// Why a graph cannot be promoted to an [`ExecutablePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A channel references a stage outside the graph.
    Dangling {
        /// Index into the graph's channel list.
        channel: usize,
    },
    /// A channel declares a zero produce or consume rate.
    ZeroRate {
        /// Index into the graph's channel list.
        channel: usize,
    },
    /// No balanced repetition vector exists.
    RateInconsistent {
        /// Index into the graph's channel list.
        channel: usize,
    },
    /// A declared capacity is below the solver's minimal safe bound.
    Undersized {
        /// Index into the graph's channel list.
        channel: usize,
        /// The declared capacity.
        declared: usize,
        /// The minimal safe bound (`produce + consume - gcd`).
        minimum: usize,
    },
    /// Steady-state execution stalls under the declared capacities; the
    /// stalled state names the stuck stages and the blocking channel.
    Deadlock(solve::Stall),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Dangling { channel } => {
                write!(f, "channel {channel} references a stage outside the graph")
            }
            PlanError::ZeroRate { channel } => {
                write!(f, "channel {channel} declares a zero token rate")
            }
            PlanError::RateInconsistent { channel } => write!(
                f,
                "channel {channel} contradicts the graph's rates: no repetition vector exists"
            ),
            PlanError::Undersized {
                channel,
                declared,
                minimum,
            } => write!(
                f,
                "channel {channel} declares capacity {declared}, below the minimal safe \
                 bound {minimum}"
            ),
            PlanError::Deadlock(_) => {
                write!(
                    f,
                    "steady-state execution deadlocks under the declared capacities"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A verified, executable schedule: the graph plus its solved
/// repetition vector and the channel capacities the runtime will use
/// (the declared bound, or the solver's minimal safe bound for
/// unbounded declarations).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutablePlan {
    graph: SdfGraph,
    repetition: Vec<u64>,
    capacities: Vec<usize>,
}

impl ExecutablePlan {
    /// Verifies `graph` into a plan the runtime can execute: solves the
    /// repetition vector, checks every declared capacity against the
    /// minimal safe bound, and symbolically executes one steady-state
    /// iteration to prove deadlock freedom.
    pub fn validate(graph: SdfGraph) -> Result<ExecutablePlan, PlanError> {
        let repetition = solve::repetition_vector(&graph).map_err(|e| match e {
            solve::RateError::Dangling { channel } => PlanError::Dangling { channel },
            solve::RateError::ZeroRate { channel } => PlanError::ZeroRate { channel },
            solve::RateError::Inconsistent { channel } => PlanError::RateInconsistent { channel },
        })?;
        let mut capacities = Vec::with_capacity(graph.channels().len());
        for (c, channel) in graph.channels().iter().enumerate() {
            let minimum = solve::min_capacity(channel);
            match channel.capacity {
                Some(declared) if declared < minimum => {
                    return Err(PlanError::Undersized {
                        channel: c,
                        declared,
                        minimum,
                    });
                }
                Some(declared) => capacities.push(declared),
                None => capacities.push(minimum),
            }
        }
        solve::simulate_steady_state(&graph, &repetition).map_err(PlanError::Deadlock)?;
        Ok(ExecutablePlan {
            graph,
            repetition,
            capacities,
        })
    }

    /// The verified graph.
    #[must_use]
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// Firings of each stage per iteration, in stage order.
    #[must_use]
    pub fn repetition(&self) -> &[u64] {
        &self.repetition
    }

    /// The `sync_channel` bound the runtime uses per channel, in
    /// channel order.
    #[must_use]
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }
}

/// Flow control returned by a serial [`Supervised`] executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fire {
    /// Keep firing until the repetition target is met.
    Continue,
    /// Stop this stage after the current firing (e.g. a circuit breaker
    /// opened); downstream stages drain what was already produced.
    Stop,
}

/// Per-stage fault policy enforced by the runtime around every firing
/// of a supervised binding: a bounded retry budget with deterministic
/// exponential backoff (charged to the *simulated* clock — the runtime
/// never sleeps), and an optional per-firing deadline handed to the
/// executor through its [`FiringCtx`].
///
/// What happens once the budget is spent is the stage's
/// [`Escalation`]; the policy only decides *how long* the runtime keeps
/// trying the current executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supervision {
    /// Retries per firing beyond the first attempt.
    pub max_retries: u32,
    /// Backoff charged before the first retry, simulated seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_factor: f64,
    /// Optional per-firing deadline, passed to the executor via
    /// [`FiringCtx::deadline_s`] (the runtime cannot preempt an
    /// executor; the executor enforces it, e.g. as a device watchdog).
    pub deadline_s: Option<f64>,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision::none()
    }
}

impl Supervision {
    /// No retries, no deadline: every executor error escalates
    /// immediately. The wrapper still names the stage, firing, and
    /// attempt count in [`RunError::Stage`] and still counts faults.
    #[must_use]
    pub fn none() -> Self {
        Supervision {
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_factor: 1.0,
            deadline_s: None,
        }
    }

    /// Bounded retries with exponential backoff.
    #[must_use]
    pub fn retries(max_retries: u32, backoff_base_s: f64, backoff_factor: f64) -> Self {
        Supervision {
            max_retries,
            backoff_base_s,
            backoff_factor,
            deadline_s: None,
        }
    }

    /// Sets the per-firing deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: Option<f64>) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// Backoff charged before the `retry`-th retry (1-based):
    /// `base * factor^(retry-1)`.
    #[must_use]
    pub fn backoff_s(&self, retry: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(retry.saturating_sub(1) as i32)
    }
}

/// What the runtime tells a supervised executor about the attempt it is
/// about to run. `attempt > 0` means this call is a retry of the same
/// firing over the same inputs; `backoff_s` is the simulated backoff
/// charged immediately before this attempt (zero on first attempts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiringCtx {
    /// Zero-based firing index within the run.
    pub firing: u64,
    /// Zero-based attempt number within this firing.
    pub attempt: u32,
    /// Simulated backoff seconds charged before this attempt.
    pub backoff_s: f64,
    /// The supervising policy's per-firing deadline, if any.
    pub deadline_s: Option<f64>,
}

/// Serial per-firing executor: receives this firing's consumed tokens
/// (in channel order), returns the produced tokens (in channel order)
/// and whether to keep firing; on [`Fire::Stop`] the produced tokens
/// may be empty. Inputs are borrowed so the runtime can re-run the same
/// firing after a fault without requiring `T: Clone`; a retry or a
/// re-bound executor sees the slice as the failed attempt left it.
pub type SupervisedFn<'env, T, E> =
    Box<dyn FnMut(FiringCtx, &mut [T]) -> Result<(Vec<T>, Fire), E> + Send + 'env>;

/// Quarantine handler: given the failing firing, the attempts spent on
/// the current executor, and the error that exhausted them, either
/// re-binds the stage to a replacement executor (drain to a sibling
/// device, degrade to a host path, ...) or gives up (`None` aborts the
/// run with the original error). May be consulted repeatedly — each
/// replacement gets a fresh retry budget and the same escalation.
pub type RebindFn<'env, T, E> =
    Box<dyn FnMut(u64, u32, &E) -> Option<SupervisedFn<'env, T, E>> + Send + 'env>;

/// Data-parallel per-firing executor: like [`SupervisedFn`] but pure
/// enough to run firings on a worker pool. Outputs are re-ordered to
/// firing order before being sent downstream, so execution stays
/// deterministic. A faulted firing retries on its worker over the slice
/// as the failed attempt left it.
pub type SupervisedParFn<'env, T, E> =
    Box<dyn Fn(FiringCtx, &mut [T]) -> Result<Vec<T>, E> + Send + Sync + 'env>;

/// Per-firing recovery for a supervised data-parallel stage, consulted
/// after a firing's retry budget is spent with the firing's inputs as
/// the failed attempt left them: `None` aborts with the original error;
/// `Some(result)` stands in for the firing (an `Err` aborts with the
/// replacement's error). Unlike the serial [`Escalation::Quarantine`],
/// recovery is consulted independently per firing — parallel firings
/// are independent work items, so one item's recovery must not degrade
/// its siblings.
pub type RecoverFn<'env, T, E> =
    Box<dyn Fn(u64, u32, &E, &mut [T]) -> Option<Result<Vec<T>, E>> + Send + Sync + 'env>;

/// What a supervised serial stage does once a firing's retry budget is
/// exhausted (or the error is not retryable), in escalation order:
/// retry < quarantine < abort.
pub enum Escalation<'env, T, E> {
    /// Fail the run with a [`RunError::Stage`] naming the stage,
    /// firing, and attempt count.
    Abort,
    /// Ask a [`RebindFn`] for a replacement executor; reusable across
    /// the run, so a stage can drain through a whole pool of siblings
    /// before giving up.
    Quarantine(RebindFn<'env, T, E>),
}

/// A serial stage executor under a [`Supervision`] policy: the primary
/// executor, a retryability predicate (non-retryable errors skip the
/// budget and escalate at once), and the escalation action.
pub struct Supervised<'env, T, E> {
    policy: Supervision,
    primary: SupervisedFn<'env, T, E>,
    retryable: Box<dyn FnMut(&E) -> bool + Send + 'env>,
    escalation: Escalation<'env, T, E>,
}

impl<'env, T, E> Supervised<'env, T, E> {
    /// Wraps a serial executor under `policy` with every error
    /// retryable and [`Escalation::Abort`].
    #[must_use]
    pub fn map(
        policy: Supervision,
        f: impl FnMut(FiringCtx, &mut [T]) -> Result<(Vec<T>, Fire), E> + Send + 'env,
    ) -> Self {
        Supervised {
            policy,
            primary: Box::new(f),
            retryable: Box::new(|_| true),
            escalation: Escalation::Abort,
        }
    }

    /// Restricts which errors consume the retry budget; the rest
    /// escalate immediately.
    #[must_use]
    pub fn retry_when(mut self, pred: impl FnMut(&E) -> bool + Send + 'env) -> Self {
        self.retryable = Box::new(pred);
        self
    }

    /// Escalates through a quarantine/re-bind handler.
    #[must_use]
    pub fn or_quarantine(
        mut self,
        rebind: impl FnMut(u64, u32, &E) -> Option<SupervisedFn<'env, T, E>> + Send + 'env,
    ) -> Self {
        self.escalation = Escalation::Quarantine(Box::new(rebind));
        self
    }

    /// The stage binding for this supervised executor.
    #[must_use]
    pub fn into_binding(self) -> Binding<'env, T, E> {
        Binding::Supervised(Box::new(self))
    }
}

/// The executor bound to one stage of an [`ExecutablePlan`]: one
/// variant per stage shape, each under a fault policy.
pub enum Binding<'env, T, E> {
    /// Fire serially, once per repetition-vector entry per iteration,
    /// under a per-stage fault policy: the runtime retries or
    /// quarantines around every firing per the wrapped [`Supervision`]
    /// and [`Escalation`].
    Supervised(Box<Supervised<'env, T, E>>),
    /// Fire on up to `workers` pooled threads, preserving firing order
    /// on the output channels: each firing retries on its worker per
    /// `policy`, then consults `recover` (per-firing recovery instead of
    /// the serial escalation).
    SupervisedParMap {
        /// Worker-pool width (clamped to at least 1).
        workers: usize,
        /// The per-firing retry policy.
        policy: Supervision,
        /// The per-firing executor.
        f: SupervisedParFn<'env, T, E>,
        /// Per-firing recovery once the retry budget is spent; `None`
        /// behaves like [`Escalation::Abort`].
        recover: Option<RecoverFn<'env, T, E>>,
    },
}

/// Why a [`run`] failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RunError<E> {
    /// A stage executor returned an error.
    Stage {
        /// Stage index in graph order.
        stage: usize,
        /// The failing stage's declared name.
        name: String,
        /// The firing index that failed.
        firing: u64,
        /// Attempts spent on that firing before giving up (1 when the
        /// policy granted no retries or the error was not retryable).
        attempts: u32,
        /// The executor's error.
        error: E,
    },
    /// A binding violated the declared rates (e.g. a serial executor
    /// returned the wrong number of tokens) or the binding list does
    /// not match the graph.
    Protocol {
        /// Stage index in graph order (`usize::MAX` for a plan-level
        /// mismatch).
        stage: usize,
        /// Human-readable description.
        message: String,
    },
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stage {
                stage,
                name,
                firing,
                attempts,
                error,
            } => write!(
                f,
                "stage {stage} ({name}) failed at firing {firing} after {attempts} attempt(s): \
                 {error}"
            ),
            RunError::Protocol { stage, message } => {
                write!(f, "stage {stage} protocol violation: {message}")
            }
        }
    }
}

/// How one supervised firing attempt was resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The firing will be retried after charging `backoff_s` to the
    /// simulated clock.
    Retried {
        /// Simulated backoff charged before the retry.
        backoff_s: f64,
    },
    /// A fallback stood in: a data-parallel firing's [`RecoverFn`]
    /// produced its result.
    Substituted,
    /// The stage's quarantine handler re-bound it to a replacement
    /// executor.
    Rebound,
    /// No recovery remained: the stage aborts the run.
    Aborted,
}

/// One entry of a stage's fault trace: which firing faulted, on which
/// attempt, and what the supervisor did about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Firing index of the faulted attempt.
    pub firing: u64,
    /// Zero-based attempt number that faulted.
    pub attempt: u32,
    /// How the supervisor resolved it.
    pub action: FaultAction,
}

/// Per-stage supervision counters and fault trace, reported in
/// [`RunReport::supervision`]. All-zero (and trace empty) for stages
/// that never faulted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageSupervision {
    /// Executor errors observed (every failed attempt counts one).
    pub faults: u64,
    /// Attempts beyond the first, per firing, summed over the run.
    pub retries: u64,
    /// Total simulated backoff charged across all retries.
    pub backoff_s: f64,
    /// Fallbacks taken: a parallel firing recovered by its
    /// [`RecoverFn`].
    pub substitutions: u64,
    /// Quarantine re-binds ([`Escalation::Quarantine`] produced a
    /// replacement executor).
    pub rebinds: u64,
    /// The fault trace, in (firing, attempt) order.
    pub trace: Vec<FaultEvent>,
}

impl StageSupervision {
    /// True when the stage saw no faults at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults == 0 && self.trace.is_empty()
    }
}

/// What actually happened during a [`run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Completed firings per stage, in graph order.
    pub firings: Vec<u64>,
    /// The iteration count the run was asked for.
    pub iterations: u64,
    /// Whether every stage met its full `repetition × iterations`
    /// target (false after a [`Fire::Stop`] or early teardown).
    pub completed: bool,
    /// Per-stage supervision counters and fault traces, in graph order.
    pub supervision: Vec<StageSupervision>,
}

impl RunReport {
    /// Measured analytic elapsed time of the run: per-iteration
    /// overhead plus the busiest resource's `Σ observed firings ×
    /// cost`. On a completed run this equals `iterations ×` the
    /// analyzer's critical path exactly (same arithmetic, same order).
    #[must_use]
    pub fn measured_elapsed_s(&self, graph: &SdfGraph) -> f64 {
        let longest = solve::resource_busy_s(graph, &self.firings)
            .into_iter()
            .fold(0.0f64, |acc, (_, busy)| acc.max(busy));
        graph.overhead_s() * self.iterations as f64 + longest
    }
}

/// One channel endpoint of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Index into [`SdfGraph::channels`].
    pub channel: usize,
    /// Tokens this stage moves on the channel per firing (the consume
    /// rate for an input port, the produce rate for an output port).
    pub rate: usize,
}

/// The channel endpoints of one stage, each list in graph channel
/// order. This is the runtime's firing contract, factored out so the
/// model checker ([`crate::model_check`]) replays exactly the endpoint
/// layout and port order [`run`] wires with `sync_channel`s: a stage
/// collects its input ports in order (`collect_inputs`) and emits its
/// output ports in order (`send_outputs`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StagePorts {
    /// Channels this stage consumes from, in graph channel order.
    pub inputs: Vec<Port>,
    /// Channels this stage produces to, in graph channel order.
    pub outputs: Vec<Port>,
}

/// The per-stage endpoint layout of a graph, in stage order.
#[must_use]
pub fn stage_ports(graph: &SdfGraph) -> Vec<StagePorts> {
    let mut ports: Vec<StagePorts> = vec![StagePorts::default(); graph.stages().len()];
    for (c, channel) in graph.channels().iter().enumerate() {
        ports[channel.from.index()].outputs.push(Port {
            channel: c,
            rate: channel.produce,
        });
        ports[channel.to.index()].inputs.push(Port {
            channel: c,
            rate: channel.consume,
        });
    }
    ports
}

/// Outcome of one stage thread.
struct StageOutcome<E> {
    firings: u64,
    fault: Option<Fault<E>>,
    supervision: StageSupervision,
}

enum Fault<E> {
    Stage {
        error: E,
        firing: u64,
        attempts: u32,
    },
    Protocol(String),
}

/// Channel endpoints of one stage, in graph channel order.
struct StageIo<T> {
    inputs: Vec<Receiver<T>>,
    in_rates: Vec<usize>,
    outputs: Vec<SyncSender<T>>,
    out_rates: Vec<usize>,
}

/// How long a stage polls an empty channel before it blocks on it. A
/// blocked thread's wake-up is on a run's critical path (the last token
/// to a stage, a session worker's outcome to the caller); on a virtual
/// machine a parked virtual CPU can take tens of microseconds to wake, a
/// large share of a sub-millisecond run.
const POLL: Duration = Duration::from_millis(1);

/// Receives one token: polls for up to [`POLL`], yielding the CPU
/// between tries so a sender sharing the core still runs, then blocks.
/// `Err` once the channel is empty and every sender gone.
fn receive<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    while start.elapsed() < POLL {
        match rx.try_recv() {
            Ok(token) => return Ok(token),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => thread::yield_now(),
        }
    }
    rx.recv()
}

/// Executes a validated plan: the busiest stage on the calling thread
/// and one scoped thread per other stage, bounded channels sized from
/// the plan, `repetition × iterations` firings per serial or
/// data-parallel stage. Returns the per-stage firing counts, or the
/// first (lowest stage index) executor error.
pub fn run<'env, T, E>(
    plan: &ExecutablePlan,
    iterations: u64,
    bindings: Vec<Binding<'env, T, E>>,
) -> Result<RunReport, RunError<E>>
where
    T: Send + 'env,
    E: Send + 'env,
{
    let stage_count = plan.graph().stages().len();
    if bindings.len() != stage_count {
        return Err(RunError::Protocol {
            stage: usize::MAX,
            message: format!(
                "{} bindings supplied for {} stages",
                bindings.len(),
                stage_count
            ),
        });
    }

    // The calling thread runs the stage with the most declared work per
    // iteration (`repetition × cost`, the first on ties) instead of
    // idling in `join`: one spawn fewer, and that stage's allocations
    // stay on the caller's thread (and in its malloc arena).
    let work = |s: usize| plan.repetition()[s] as f64 * plan.graph().stages()[s].cost_s;
    let busiest = (0..stage_count).fold(0, |best, s| if work(s) > work(best) { s } else { best });
    let outcomes: Vec<StageOutcome<E>> = thread::scope(|scope| {
        let mut own = None;
        let handles: Vec<_> = bindings
            .into_iter()
            .zip(wire(plan))
            .enumerate()
            .map(|(s, (mut binding, io))| {
                let target = plan.repetition()[s] * iterations;
                if s == busiest {
                    own = Some((binding, io, target));
                    return None;
                }
                Some(scope.spawn(move || run_stage(&mut binding, io, target)))
            })
            .collect();
        let mut own = own.map(|(mut binding, io, target)| run_stage(&mut binding, io, target));
        handles
            .into_iter()
            .map(|h| match h {
                Some(h) => h.join().expect("schedule stage panicked"),
                None => own.take().expect("the calling thread ran this stage"),
            })
            .collect()
    });
    assemble(plan, iterations, outcomes)
}

/// Builds one bounded channel per graph channel and hands each stage
/// its endpoints in the shared [`stage_ports`] layout — the same layout
/// the model checker replays. Every run wires afresh, so a run starts
/// with every channel empty whatever the last run left buffered: this
/// is the reset between a [`Session`]'s runs.
fn wire<T>(plan: &ExecutablePlan) -> Vec<StageIo<T>> {
    type Endpoint<T> = (Option<SyncSender<T>>, Option<Receiver<T>>);
    let mut endpoints: Vec<Endpoint<T>> = plan
        .capacities()
        .iter()
        .map(|&capacity| {
            let (tx, rx) = sync_channel::<T>(capacity);
            (Some(tx), Some(rx))
        })
        .collect();
    stage_ports(plan.graph())
        .into_iter()
        .map(|ports| StageIo {
            inputs: ports
                .inputs
                .iter()
                .map(|p| {
                    endpoints[p.channel]
                        .1
                        .take()
                        .expect("one consumer per channel")
                })
                .collect(),
            in_rates: ports.inputs.iter().map(|p| p.rate).collect(),
            outputs: ports
                .outputs
                .iter()
                .map(|p| {
                    endpoints[p.channel]
                        .0
                        .take()
                        .expect("one producer per channel")
                })
                .collect(),
            out_rates: ports.outputs.iter().map(|p| p.rate).collect(),
        })
        .collect()
}

/// Folds the stage outcomes of one run, in stage order, into its
/// report, or into the first (lowest stage index) fault.
fn assemble<E>(
    plan: &ExecutablePlan,
    iterations: u64,
    outcomes: Vec<StageOutcome<E>>,
) -> Result<RunReport, RunError<E>> {
    let graph = plan.graph();
    let mut firings = Vec::with_capacity(outcomes.len());
    let mut supervision = Vec::with_capacity(outcomes.len());
    let mut first_fault: Option<RunError<E>> = None;
    for (s, outcome) in outcomes.into_iter().enumerate() {
        firings.push(outcome.firings);
        supervision.push(outcome.supervision);
        if first_fault.is_none() {
            first_fault = outcome.fault.map(|fault| match fault {
                Fault::Stage {
                    error,
                    firing,
                    attempts,
                } => RunError::Stage {
                    stage: s,
                    name: graph.stages()[s].name.clone(),
                    firing,
                    attempts,
                    error,
                },
                Fault::Protocol(message) => RunError::Protocol { stage: s, message },
            });
        }
    }
    if let Some(err) = first_fault {
        return Err(err);
    }
    let completed = firings
        .iter()
        .zip(plan.repetition())
        .all(|(&fired, &reps)| fired == reps * iterations);
    Ok(RunReport {
        firings,
        iterations,
        completed,
        supervision,
    })
}

/// One run's work for a [`Session`] worker: its stage's endpoints, its
/// firing target, and where to report the outcome.
struct Job<T, E> {
    io: StageIo<T>,
    target: u64,
    done: SyncSender<(usize, StageOutcome<E>)>,
}

/// A session stage's persistent worker thread and its job queue.
struct Worker<T, E> {
    stage: usize,
    jobs: SyncSender<Job<T, E>>,
    handle: JoinHandle<()>,
}

/// A reusable executor for many runs of one graph shape: what a server
/// builds once and then runs per request.
///
/// One stage, the one bound to `None` at [`Session::new`], runs on the
/// calling thread of each [`Session::run`] with a binding supplied for
/// that run, so it can borrow the run's data; give it the stage with the
/// most work, as [`run`] does, where that stage can take it. Every other
/// stage owns its binding and runs on a worker thread that the session
/// starts once and keeps across runs; whatever such a stage needs from
/// a run reaches it as tokens on its input channels. Each stage runs
/// exactly the loop it runs under [`run`], with the same supervision,
/// and a resident binding carries its state (a quarantine re-bind, for
/// one) into later runs.
///
/// Between runs the session resets: each run wires fresh bounded
/// channels from its plan, so tokens a faulted run stranded never reach
/// the next one. The caller waits for the workers' outcomes as a stage
/// waits for a token (polling, then blocking); between runs a worker
/// blocks on its job queue. A run returns only after every stage of it
/// has finished, and dropping the session stops and joins its workers.
/// A worker whose executor panicked is gone: that run and every later
/// one fail with [`RunError::Protocol`] naming its stage.
pub struct Session<T, E> {
    ports: Vec<StagePorts>,
    caller: usize,
    workers: Vec<Worker<T, E>>,
}

impl<T: Send + 'static, E: Send + 'static> Session<T, E> {
    /// Starts a session for the shape of `plan`: one worker per stage
    /// bound to `Some` resident binding, in stage order, and the one
    /// stage bound to `None` left to the caller of each run.
    ///
    /// # Errors
    ///
    /// [`RunError::Protocol`] if the binding list does not match the
    /// graph's stage count or does not leave exactly one stage to the
    /// caller.
    ///
    /// # Panics
    ///
    /// If the operating system cannot start a worker thread.
    pub fn new(
        plan: &ExecutablePlan,
        resident: Vec<Option<Binding<'static, T, E>>>,
    ) -> Result<Self, RunError<E>> {
        let stages = plan.graph().stages().len();
        let protocol = |message: String| RunError::Protocol {
            stage: usize::MAX,
            message,
        };
        if resident.len() != stages {
            return Err(protocol(format!(
                "{} bindings supplied for {stages} stages",
                resident.len()
            )));
        }
        let callers: Vec<usize> = (0..resident.len())
            .filter(|&s| resident[s].is_none())
            .collect();
        let [caller] = callers[..] else {
            return Err(protocol(format!(
                "{} stages left to the caller; a session runs exactly one there",
                callers.len()
            )));
        };
        let workers = resident
            .into_iter()
            .enumerate()
            .filter_map(|(stage, binding)| Some((stage, binding?)))
            .map(|(stage, mut binding)| {
                let (jobs, queue) = sync_channel::<Job<T, E>>(1);
                let handle = thread::spawn(move || {
                    for job in queue {
                        let outcome = run_stage(&mut binding, job.io, job.target);
                        // The caller stopped waiting only if it panicked;
                        // nothing is left to report to.
                        let _ = job.done.send((stage, outcome));
                    }
                });
                Worker {
                    stage,
                    jobs,
                    handle,
                }
            })
            .collect();
        Ok(Session {
            ports: stage_ports(plan.graph()),
            caller,
            workers,
        })
    }

    /// Runs `plan`, which must have the shape the session was started
    /// with (its costs, capacities and repetition may differ), for
    /// `iterations`: the caller's stage under `caller` on this thread,
    /// every other stage on its worker, over freshly wired channels.
    /// Returns what [`run`] returns for the same bindings.
    ///
    /// # Errors
    ///
    /// As [`run`]; [`RunError::Protocol`] also if `plan`'s stages and
    /// channels differ from the session's, or if a worker's executor
    /// panicked, in this run or an earlier one.
    pub fn run(
        &mut self,
        plan: &ExecutablePlan,
        iterations: u64,
        mut caller: Binding<'_, T, E>,
    ) -> Result<RunReport, RunError<E>> {
        if stage_ports(plan.graph()) != self.ports {
            return Err(RunError::Protocol {
                stage: usize::MAX,
                message: "the plan's stages and channels differ from the session's".into(),
            });
        }
        let mut ios: Vec<Option<StageIo<T>>> = wire(plan).into_iter().map(Some).collect();
        let target = |s: usize| plan.repetition()[s] * iterations;
        let mut outcomes: Vec<Option<StageOutcome<E>>> = (0..ios.len()).map(|_| None).collect();
        let (done, reports) = sync_channel(self.workers.len());
        let (mut started, mut lost) = (0, None);
        for worker in &self.workers {
            let job = Job {
                io: ios[worker.stage].take().expect("one job per stage"),
                target: target(worker.stage),
                done: done.clone(),
            };
            if worker.jobs.send(job).is_err() {
                lost = Some(worker.stage);
                break;
            }
            started += 1;
        }
        drop(done);
        if lost.is_none() {
            let io = ios[self.caller].take().expect("the caller's stage");
            outcomes[self.caller] = Some(run_stage(&mut caller, io, target(self.caller)));
        }
        // Closing what is left of the run winds down the workers that
        // started if the caller's stage did not run. Each started worker
        // then reports once, unless its executor panicked.
        drop(ios);
        for _ in 0..started {
            let Ok((stage, outcome)) = receive(&reports) else {
                break;
            };
            outcomes[stage] = Some(outcome);
        }
        if let Some(stage) = lost.or_else(|| outcomes.iter().position(Option::is_none)) {
            return Err(RunError::Protocol {
                stage,
                message: "the stage's session worker panicked".into(),
            });
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every stage reported"))
            .collect();
        assemble(plan, iterations, outcomes)
    }
}

impl<T, E> Drop for Session<T, E> {
    fn drop(&mut self) {
        for worker in self.workers.drain(..) {
            // Closing the queue ends the worker's loop.
            drop(worker.jobs);
            // A worker that panicked already failed the run it was in.
            let _ = worker.handle.join();
        }
    }
}

/// Runs one stage to completion on the current thread.
fn run_stage<T: Send, E: Send>(
    binding: &mut Binding<'_, T, E>,
    io: StageIo<T>,
    target: u64,
) -> StageOutcome<E> {
    match binding {
        Binding::Supervised(sup) => run_supervised(sup, io, target),
        Binding::SupervisedParMap {
            workers,
            policy,
            f,
            recover,
        } => run_supervised_parmap(f, recover.as_deref(), *policy, io, target, *workers),
    }
}

/// Receives one firing's worth of input tokens, in channel order.
/// `None` when any upstream sender is gone (graceful wind-down).
fn collect_inputs<T>(io: &StageIo<T>) -> Option<Vec<T>> {
    let total: usize = io.in_rates.iter().sum();
    let mut inputs = Vec::with_capacity(total);
    for (rx, &rate) in io.inputs.iter().zip(&io.in_rates) {
        for _ in 0..rate {
            match receive(rx) {
                Ok(token) => inputs.push(token),
                Err(_) => return None,
            }
        }
    }
    Some(inputs)
}

/// Sends one firing's output tokens, in channel order. `false` when a
/// downstream receiver is gone.
fn send_outputs<T>(io: &StageIo<T>, outs: Vec<T>) -> bool {
    let mut it = outs.into_iter();
    for (tx, &rate) in io.outputs.iter().zip(&io.out_rates) {
        for _ in 0..rate {
            let Some(token) = it.next() else {
                return true; // Fire::Stop may legally under-produce.
            };
            if tx.send(token).is_err() {
                return false;
            }
        }
    }
    true
}

/// Runs one serial stage under a [`Supervision`] policy: per firing,
/// attempt → retry (within budget, retryable errors only) → escalate
/// (quarantine-rebind, granting a fresh budget for the same firing over
/// the same inputs) → abort. Quarantine may re-bind repeatedly, draining
/// the stage across a pool of replacements.
fn run_supervised<T: Send, E: Send>(
    sup: &mut Supervised<'_, T, E>,
    io: StageIo<T>,
    target: u64,
) -> StageOutcome<E> {
    let total_produce: usize = io.out_rates.iter().sum();
    let mut stats = StageSupervision::default();
    let mut firings = 0u64;
    'firing: for firing in 0..target {
        let Some(mut inputs) = collect_inputs(&io) else {
            break;
        };
        let mut attempt = 0u32;
        let mut backoff_s = 0.0f64;
        loop {
            let ctx = FiringCtx {
                firing,
                attempt,
                backoff_s,
                deadline_s: sup.policy.deadline_s,
            };
            match (sup.primary)(ctx, &mut inputs) {
                Ok((outs, fire)) => {
                    let stop = matches!(fire, Fire::Stop);
                    if outs.len() != total_produce && !(stop && outs.is_empty()) {
                        return StageOutcome {
                            firings,
                            fault: Some(Fault::Protocol(format!(
                                "executor returned {} token(s), the graph declares \
                                 {total_produce}",
                                outs.len()
                            ))),
                            supervision: stats,
                        };
                    }
                    firings += 1;
                    if !send_outputs(&io, outs) || stop {
                        break 'firing;
                    }
                    continue 'firing;
                }
                Err(error) => {
                    stats.faults += 1;
                    if attempt < sup.policy.max_retries && (sup.retryable)(&error) {
                        attempt += 1;
                        backoff_s = sup.policy.backoff_s(attempt);
                        stats.retries += 1;
                        stats.backoff_s += backoff_s;
                        stats.trace.push(FaultEvent {
                            firing,
                            attempt: attempt - 1,
                            action: FaultAction::Retried { backoff_s },
                        });
                        continue;
                    }
                    let attempts = attempt + 1;
                    let replacement = match &mut sup.escalation {
                        Escalation::Abort => None,
                        Escalation::Quarantine(rebind) => rebind(firing, attempts, &error),
                    };
                    let Some(replacement) = replacement else {
                        stats.trace.push(FaultEvent {
                            firing,
                            attempt,
                            action: FaultAction::Aborted,
                        });
                        return StageOutcome {
                            firings,
                            fault: Some(Fault::Stage {
                                error,
                                firing,
                                attempts,
                            }),
                            supervision: stats,
                        };
                    };
                    sup.primary = replacement;
                    stats.rebinds += 1;
                    stats.trace.push(FaultEvent {
                        firing,
                        attempt,
                        action: FaultAction::Rebound,
                    });
                    // Fresh budget for the replacement executor; the
                    // same firing re-runs over the inputs as the failed
                    // attempt left them.
                    attempt = 0;
                    backoff_s = 0.0;
                }
            }
        }
    }
    StageOutcome {
        firings,
        fault: None,
        supervision: stats,
    }
}

/// Per-firing supervised work item outcome, reassembled in firing
/// order by the collector.
type ParItem<T, E> = Result<Vec<T>, (E, u32)>;

/// Borrowed form of [`RecoverFn`], as consulted by the worker loop.
type RecoverRef<'a, T, E> =
    &'a (dyn Fn(u64, u32, &E, &mut [T]) -> Option<Result<Vec<T>, E>> + Send + Sync);

/// Runs one data-parallel firing to its outcome: attempts within the
/// policy's retry budget (all errors retryable), then the optional
/// recovery. Stats aggregate under `shared_stats`, which is released
/// while recovery runs: a host retrain can be slow and sibling workers
/// may fault meanwhile.
fn fire_par<T, E>(
    f: &SupervisedParFn<'_, T, E>,
    recover: Option<RecoverRef<'_, T, E>>,
    policy: Supervision,
    firing: u64,
    inputs: &mut [T],
    shared_stats: &std::sync::Mutex<StageSupervision>,
) -> ParItem<T, E> {
    let mut attempt = 0u32;
    let mut backoff_s = 0.0f64;
    loop {
        let ctx = FiringCtx {
            firing,
            attempt,
            backoff_s,
            deadline_s: policy.deadline_s,
        };
        let error = match f(ctx, inputs) {
            Ok(outs) => return Ok(outs),
            Err(error) => error,
        };
        let mut stats = shared_stats.lock().expect("stats mutex");
        stats.faults += 1;
        if attempt < policy.max_retries {
            attempt += 1;
            backoff_s = policy.backoff_s(attempt);
            stats.retries += 1;
            stats.backoff_s += backoff_s;
            stats.trace.push(FaultEvent {
                firing,
                attempt: attempt - 1,
                action: FaultAction::Retried { backoff_s },
            });
            continue;
        }
        let attempts = attempt + 1;
        drop(stats);
        let recovered = recover.and_then(|r| r(firing, attempts, &error, inputs));
        let mut stats = shared_stats.lock().expect("stats mutex");
        let (action, item) = match recovered {
            Some(Ok(outs)) => {
                stats.substitutions += 1;
                (FaultAction::Substituted, Ok(outs))
            }
            Some(Err(replacement_error)) => {
                (FaultAction::Aborted, Err((replacement_error, attempts)))
            }
            None => (FaultAction::Aborted, Err((error, attempts))),
        };
        stats.trace.push(FaultEvent {
            firing,
            attempt,
            action,
        });
        return item;
    }
}

/// Hands one firing's outcome downstream: `Ok(false)` when a receiver
/// is gone, `Err` for an executor error or a wrong token count.
fn deliver<T, E>(
    io: &StageIo<T>,
    total_produce: usize,
    firing: u64,
    item: ParItem<T, E>,
) -> Result<bool, Fault<E>> {
    match item {
        Ok(outs) if outs.len() != total_produce => Err(Fault::Protocol(format!(
            "executor returned {} token(s), the graph declares {total_produce}",
            outs.len()
        ))),
        Ok(outs) => Ok(send_outputs(io, outs)),
        Err((error, attempts)) => Err(Fault::Stage {
            error,
            firing,
            attempts,
        }),
    }
}

/// Runs a data-parallel stage under a [`Supervision`] policy. Each
/// firing retries on its worker with the policy's budget (all errors
/// retryable); once spent, the optional [`RecoverFn`] is consulted
/// per firing — parallel firings are independent work items, so
/// recovery of one never degrades its siblings (contrast the serial
/// stage's sticky [`Escalation`]). Stats from the workers aggregate
/// under a mutex and the trace is sorted to (firing, attempt) order,
/// keeping the report deterministic regardless of interleaving.
///
/// A pool of one worker is the stage's own thread: it fires in order
/// and stops at the first firing that fails unrecovered. A wider pool
/// hands firings out round-robin, and a worker stops taking jobs once
/// one of its firings has failed, since the collector stops at the
/// first error in firing order.
fn run_supervised_parmap<T: Send, E: Send>(
    f: &SupervisedParFn<'_, T, E>,
    recover: Option<RecoverRef<'_, T, E>>,
    policy: Supervision,
    io: StageIo<T>,
    target: u64,
    workers: usize,
) -> StageOutcome<E> {
    let workers = workers.max(1).min(target.max(1) as usize);
    let total_produce: usize = io.out_rates.iter().sum();
    let per_worker = (target as usize).div_ceil(workers).max(1);
    let shared_stats = std::sync::Mutex::new(StageSupervision::default());

    let mut firings = 0u64;
    let fault = if workers == 1 {
        let mut fault = None;
        for firing in 0..target {
            let Some(mut inputs) = collect_inputs(&io) else {
                break;
            };
            let item = fire_par(f, recover, policy, firing, &mut inputs, &shared_stats);
            match deliver(&io, total_produce, firing, item) {
                Ok(open) => {
                    firings += 1;
                    if !open {
                        break;
                    }
                }
                Err(stage_fault) => {
                    fault = Some(stage_fault);
                    break;
                }
            }
        }
        fault
    } else {
        thread::scope(|scope| {
            let mut job_txs = Vec::with_capacity(workers);
            let mut result_rxs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (job_tx, job_rx) = sync_channel::<(u64, Vec<T>)>(per_worker);
                let (result_tx, result_rx) = sync_channel::<ParItem<T, E>>(per_worker);
                let shared_stats = &shared_stats;
                scope.spawn(move || {
                    for (firing, mut inputs) in job_rx {
                        let item = fire_par(f, recover, policy, firing, &mut inputs, shared_stats);
                        let failed = item.is_err();
                        if result_tx.send(item).is_err() || failed {
                            break;
                        }
                    }
                });
                job_txs.push(job_tx);
                result_rxs.push(result_rx);
            }

            let mut dispatched = 0u64;
            for firing in 0..target {
                let Some(inputs) = collect_inputs(&io) else {
                    break;
                };
                if job_txs[(firing as usize) % workers]
                    .send((firing, inputs))
                    .is_err()
                {
                    break;
                }
                dispatched += 1;
            }
            drop(job_txs);

            for firing in 0..dispatched {
                let Ok(item) = result_rxs[(firing as usize) % workers].recv() else {
                    break;
                };
                match deliver(&io, total_produce, firing, item) {
                    Ok(open) => {
                        firings += 1;
                        if !open {
                            break;
                        }
                    }
                    Err(stage_fault) => return Some(stage_fault),
                }
            }
            None
        })
    };

    let mut stats = shared_stats.into_inner().expect("stats mutex");
    stats
        .trace
        .sort_by_key(|event| (event.firing, event.attempt));
    StageOutcome {
        firings,
        fault,
        supervision: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Resource, SdfGraph};
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A serial stage with no fault handling, from a bare per-firing
    /// closure.
    fn map<'env, T, E>(
        mut f: impl FnMut(u64, &mut [T]) -> Result<(Vec<T>, Fire), E> + Send + 'env,
    ) -> Binding<'env, T, E> {
        Supervised::map(
            Supervision::none(),
            move |ctx: FiringCtx, inputs: &mut [T]| f(ctx.firing, inputs),
        )
        .into_binding()
    }

    fn unit_chain(cap: usize) -> SdfGraph {
        let mut g = SdfGraph::new("chain").with_overhead_s(1e-3);
        let a = g.add_stage("produce", Resource::LINK, 2e-3);
        let b = g.add_stage("work", Resource::DEVICE, 5e-3);
        let c = g.add_stage("consume", Resource::LINK, 1e-3);
        g.add_channel(a, b, 1, 1, Some(cap));
        g.add_channel(b, c, 1, 1, Some(cap));
        g
    }

    #[test]
    fn validate_rejects_undersized_and_accepts_minimal() {
        let err = ExecutablePlan::validate(unit_chain(0)).unwrap_err();
        assert!(matches!(
            err,
            PlanError::Undersized {
                declared: 0,
                minimum: 1,
                ..
            }
        ));
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        assert_eq!(plan.repetition(), &[1, 1, 1]);
        assert_eq!(plan.capacities(), &[2, 2]);
    }

    #[test]
    fn validate_sizes_unbounded_channels_at_the_minimum() {
        let mut g = SdfGraph::new("unbounded");
        let a = g.add_stage("a", Resource::Host, 0.0);
        let b = g.add_stage("b", Resource::Host, 0.0);
        g.add_channel(a, b, 3, 2, None);
        let plan = ExecutablePlan::validate(g).unwrap();
        // 3 + 2 - gcd(3,2) = 4.
        assert_eq!(plan.capacities(), &[4]);
    }

    #[test]
    fn map_chain_runs_all_firings_in_order() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let seen = Mutex::new(Vec::new());
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|firing, _| Ok((vec![firing * 10], Fire::Continue))),
            map(|_, inputs| Ok((vec![inputs[0] + 1], Fire::Continue))),
            map(|_, inputs| {
                seen.lock().unwrap().push(inputs[0]);
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 5, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(report.firings, vec![5, 5, 5]);
        assert_eq!(*seen.lock().unwrap(), vec![1, 11, 21, 31, 41]);
        // Completed run: measured elapsed == iterations × critical path.
        let predicted = 5.0 * solve::critical_path_s(plan.graph(), plan.repetition());
        assert!((report.measured_elapsed_s(plan.graph()) - predicted).abs() < 1e-15);
    }

    #[test]
    fn parmap_preserves_firing_order() {
        let mut g = SdfGraph::new("fan");
        let src = g.add_stage("src", Resource::Host, 0.0);
        let work = g.add_stage("work", Resource::Host, 1.0);
        let sink = g.add_stage("sink", Resource::Host, 0.0);
        g.add_channel(src, work, 1, 1, Some(8));
        g.add_channel(work, sink, 1, 1, Some(8));
        let plan = ExecutablePlan::validate(g).unwrap();
        let seen = Mutex::new(Vec::new());
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Binding::SupervisedParMap {
                workers: 4,
                policy: Supervision::none(),
                f: Box::new(|_, inputs: &mut [u64]| Ok(vec![inputs[0] * 2])),
                recover: None,
            },
            map(|_, inputs| {
                seen.lock().unwrap().push(inputs[0]);
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 16, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(
            *seen.lock().unwrap(),
            (0..16).map(|i| i * 2).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn stage_error_tears_down_and_reports_lowest_stage() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            map(|firing, inputs| {
                if firing == 3 {
                    Err("device fault")
                } else {
                    Ok((vec![inputs[0]], Fire::Continue))
                }
            }),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 10, bindings).unwrap_err();
        assert_eq!(
            err,
            RunError::Stage {
                stage: 1,
                name: "work".to_string(),
                firing: 3,
                attempts: 1,
                error: "device fault"
            }
        );
        assert_eq!(
            err.to_string(),
            "stage 1 (work) failed at firing 3 after 1 attempt(s): device fault"
        );
    }

    #[test]
    fn supervised_retries_within_budget_to_success() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let attempts_seen = AtomicU64::new(0);
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Supervised::map(
                Supervision::retries(3, 1e-3, 2.0),
                |ctx: FiringCtx, inputs| {
                    if ctx.firing == 2 && ctx.attempt < 2 {
                        attempts_seen.fetch_add(1, Ordering::SeqCst);
                        Err("transient fault")
                    } else {
                        Ok((vec![inputs[0] * 10], Fire::Continue))
                    }
                },
            )
            .into_binding(),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let report = run(&plan, 5, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(report.firings, vec![5, 5, 5]);
        let sup = &report.supervision[1];
        assert_eq!(sup.faults, 2);
        assert_eq!(sup.retries, 2);
        // backoff: base·1 + base·2 = 3e-3, exactly.
        assert!((sup.backoff_s - 3e-3).abs() < 1e-15);
        assert_eq!(sup.substitutions, 0);
        assert_eq!(sup.rebinds, 0);
        assert_eq!(
            sup.trace,
            vec![
                FaultEvent {
                    firing: 2,
                    attempt: 0,
                    action: FaultAction::Retried { backoff_s: 1e-3 }
                },
                FaultEvent {
                    firing: 2,
                    attempt: 1,
                    action: FaultAction::Retried { backoff_s: 2e-3 }
                },
            ]
        );
        // Unsupervised neighbours report clean all-zero supervision.
        assert!(report.supervision[0].is_clean());
        assert!(report.supervision[2].is_clean());
    }

    #[test]
    fn supervised_budget_exhaustion_aborts_with_firing_and_attempts() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Supervised::map(Supervision::retries(2, 1e-3, 2.0), |ctx: FiringCtx, _| {
                if ctx.firing == 1 {
                    Err("dead device")
                } else {
                    Ok((vec![0], Fire::Continue))
                }
            })
            .into_binding(),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 4, bindings).unwrap_err();
        assert_eq!(
            err,
            RunError::Stage {
                stage: 1,
                name: "work".to_string(),
                firing: 1,
                attempts: 3,
                error: "dead device"
            }
        );
    }

    #[test]
    fn supervised_non_retryable_error_skips_the_budget() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Supervised::map(Supervision::retries(5, 1e-3, 2.0), |ctx: FiringCtx, _| {
                if ctx.firing == 0 {
                    Err("config error")
                } else {
                    Ok((vec![0], Fire::Continue))
                }
            })
            .retry_when(|e: &&'static str| *e != "config error")
            .into_binding(),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 2, bindings).unwrap_err();
        assert_eq!(
            err,
            RunError::Stage {
                stage: 1,
                name: "work".to_string(),
                firing: 0,
                attempts: 1,
                error: "config error"
            }
        );
    }

    #[test]
    fn supervised_quarantine_rebinds_through_a_pool_then_aborts() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        // Two healthy siblings; each replacement executor dies two
        // firings after taking over, driving repeated re-binds until
        // the pool is exhausted and the handler returns None.
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Supervised::map(Supervision::none(), |ctx: FiringCtx, _| {
                if ctx.firing >= 2 {
                    Err("device 0 down")
                } else {
                    Ok((vec![0], Fire::Continue))
                }
            })
            .or_quarantine({
                let mut siblings = 2u64;
                move |rebind_at, attempts, _e: &&'static str| {
                    assert_eq!(attempts, 1, "Supervision::none escalates on attempt 1");
                    if siblings == 0 {
                        return None;
                    }
                    siblings -= 1;
                    let die_at = rebind_at + 2;
                    Some(Box::new(move |ctx: FiringCtx, _inputs: &mut [u64]| {
                        if ctx.firing >= die_at {
                            Err("sibling down")
                        } else {
                            Ok((vec![0u64], Fire::Continue))
                        }
                    })
                        as SupervisedFn<'_, u64, &'static str>)
                }
            })
            .into_binding(),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 10, bindings).unwrap_err();
        // Device 0 dies at firing 2, sibling A at 4, sibling B at 6;
        // pool exhausted there.
        assert_eq!(
            err,
            RunError::Stage {
                stage: 1,
                name: "work".to_string(),
                firing: 6,
                attempts: 1,
                error: "sibling down"
            }
        );
    }

    #[test]
    fn supervised_quarantine_rebind_counters_appear_in_the_report() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let seen = Mutex::new(Vec::new());
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Supervised::map(Supervision::none(), |ctx: FiringCtx, inputs| {
                if ctx.firing >= 1 {
                    Err("device 0 down")
                } else {
                    Ok((vec![inputs[0] + 100], Fire::Continue))
                }
            })
            .or_quarantine(|_f, _a, _e: &&'static str| {
                Some(Box::new(|_ctx: FiringCtx, inputs: &mut [u64]| {
                    Ok((vec![inputs[0] + 100], Fire::Continue))
                }) as SupervisedFn<'_, u64, &'static str>)
            })
            .into_binding(),
            map(|_, inputs| {
                seen.lock().unwrap().push(inputs[0]);
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 4, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(*seen.lock().unwrap(), vec![100, 101, 102, 103]);
        let sup = &report.supervision[1];
        assert_eq!(sup.faults, 1);
        assert_eq!(sup.rebinds, 1);
        assert_eq!(sup.substitutions, 0);
        assert_eq!(
            sup.trace,
            vec![FaultEvent {
                firing: 1,
                attempt: 0,
                action: FaultAction::Rebound
            }]
        );
    }

    #[test]
    fn supervised_parmap_recovers_firings_independently() {
        let mut g = SdfGraph::new("fan");
        let src = g.add_stage("src", Resource::Host, 0.0);
        let work = g.add_stage("work", Resource::Host, 1.0);
        let sink = g.add_stage("sink", Resource::Host, 0.0);
        g.add_channel(src, work, 1, 1, Some(8));
        g.add_channel(work, sink, 1, 1, Some(8));
        let plan = ExecutablePlan::validate(g).unwrap();
        let seen = Mutex::new(Vec::new());
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Binding::SupervisedParMap {
                workers: 4,
                policy: Supervision::retries(1, 1e-3, 2.0),
                f: Box::new(|ctx: FiringCtx, inputs: &mut [u64]| {
                    // Firing 3 always fails; firing 5 heals on retry.
                    if ctx.firing == 3 || (ctx.firing == 5 && ctx.attempt == 0) {
                        Err("member fault")
                    } else {
                        Ok(vec![inputs[0] * 2])
                    }
                }),
                recover: Some(Box::new(|firing, attempts, _e, inputs: &mut [u64]| {
                    assert_eq!(firing, 3);
                    assert_eq!(attempts, 2);
                    // Host retrain stands in for the dead member.
                    Some(Ok(vec![inputs[0] * 2]))
                })),
            },
            map(|_, inputs| {
                seen.lock().unwrap().push(inputs[0]);
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 12, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(
            *seen.lock().unwrap(),
            (0..12).map(|i| i * 2).collect::<Vec<u64>>()
        );
        let sup = &report.supervision[1];
        // Firing 3: fault, retry-fault, recovered. Firing 5: fault,
        // retry succeeds.
        assert_eq!(sup.faults, 3);
        assert_eq!(sup.retries, 2);
        assert_eq!(sup.substitutions, 1);
        assert_eq!(
            sup.trace,
            vec![
                FaultEvent {
                    firing: 3,
                    attempt: 0,
                    action: FaultAction::Retried { backoff_s: 1e-3 }
                },
                FaultEvent {
                    firing: 3,
                    attempt: 1,
                    action: FaultAction::Substituted
                },
                FaultEvent {
                    firing: 5,
                    attempt: 0,
                    action: FaultAction::Retried { backoff_s: 1e-3 }
                },
            ]
        );
    }

    #[test]
    fn supervised_parmap_without_recovery_aborts_with_attempts() {
        let mut g = SdfGraph::new("fan");
        let src = g.add_stage("src", Resource::Host, 0.0);
        let work = g.add_stage("work", Resource::Host, 1.0);
        let sink = g.add_stage("sink", Resource::Host, 0.0);
        g.add_channel(src, work, 1, 1, Some(8));
        g.add_channel(work, sink, 1, 1, Some(8));
        let plan = ExecutablePlan::validate(g).unwrap();
        let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            Binding::SupervisedParMap {
                workers: 2,
                policy: Supervision::retries(2, 1e-3, 2.0),
                f: Box::new(|ctx: FiringCtx, inputs: &mut [u64]| {
                    if ctx.firing == 4 {
                        Err("member fault")
                    } else {
                        Ok(vec![inputs[0]])
                    }
                }),
                recover: None,
            },
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 8, bindings).unwrap_err();
        assert_eq!(
            err,
            RunError::Stage {
                stage: 1,
                name: "work".to_string(),
                firing: 4,
                attempts: 3,
                error: "member fault"
            }
        );
    }

    /// The members-graph shape: one `plan` firing fans `width` tokens
    /// out to the `work` stage, the only one with a declared cost, and
    /// `merge` gathers them.
    fn fan_graph(width: usize) -> SdfGraph {
        let mut g = SdfGraph::new("fan");
        let plan = g.add_stage("plan", Resource::Host, 0.0);
        let work = g.add_stage("work", Resource::Host, 1.0);
        let merge = g.add_stage("merge", Resource::Host, 0.0);
        g.add_channel(plan, work, width, 1, Some(width));
        g.add_channel(work, merge, 1, width, Some(width));
        g
    }

    fn fan(width: usize) -> ExecutablePlan {
        ExecutablePlan::validate(fan_graph(width)).unwrap()
    }

    #[test]
    fn workers_stop_at_their_first_unrecovered_failure() {
        // One plan firing queues every job before the first one runs;
        // firing 1 fails. One worker never starts firing 2; of two
        // workers, the one that failed never starts its later jobs.
        for (workers, never) in [(1usize, vec![2u64, 3, 4, 5]), (2, vec![3, 5])] {
            let started = Mutex::new(Vec::new());
            let bindings: Vec<Binding<'_, u64, &'static str>> = vec![
                map(|_, _| Ok((vec![0; 6], Fire::Continue))),
                Binding::SupervisedParMap {
                    workers,
                    policy: Supervision::none(),
                    f: Box::new(|ctx: FiringCtx, inputs: &mut [u64]| {
                        started.lock().unwrap().push(ctx.firing);
                        if ctx.firing == 1 {
                            Err("member fault")
                        } else {
                            Ok(vec![inputs[0]])
                        }
                    }),
                    recover: None,
                },
                map(|_, _| Ok((vec![], Fire::Continue))),
            ];
            let err = run(&fan(6), 1, bindings).unwrap_err();
            assert!(
                matches!(
                    err,
                    RunError::Stage {
                        stage: 1,
                        firing: 1,
                        ..
                    }
                ),
                "{workers} worker(s): {err:?}"
            );
            let started = started.into_inner().unwrap();
            assert!(started.contains(&1), "{workers} worker(s): {started:?}");
            assert!(
                never.iter().all(|f| !started.contains(f)),
                "{workers} worker(s): {started:?}"
            );
        }
    }

    #[test]
    fn busiest_stage_and_its_one_worker_run_on_the_calling_thread() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let note = |stage: &'static str| seen.lock().unwrap().push((stage, thread::current().id()));
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|_, _| {
                note("plan");
                Ok((vec![0; 3], Fire::Continue))
            }),
            Binding::SupervisedParMap {
                workers: 1,
                policy: Supervision::none(),
                f: Box::new(|_, inputs: &mut [u64]| {
                    note("work");
                    Ok(vec![inputs[0]])
                }),
                recover: None,
            },
            map(|_, _| {
                note("merge");
                Ok((vec![], Fire::Continue))
            }),
        ];
        run(&fan(3), 1, bindings).unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 5, "{seen:?}");
        for (stage, id) in seen {
            assert_eq!(
                id == caller,
                stage == "work",
                "{stage} ran on the wrong thread"
            );
        }
    }

    #[test]
    fn executors_own_their_input_slice_across_attempts() {
        // A token without `Clone`: a terminal stage must move it out.
        #[derive(Debug, PartialEq)]
        struct Owned(u64);
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let gathered = Mutex::new(Vec::new());
        let bindings: Vec<Binding<'_, Option<Owned>, &'static str>> = vec![
            map(|firing, _| Ok((vec![Some(Owned(firing))], Fire::Continue))),
            Supervised::map(
                Supervision::retries(1, 0.0, 1.0),
                |ctx: FiringCtx, inputs: &mut [Option<Owned>]| {
                    let token = inputs[0].as_mut().expect("a token per firing");
                    if ctx.attempt == 0 {
                        // The failed attempt edits the slice; the retry
                        // must see that edit, not a fresh copy.
                        token.0 += 100;
                        return Err("transient fault");
                    }
                    assert!(token.0 >= 100, "retry sees the failed attempt's slice");
                    Ok((vec![inputs[0].take()], Fire::Continue))
                },
            )
            .into_binding(),
            map(|_, inputs: &mut [Option<Owned>]| {
                gathered
                    .lock()
                    .unwrap()
                    .extend(inputs.iter_mut().map(Option::take));
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 3, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(report.supervision[1].retries, 3);
        assert_eq!(
            gathered.into_inner().unwrap(),
            vec![Some(Owned(100)), Some(Owned(101)), Some(Owned(102))]
        );
    }

    #[test]
    fn stop_drains_tokens_already_produced() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let delivered = AtomicU64::new(0);
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            map(|firing, inputs| {
                if firing == 4 {
                    // Simulates a circuit breaker opening mid-run.
                    Ok((vec![], Fire::Stop))
                } else {
                    Ok((vec![inputs[0]], Fire::Continue))
                }
            }),
            map(|_, _| {
                delivered.fetch_add(1, Ordering::SeqCst);
                Ok((vec![], Fire::Continue))
            }),
        ];
        let report = run(&plan, 10, bindings).unwrap();
        assert!(!report.completed);
        // Firings 0..=3 produced tokens; all four must reach the sink.
        assert_eq!(delivered.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn wrong_token_count_is_a_protocol_error() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|_, _| Ok((vec![1, 2], Fire::Continue))),
            map(|_, inputs| Ok((vec![inputs[0]], Fire::Continue))),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let err = run(&plan, 1, bindings).unwrap_err();
        assert!(matches!(err, RunError::Protocol { stage: 0, .. }));
    }

    #[test]
    fn binding_count_mismatch_is_rejected_up_front() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, Infallible>> =
            vec![map(|_, _| Ok((vec![], Fire::Continue)))];
        assert!(matches!(
            run(&plan, 1, bindings),
            Err(RunError::Protocol { .. })
        ));
    }

    /// A session over `unit_chain(2)` whose caller stage (0) sends the
    /// run's values and whose `work` and `consume` stages are resident:
    /// `work` adds 1 and fails its firings listed in `fail`, `consume`
    /// collects into `sink`. Both note the thread they ran on.
    fn chain_session(
        sink: &Arc<Mutex<Vec<u64>>>,
        fail: &Arc<Mutex<Vec<u64>>>,
        seen: &Arc<Mutex<Vec<thread::ThreadId>>>,
    ) -> Session<u64, &'static str> {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let (fail, seen_work) = (Arc::clone(fail), Arc::clone(seen));
        let work = Supervised::map(Supervision::none(), move |ctx: FiringCtx, inputs| {
            seen_work.lock().unwrap().push(thread::current().id());
            if fail.lock().unwrap().contains(&ctx.firing) {
                return Err("work fault");
            }
            Ok((vec![inputs[0] + 1], Fire::Continue))
        })
        .into_binding();
        let (sink, seen) = (Arc::clone(sink), Arc::clone(seen));
        let consume = Supervised::map(Supervision::none(), move |_, inputs: &mut [u64]| {
            seen.lock().unwrap().push(thread::current().id());
            sink.lock().unwrap().push(inputs[0]);
            Ok((vec![], Fire::Continue))
        })
        .into_binding();
        Session::new(&plan, vec![None, Some(work), Some(consume)]).unwrap()
    }

    #[test]
    fn session_runs_resident_stages_on_the_same_workers_every_run() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut session = chain_session(&sink, &Arc::new(Mutex::new(Vec::new())), &seen);
        for (iterations, base) in [(5u64, 10u64), (0, 0), (3, 100)] {
            let values: Vec<u64> = (0..iterations).map(|i| base + i).collect();
            let source = map(|firing, _| Ok((vec![values[firing as usize]], Fire::Continue)));
            let report = session.run(&plan, iterations, source).unwrap();
            assert!(report.completed);
            assert_eq!(report.firings, vec![iterations; 3]);
            let got = std::mem::take(&mut *sink.lock().unwrap());
            assert_eq!(got, values.iter().map(|v| v + 1).collect::<Vec<_>>());
        }
        let seen = seen.lock().unwrap();
        let threads: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(threads.len(), 2, "one worker per resident stage: {seen:?}");
        assert!(!threads.contains(&thread::current().id()));
    }

    #[test]
    fn session_starts_each_run_with_empty_channels() {
        // The first run's `work` fails at firing 1 while the source has
        // already buffered firings 1 and 2 in front of it; none of those
        // tokens may reach the second run.
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let fail = Arc::new(Mutex::new(vec![1]));
        let mut session = chain_session(&sink, &fail, &Arc::new(Mutex::new(Vec::new())));
        let first = session.run(&plan, 4, map(|f, _| Ok((vec![f], Fire::Continue))));
        assert!(matches!(
            first,
            Err(RunError::Stage {
                stage: 1,
                firing: 1,
                ..
            })
        ));
        assert_eq!(std::mem::take(&mut *sink.lock().unwrap()), vec![1]);
        fail.lock().unwrap().clear();
        let second = session
            .run(&plan, 3, map(|f, _| Ok((vec![100 + f], Fire::Continue))))
            .unwrap();
        assert!(second.completed);
        assert!(second.supervision.iter().all(StageSupervision::is_clean));
        assert_eq!(*sink.lock().unwrap(), vec![101, 102, 103]);
    }

    #[test]
    fn session_rejects_bindings_and_plans_that_do_not_fit() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let resident = || map(|_, _| Ok((vec![], Fire::Continue)));
        for bindings in [
            vec![None, Some(resident())],
            vec![None, None, Some(resident())],
            vec![Some(resident()), Some(resident()), Some(resident())],
        ] {
            assert!(matches!(
                Session::<u64, Infallible>::new(&plan, bindings),
                Err(RunError::Protocol { .. })
            ));
        }
        let mut session: Session<u64, Infallible> =
            Session::new(&plan, vec![None, Some(resident()), Some(resident())]).unwrap();
        let other = ExecutablePlan::validate(fan_graph(2)).unwrap();
        assert!(matches!(
            session.run(&other, 1, map(|_, _| Ok((vec![0, 0], Fire::Continue)))),
            Err(RunError::Protocol { .. })
        ));
    }

    #[test]
    fn a_session_whose_worker_panicked_fails_every_later_run() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let work = map(|firing, inputs: &mut [u64]| {
            assert!(firing < 1, "work executor panics at firing 1");
            Ok((vec![inputs[0]], Fire::Continue))
        });
        let consume = map(|_, _| Ok((vec![], Fire::Continue)));
        let mut session: Session<u64, Infallible> =
            Session::new(&plan, vec![None, Some(work), Some(consume)]).unwrap();
        for _ in 0..2 {
            let source = map(|firing, _| Ok((vec![firing], Fire::Continue)));
            assert!(matches!(
                session.run(&plan, 3, source),
                Err(RunError::Protocol { stage: 1, .. })
            ));
        }
        // Dropping the session still joins the worker that is left.
        drop(session);
    }

    #[test]
    fn zero_iterations_is_a_clean_noop() {
        let plan = ExecutablePlan::validate(unit_chain(2)).unwrap();
        let bindings: Vec<Binding<'_, u64, Infallible>> = vec![
            map(|firing, _| Ok((vec![firing], Fire::Continue))),
            map(|_, inputs| Ok((vec![inputs[0]], Fire::Continue))),
            map(|_, _| Ok((vec![], Fire::Continue))),
        ];
        let report = run(&plan, 0, bindings).unwrap();
        assert!(report.completed);
        assert_eq!(report.firings, vec![0, 0, 0]);
    }
}
