//! Synchronous-dataflow schedules: declare, solve, execute.
//!
//! This crate is the dependency-free core of the pipelined execution
//! layer. It owns four things:
//!
//! 1. [`graph`] — the SDF stage-graph IR: stages pinned to a
//!    [`Resource`], token channels with produce/consume rates and
//!    declared capacities. Every channel starts empty.
//! 2. [`solve`] — the rate mathematics behind the runtime's validator:
//!    balance-equation solve to the smallest integer repetition vector,
//!    minimal safe channel bounds, symbolic steady-state deadlock
//!    simulation, and per-resource busy time.
//! 3. [`model_check`] — the exhaustive interleaving model checker: a
//!    virtual scheduler that replays the runtime's per-token semantics
//!    over every interleaving (with partial-order reduction), proving
//!    deadlock freedom, bounded occupancy, termination, loss-free
//!    teardown under injected faults, and token balance for a concrete
//!    graph — the properties the validator only checks with whole-stage
//!    firings.
//! 4. [`runtime`] — the executor. [`ExecutablePlan::validate`] is the
//!    one verdict on whether a graph runs: every execution obeys it, and
//!    `hd-analysis` reports it as diagnostics. A validated plan binds
//!    one supervised executor per stage, in one of two shapes (a serial
//!    stage or a data-parallel map), and runs the graph on real scoped
//!    threads connected by bounded `sync_channel`s sized from the
//!    solver's minimal safe bounds. This module is the single
//!    sanctioned concurrency site in the workspace (see the
//!    `no-adhoc-concurrency` lint): every pipelined production schedule
//!    executes through [`runtime::run`] rather than hand-rolled
//!    threads.
//!
//! The crate deliberately has no dependencies (not even on the tensor
//! layer) so that every other crate — tensor GEMM, the device
//! simulator, the backends, the bagging trainer, the analyzer — can
//! execute through one shared runtime without dependency cycles.

pub mod graph;
pub mod model_check;
pub mod runtime;
pub mod solve;

pub use graph::{Channel, Resource, SdfGraph, Stage, StageId};
pub use model_check::{check_graph, CheckConfig, CheckReport, Inject, Violation};
pub use runtime::{run, Binding, ExecutablePlan, Fire, PlanError, RunError, RunReport};
