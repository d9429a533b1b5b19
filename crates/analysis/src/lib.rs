//! Workspace lint engine for the HyperEdge repository.
//!
//! `hd-analysis` is the static-analysis half of the tier-1 quality gate.
//! It scans every first-party crate (a masked token view of the source —
//! see [`lexer`]), applies the rules in [`rules`], filters findings
//! through the root `lint.toml` allowlist ([`allowlist`]) and reports
//! [`Diagnostic`] values shared with the `wide-nn` model-graph verifier.
//! The `hd-lint` binary drives it from the command line:
//!
//! ```text
//! cargo run -p hd-analysis --bin hd-lint -- --format json
//! ```
//!
//! Rules (see [`rules`] for definitions):
//!
//! * `no-panic-in-hot-path` (error) — no unwrap/expect/panic!/indexing in
//!   the latency-critical kernels.
//! * `no-float-eq` (error) — no exact `==`/`!=` against float literals
//!   outside tests.
//! * `no-unchecked-narrowing` (error) — no bare `as i8`/`as u8`/`as i32`
//!   casts in hot-path kernels without a saturating/checked wrapper.
//! * `fallible-returns-result` (warning) — panicking pub fns must return
//!   `Result` or document `# Panics`.
//! * `missing-must-use` (warning) — `pub fn … -> Self` builders need
//!   `#[must_use]`.
//! * `no-unseeded-rng` (error) — every random stream must flow from an
//!   explicit seed.
//! * `no-adhoc-concurrency` (error) — no bare `thread::spawn`/
//!   `thread::scope` or unbounded `mpsc::channel()` outside the declared
//!   schedule layer.
//!
//! The [`absint`] module describes the `range/*` findings of
//! `wide_nn::absint` and hosts the narrowing rule;
//! [`dataflow`] holds the SDF stage-graph IR and the static schedule
//! analyzer behind `hyperedge verify --schedule`; [`sarif`] renders
//! reports for GitHub code scanning with rule metadata for every
//! registered rule (`lint/*`, `range/*`, and `schedule/*`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod allowlist;
pub mod dataflow;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod sarif;

pub use allowlist::{AllowEntry, Allowlist, AllowlistError};
pub use engine::{discover_files, find_workspace_root, lint_text, lint_workspace, LintReport};
pub use rules::{RuleInfo, RULES, RULE_NAMES};
pub use wide_nn::diag::{Diagnostic, Severity, Site};
