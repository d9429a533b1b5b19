//! Abstract-interpretation support for the lint engine.
//!
//! The interval analysis itself — the lattice, the per-layer transfer
//! functions and the [`wide_nn::RangeReport`] it produces — lives in
//! [`wide_nn::absint`], next to the quantized executor whose semantics
//! it overapproximates (`hd-analysis` depends on `wide-nn`, so the
//! value-range machinery cannot live here without a crate cycle). This
//! module describes its findings for SARIF ([`RANGE_RULES`]) and hosts
//! the lexical companion rule `no-unchecked-narrowing` (in
//! `narrowing.rs`): the range verifier proves the *model* cannot
//! overflow, the narrowing rule proves the *kernels* do not silently wrap
//! when they shrink an accumulator anyway.

pub(crate) mod narrowing;

use crate::rules::RuleInfo;
use wide_nn::diag::Severity;

/// Metadata for every `range/*` diagnostic the interval analysis can
/// emit (see [`wide_nn::absint`]), mirroring
/// [`RULES`](crate::rules::RULES) so SARIF output can describe range
/// findings with the same fidelity as lint findings. Names are bare;
/// diagnostics carry the code `range/<name>`.
pub const RANGE_RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "accumulator-overflow",
        severity: Severity::Error,
        description: "a stage's worst-case accumulator range exceeds the int8 datapath's \
                      accumulator width",
    },
    RuleInfo {
        name: "output-saturation",
        severity: Severity::Warning,
        description: "too many output columns can saturate int8 requantization under the \
                      calibrated ranges",
    },
    RuleInfo {
        name: "dead-range",
        severity: Severity::Warning,
        description: "a stage's output is provably constant over the whole input range; its \
                      quantization range is dead",
    },
];
