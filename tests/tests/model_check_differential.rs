//! Differential tests between the symbolic schedule analyzer and the
//! exhaustive interleaving model checker.
//!
//! The symbolic steady-state simulation
//! ([`hd_dataflow::solve::simulate_steady_state`], the validator's
//! deadlock check) fires whole stages atomically; the model checker
//! ([`hd_dataflow::model_check`]) replays the runtime's per-token
//! channel semantics over every interleaving. Over random
//! rate-consistent graphs whose declared capacities meet the minimal
//! safe bound, the two must reach the same deadlock verdict — each side
//! is the other's oracle. (Below the minimal bound the regimes genuinely
//! differ: token-granularity sends can stream through a buffer smaller
//! than one atomic firing, so the generator stays in the regime where
//! the verdicts are comparable.) Every channel starts empty, so a chain
//! closed into a cycle must deadlock under both.
//!
//! The three production schedules are additionally pinned clean under
//! exhaustive stop/error fault injection, with the exact capacities the
//! runtime's `sync_channel`s would use, and an encode→update chunk
//! stream declared zero deep must be flagged with an interleaving
//! deadlock.

use proptest::prelude::*;

use hd_dataflow::model_check::{check_graph, CheckConfig, Inject};
use hd_dataflow::runtime::ExecutablePlan;
use hd_dataflow::{solve, Resource, SdfGraph};
use hyperedge::schedule;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Fault-free single-iteration configuration matching what the symbolic
/// steady-state simulation models.
fn differential_config() -> CheckConfig {
    CheckConfig {
        iterations: 1,
        inject: Inject::None,
        ..CheckConfig::default()
    }
}

/// Builds a rate-consistent chain of `reps.len()` stages: channel `i`
/// moves `reps[i+1] * ks[i]` tokens per producer firing and
/// `reps[i] * ks[i]` per consumer firing, so `reps` is (a multiple of)
/// the repetition vector by construction. `extras[i]` declares the
/// capacity that much above the minimal safe bound (`None` leaves it
/// open). `back` optionally closes the chain into a cycle whose back
/// edge moves `back` times the balancing rates.
fn chain_graph(
    reps: &[u64],
    ks: &[usize],
    extras: &[Option<usize>],
    back: Option<usize>,
) -> SdfGraph {
    let mut g = SdfGraph::new("differential");
    let ids: Vec<_> = (0..reps.len())
        .map(|s| g.add_stage(format!("s{s}"), Resource::Host, 1.0))
        .collect();
    for i in 0..reps.len() - 1 {
        let produce = usize::try_from(reps[i + 1]).unwrap() * ks[i];
        let consume = usize::try_from(reps[i]).unwrap() * ks[i];
        let cap = extras[i].map(|e| produce + consume - gcd(produce, consume) + e);
        g.add_channel(ids[i], ids[i + 1], produce, consume, cap);
    }
    if let Some(k) = back {
        let last = reps.len() - 1;
        let produce = usize::try_from(reps[0]).unwrap() * k;
        let consume = usize::try_from(reps[last]).unwrap() * k;
        g.add_channel(ids[last], ids[0], produce, consume, None);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over random rate-consistent graphs (open chains and closed
    /// cycles, capacities at or above the minimal bound): the symbolic
    /// steady-state simulation stalls if and only if the model checker
    /// finds a wedged interleaving — and a symbolically clean graph is
    /// clean under every interleaving, with the exploration exhaustive
    /// (never truncated by a budget). Cycles stall under both.
    #[test]
    fn prop_symbolic_and_interleaving_deadlock_verdicts_agree(
        reps in proptest::collection::vec(1u64..4, 2..5),
        ks in proptest::collection::vec(1usize..3, 4..5),
        raw_extras in proptest::collection::vec(0usize..4, 4..5),
        back_k in 0usize..3,
    ) {
        // The shim has no Option strategy: 0 encodes None (unbounded
        // capacity / no back edge), n encodes Some(n - 1).
        let extras: Vec<Option<usize>> =
            raw_extras.iter().map(|&e| e.checked_sub(1)).collect();
        let back = (back_k > 0).then_some(back_k);
        let graph = chain_graph(&reps, &ks, &extras, back);
        let repetition =
            solve::repetition_vector(&graph).expect("consistent by construction");
        let symbolic_stalls = solve::simulate_steady_state(&graph, &repetition).is_err();
        let check = check_graph(&graph, &differential_config())
            .expect("consistent by construction");
        prop_assert!(!check.truncated, "exploration must be exhaustive");
        prop_assert_eq!(
            check.has_deadlock(),
            symbolic_stalls,
            "verdicts diverge on {:?}: {:?}",
            graph,
            check.violations
        );
        prop_assert_eq!(symbolic_stalls, back.is_some(), "{:?}", graph);
        if !symbolic_stalls {
            // Acyclic and symbolically clean: clean under every
            // interleaving too.
            prop_assert!(check.is_clean(), "{:?}", check.violations);
        }
    }
}

/// All three production schedules are clean under exhaustive stop/error
/// fault injection, checked with exactly the channel capacities the
/// runtime would allocate: [`check_graph`] resolves them as
/// [`ExecutablePlan::validate`] does.
/// This is the tier-1 gate backing `hyperedge verify --model-check`.
#[test]
fn production_schedules_model_check_clean_under_fault_injection() {
    for graph in schedule::production_schedules(8) {
        let name = graph.name().to_string();
        let plan = ExecutablePlan::validate(graph).expect("production graphs validate");
        let report = check_graph(plan.graph(), &CheckConfig::default()).expect("rates consistent");
        assert!(report.is_clean(), "{name}: {:?}", report.violations);
        assert!(!report.truncated, "{name}: exploration truncated");
        assert!(
            report.states > 0 && report.transitions > 0,
            "{name}: nothing explored"
        );
    }
}

/// A deliberately undersized mutant — a device-encode → host-update
/// chunk stream declared zero deep — is flagged with a
/// `Violation::Deadlock` exhibiting the wedged interleaving.
#[test]
fn undersized_stream_mutant_is_flagged_with_interleaving_deadlock() {
    let mut graph = SdfGraph::new("encode-update");
    let encode = graph.add_stage("encode", Resource::DEVICE, 3e-3);
    let update = graph.add_stage("update", Resource::Host, 1e-3);
    graph.add_channel(encode, update, 1, 1, Some(0));
    let report = check_graph(&graph, &CheckConfig::default()).expect("rates consistent");
    assert!(report.has_deadlock(), "{:?}", report.violations);
}
