//! Static schedule verification against the dynamic timing oracle.
//!
//! The declared SDF graphs in [`hyperedge::schedule`] claim an analytic
//! critical path for each overlapped execution schedule. These tests
//! hold that claim to the measured clock: the device
//! [`TimingLedger`](tpu_sim::TimingLedger) of a pipelined run must equal
//! the analyzer's predicted elapsed time to 1e-12 over randomized
//! workloads, and the production schedules must verify cleanly while a
//! deliberately undersized channel bound is rejected with the
//! validator's computed minimum in the message.

use std::convert::Infallible;

use proptest::prelude::*;

use hd_analysis::dataflow::analyze;
use hd_bagging::members_graph;
use hd_dataflow::runtime::{
    self, Binding, ExecutablePlan, Fire, PlanError, Supervised, Supervision,
};
use hd_dataflow::{solve, Resource, SdfGraph};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hyperedge::schedule::{self, encode_score_graph, overlapped_invoke_graph};
use integration_tests::invoke_in_chunks;
use tpu_sim::timing::ModelDims;
use tpu_sim::{Device, DeviceConfig};
use wide_nn::{compile, Activation, ModelBuilder, TargetSpec};

/// A device with a compiled encoder network resident, the batch to
/// drive it with, and the dimensions the timing model sees.
fn loaded_device(
    features: usize,
    dim: usize,
    rows: usize,
    seed: u64,
) -> (Device, Matrix, ModelDims) {
    let mut rng = DetRng::new(seed);
    let network = ModelBuilder::new(features)
        .fully_connected(Matrix::random_normal(features, dim, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .build()
        .unwrap();
    let batch = Matrix::random_normal(rows, features, &mut rng);
    let compiled = compile::compile(&network, &batch, &TargetSpec::default()).unwrap();
    let dims = ModelDims::from_compiled(&compiled);
    let device = Device::new(DeviceConfig::default());
    device.load_model(compiled).unwrap();
    (device, batch, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over arbitrary (rows, chunk, seed): the static analyzer's
    /// critical-path prediction for the declared overlapped-invoke
    /// schedule equals the measured ledger elapsed time to 1e-12. The
    /// ledger is reset after the model load, so both sides cover
    /// exactly the steady-state chunk iterations.
    #[test]
    fn prop_predicted_critical_path_matches_measured_ledger(
        rows in 1usize..40,
        chunk in 1usize..16,
        seed in 0u64..500,
    ) {
        let (device, batch, dims) = loaded_device(12, 64, rows, seed);
        device.reset_ledger();
        invoke_in_chunks(&device, &batch, chunk).unwrap();
        let measured = device.ledger().total_s;

        let predicted =
            schedule::predicted_pipelined_elapsed_s(&DeviceConfig::default(), &dims, rows, chunk)
                .unwrap();
        prop_assert!(
            (measured - predicted).abs() < 1e-12,
            "measured {measured} vs predicted {predicted}"
        );
    }
}

/// One do-nothing executor per stage: each firing emits exactly the
/// token count its output channels declare. The runtime charges each
/// firing the stage's declared cost to its resource, so a run with
/// these bindings measures the schedule itself, with no workload code.
fn synthetic_bindings(graph: &SdfGraph) -> Vec<Binding<'static, (), Infallible>> {
    graph
        .stages()
        .iter()
        .enumerate()
        .map(|(s, _)| {
            let produce: usize = graph
                .channels()
                .iter()
                .filter(|c| c.from.index() == s)
                .map(|c| c.produce)
                .sum();
            Supervised::map(Supervision::none(), move |_, _| {
                Ok((vec![(); produce], Fire::Continue))
            })
            .into_binding()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over every production graph shape and an arbitrary iteration
    /// count: executing the declared graph through the generic SDF
    /// runtime with synthetic no-op executors yields a measured elapsed
    /// time equal to the analyzer's critical path per iteration, to
    /// 1e-12. The prediction and the execution come from the same
    /// declaration, so any drift is a runtime bug.
    #[test]
    fn prop_runtime_elapsed_equals_analyzer_critical_path(
        samples in 1usize..64,
        members in 1usize..9,
        iterations in 1u64..6,
    ) {
        let cfg = DeviceConfig::default();
        let encoder_dims = ModelDims::encoder(12, 64);
        let score_dims = ModelDims::encoder(64, 3);
        let graphs = [
            overlapped_invoke_graph(&cfg, &encoder_dims, samples),
            members_graph(members, 0.25),
            encode_score_graph(&cfg, &encoder_dims, &score_dims, samples),
        ];
        for graph in graphs {
            let analysis = analyze(&graph)
                .analysis
                .expect("production graphs are rate-consistent");
            let plan = ExecutablePlan::validate(graph).expect("production graphs validate");
            let bindings = synthetic_bindings(plan.graph());
            let report = runtime::run(&plan, iterations, bindings)
                .expect("synthetic executors cannot fail");
            prop_assert!(report.completed, "{}: incomplete run", plan.graph().name());
            let measured = report.measured_elapsed_s(plan.graph());
            let predicted = analysis.critical_path_s * iterations as f64;
            prop_assert!(
                (measured - predicted).abs() < 1e-12,
                "{}: measured {measured} vs predicted {predicted}",
                plan.graph().name()
            );
        }
    }
}

/// Every production schedule verifies cleanly as declared.
#[test]
fn production_schedules_are_accepted() {
    for graph in schedule::production_schedules(8) {
        let report = analyze(&graph);
        assert!(
            !report.has_errors(),
            "{}: {:?}",
            report.graph,
            report.diagnostics
        );
    }
}

/// An undersized chunk channel between a device-encode stage and a
/// host-update stage is rejected with the analyzer's computed minimal
/// safe bound in the diagnostic.
#[test]
fn undersized_stream_channel_is_rejected_with_minimum() {
    let mut graph = SdfGraph::new("encode-update");
    let encode = graph.add_stage("encode", Resource::DEVICE, 3e-3);
    let update = graph.add_stage("update", Resource::Host, 1e-3);
    graph.add_channel(encode, update, 1, 1, Some(0));
    assert_eq!(
        ExecutablePlan::validate(graph.clone()).unwrap_err(),
        PlanError::Undersized {
            channel: 0,
            declared: 0,
            minimum: 1
        }
    );
    let hit = analyze(&graph)
        .diagnostics
        .into_iter()
        .find(|d| d.code == "schedule/buffer-undersized")
        .expect("buffer-undersized diagnostic");
    assert!(
        hit.message.contains("minimal safe bound 1"),
        "{}",
        hit.message
    );
}

/// A rate-inconsistent declaration (a fan-out whose direct plan→merge
/// edge contradicts the 4-way member fan-out) is rejected.
#[test]
fn inconsistent_member_rates_are_rejected() {
    use hd_analysis::dataflow::{Resource, SdfGraph};
    let mut graph = SdfGraph::new("parallel-members-bad");
    let plan = graph.add_stage("plan", Resource::Host, 0.0);
    let member = graph.add_stage("member", Resource::Host, 1.0);
    let merge = graph.add_stage("merge", Resource::Host, 0.0);
    graph.add_channel(plan, member, 4, 1, Some(4));
    graph.add_channel(member, merge, 1, 4, Some(4));
    // The fan-out dictates one merge firing per plan firing; this edge
    // demands two.
    graph.add_channel(plan, merge, 2, 1, None);
    let report = analyze(&graph);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == "schedule/rate-inconsistent"));
}

/// The overlapped-invoke declaration stays accepted across model shapes
/// and chunk sizes (the graph is re-declared on every backend call).
#[test]
fn overlapped_invoke_accepts_all_shapes() {
    let cfg = DeviceConfig::default();
    for (features, dim) in [(4, 16), (27, 10_000), (784, 10_000)] {
        for samples in [1usize, 7, 256] {
            let dims = ModelDims::encoder(features, dim);
            let plan = ExecutablePlan::validate(overlapped_invoke_graph(&cfg, &dims, samples))
                .expect("overlapped invoke must validate");
            assert!(solve::critical_path_s(plan.graph(), plan.repetition()) > 0.0);
        }
    }
}
