//! Declared SDF schedules for the framework's overlapped execution
//! paths, verified before any thread spawns.
//!
//! Every place this crate overlaps work — the double-buffered device
//! invoke ([`TpuBackend`](crate::backend::TpuBackend)), bagged-member
//! training (`hd_bagging::train_members_parallel`), and two-device
//! serving — is described here as an explicit [`SdfGraph`]: stages with
//! token rates, resource pins, and per-firing costs taken from the
//! [`tpu_sim::timing`] model. Each call site checks its declaration once,
//! with [`ExecutablePlan::validate`] (rates balance, capacities meet the
//! minimal safe bound, steady state cannot deadlock); a rejection
//! surfaces as [`FrameworkError::InvalidConfig`] before the runtime is
//! allowed to execute anything, and the plan it returns is what the
//! runtime runs. `hyperedge verify --schedule` reports the same
//! validator's verdict on [`production_schedules`] through the
//! `hd-analysis` analyzer, which calls it rather than re-deriving it.
//!
//! Critical paths and busy times come from [`solve`] over the plan's
//! repetition vector — the functions the analyzer reports from — and
//! are not just documentation: for the overlapped-invoke schedule,
//! [`predicted_pipelined_elapsed_s`] must match the device
//! [`TimingLedger`](tpu_sim::TimingLedger)'s measured elapsed time to
//! 1e-12 (a property test pins this), making the dynamic ledger the
//! oracle for the static model.

use cpu_model::{cost, Platform};
use hd_dataflow::runtime::ExecutablePlan;
use hd_dataflow::{solve, Resource, SdfGraph};
use tpu_sim::timing::{self, ModelDims};
use tpu_sim::DeviceConfig;

use crate::FrameworkError;

/// Double-buffer slot count of the overlapped device invoke: one chunk
/// in flight on the link while the previous one computes.
pub const INVOKE_BUFFERS: usize = 2;

/// The double-buffered device-invoke schedule
/// (`Device::invoke_overlapped`): input DMA and output DMA occupy the
/// link while the MXU computes the previous chunk, so one steady-state
/// chunk costs `overhead + max(transfer, compute)`.
#[must_use]
pub fn overlapped_invoke_graph(cfg: &DeviceConfig, dims: &ModelDims, samples: usize) -> SdfGraph {
    let costs = timing::stage_costs(cfg, dims, samples);
    let mut g = SdfGraph::new("overlapped-invoke").with_overhead_s(costs.overhead_s);
    let dma_in = g.add_stage("dma_in", Resource::LINK, costs.input_transfer_s);
    let compute = g.add_stage("compute", Resource::DEVICE, costs.compute_s);
    let dma_out = g.add_stage("dma_out", Resource::LINK, costs.output_transfer_s);
    g.add_channel(dma_in, compute, 1, 1, Some(INVOKE_BUFFERS));
    g.add_channel(compute, dma_out, 1, 1, Some(INVOKE_BUFFERS));
    g
}

/// The two-device serving schedule: encoding runs on the first
/// accelerator ([`Resource::DEVICE`], ordinal 0) while scoring runs on a
/// second one (`Resource::Device(1)`), chunks flowing between them
/// through a double-buffered channel. Each stage's cost is the full
/// pipelined invoke estimate of its half-network, so the analytic
/// critical path per chunk is `max(encode invoke, score invoke)` — the
/// two devices overlap completely in steady state.
///
/// This schedule has no hand-written implementation at all: the serving
/// module executes it purely by binding the two [`tpu_sim::Device`]
/// handles to its stages and handing the verified plan to the generic
/// SDF runtime.
#[must_use]
pub fn encode_score_graph(
    cfg: &DeviceConfig,
    encoder_dims: &ModelDims,
    score_dims: &ModelDims,
    samples: usize,
) -> SdfGraph {
    let encode_cost_s = timing::stage_costs(cfg, encoder_dims, samples).total_s;
    let score_cost_s = timing::stage_costs(cfg, score_dims, samples).total_s;
    let mut g = SdfGraph::new("two-device-serve");
    let encode = g.add_stage("encode", Resource::DEVICE, encode_cost_s);
    let score = g.add_stage("score", Resource::Device(1), score_cost_s);
    g.add_channel(encode, score, 1, 1, Some(INVOKE_BUFFERS));
    g
}

/// Predicted elapsed seconds for serving `total_samples` rows through
/// the declared two-device encode→score schedule in chunks of `batch`
/// rows (the last chunk may be partial): per-resource busy seconds
/// accumulate across the full-chunk and remainder segments, and the
/// prediction is the maximum over resources — the busier device is the
/// pipeline's bottleneck, even if the bottleneck flips on the partial
/// tail. The two device [`TimingLedger`](tpu_sim::TimingLedger)s must
/// reproduce this exactly, because each stage invokes with the same
/// `overhead + max(transfer, compute)` model the solver charges.
///
/// # Errors
///
/// [`FrameworkError::InvalidConfig`] when `batch == 0`, or if the
/// declared graph fails validation (it cannot, by construction).
pub fn predicted_serve_elapsed_s(
    cfg: &DeviceConfig,
    encoder_dims: &ModelDims,
    score_dims: &ModelDims,
    total_samples: usize,
    batch: usize,
) -> crate::Result<f64> {
    if batch == 0 {
        return Err(FrameworkError::InvalidConfig(
            "batch must be positive".into(),
        ));
    }
    let mut busy: Vec<(Resource, f64)> = Vec::new();
    for (samples, count) in timing::chunks(total_samples, batch) {
        let plan =
            ExecutablePlan::validate(encode_score_graph(cfg, encoder_dims, score_dims, samples))?;
        let iterations = count as f64;
        for (resource, seconds) in solve::resource_busy_s(plan.graph(), plan.repetition()) {
            match busy.iter_mut().find(|(r, _)| *r == resource) {
                Some((_, total)) => *total += iterations * seconds,
                None => busy.push((resource, iterations * seconds)),
            }
        }
    }
    Ok(busy.iter().fold(0.0, |acc, &(_, s)| acc.max(s)))
}

/// Predicted elapsed seconds for streaming `total_samples` rows through
/// the declared overlapped-invoke schedule in chunks of `batch` rows
/// (the last chunk may be partial): the sum of each chunk's analytic
/// critical path. This is the static lower bound the device
/// [`TimingLedger`](tpu_sim::TimingLedger) must reproduce exactly,
/// because `Device::invoke_overlapped` charges precisely the
/// `overhead + max(transfer, compute)` model the solver derives.
///
/// # Errors
///
/// [`FrameworkError::InvalidConfig`] when `batch == 0`, or if the
/// declared graph fails validation (it cannot, by construction).
pub fn predicted_pipelined_elapsed_s(
    cfg: &DeviceConfig,
    dims: &ModelDims,
    total_samples: usize,
    batch: usize,
) -> crate::Result<f64> {
    if batch == 0 {
        return Err(FrameworkError::InvalidConfig(
            "batch must be positive".into(),
        ));
    }
    let mut elapsed = 0.0;
    for (samples, count) in timing::chunks(total_samples, batch) {
        let plan = ExecutablePlan::validate(overlapped_invoke_graph(cfg, dims, samples))?;
        elapsed += count as f64 * solve::critical_path_s(plan.graph(), plan.repetition());
    }
    Ok(elapsed)
}

/// The three production schedules at paper-scale defaults (MNIST-like
/// 784→10000 encoder, 256-row chunks, the default device): the
/// overlapped device invoke, the bagged-member fan-out (`members`
/// parameterizes it), and the two-device serving graph, which scores 10
/// classes off the 10 000-dimensional encoding. This is every declared
/// graph the framework can hand to the SDF runtime, and the set
/// `hyperedge verify --schedule` and `--model-check` check.
#[must_use]
pub fn production_schedules(members: usize) -> Vec<SdfGraph> {
    let cfg = DeviceConfig::default();
    let dims = ModelDims::encoder(784, 10_000);
    let score_dims = ModelDims::encoder(10_000, 10);
    let chunk = 256;
    let member_cost_s = cost::encode_s(&Platform::MobileI5.spec(), chunk, 784, 10_000);
    vec![
        overlapped_invoke_graph(&cfg, &dims, chunk),
        hd_bagging::members_graph(members, member_cost_s),
        encode_score_graph(&cfg, &dims, &score_dims, chunk),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-stage device-encode → host-update graph whose one chunk
    /// channel is `depth` deep.
    fn encode_update_graph(depth: usize) -> SdfGraph {
        let mut g = SdfGraph::new("encode-update");
        let encode = g.add_stage("encode", Resource::DEVICE, 3e-3);
        let update = g.add_stage("update", Resource::Host, 1e-3);
        g.add_channel(encode, update, 1, 1, Some(depth));
        g
    }

    fn critical_path_s(plan: &ExecutablePlan) -> f64 {
        solve::critical_path_s(plan.graph(), plan.repetition())
    }

    #[test]
    fn all_three_production_schedules_are_accepted() {
        for graph in production_schedules(8) {
            let name = graph.name().to_string();
            let plan = ExecutablePlan::validate(graph)
                .unwrap_or_else(|e| panic!("schedule `{name}` rejected: {e}"));
            assert!(critical_path_s(&plan) > 0.0, "{name}");
        }
    }

    #[test]
    fn zero_stream_depth_is_rejected_naming_the_minimum() {
        let err: FrameworkError = ExecutablePlan::validate(encode_update_graph(0))
            .unwrap_err()
            .into();
        let FrameworkError::InvalidConfig(message) = err else {
            panic!("expected InvalidConfig");
        };
        assert!(
            message.contains("declared schedule rejected by the runtime"),
            "{message}"
        );
        assert!(message.contains("minimal safe bound 1"), "{message}");
    }

    #[test]
    fn overlapped_invoke_critical_path_matches_pipelined_estimate() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 512);
        for samples in [1usize, 7, 32] {
            let plan =
                ExecutablePlan::validate(overlapped_invoke_graph(&cfg, &dims, samples)).unwrap();
            let expected = timing::stage_costs(&cfg, &dims, samples).total_s;
            let got = critical_path_s(&plan);
            assert!((got - expected).abs() < 1e-15, "{got} vs {expected}");
        }
    }

    #[test]
    fn predicted_elapsed_matches_batched_formula() {
        let cfg = DeviceConfig::default();
        let dims = ModelDims::encoder(64, 512);
        let got = predicted_pipelined_elapsed_s(&cfg, &dims, 70, 32).unwrap();
        let expected = timing::chunked_s(70, 32, |rows| {
            timing::stage_costs(&cfg, &dims, rows).total_s
        });
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
        assert!(predicted_pipelined_elapsed_s(&cfg, &dims, 70, 0).is_err());
    }

    #[test]
    fn parallel_members_repetition_reflects_fanout() {
        let plan = ExecutablePlan::validate(hd_bagging::members_graph(4, 1.0)).unwrap();
        assert_eq!(plan.repetition(), &[1, 4, 1]);
        assert_eq!(plan.capacities(), &[4, 4]);
    }

    #[test]
    fn production_schedules_adds_the_serving_graph() {
        let graphs = production_schedules(8);
        assert_eq!(graphs.len(), 3);
        assert_eq!(graphs[2].name(), "two-device-serve");
        for graph in graphs {
            let name = graph.name().to_string();
            ExecutablePlan::validate(graph)
                .unwrap_or_else(|e| panic!("schedule `{name}` rejected: {e}"));
        }
    }
}
