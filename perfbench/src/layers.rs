//! The per-layer metric set of the traced run and its aggregation.

use std::collections::BTreeMap;

use crate::common::{metric, Metric};
use crate::stats::median;
use crate::trace::{layer_coverage, self_seconds_by_name, Span};

/// Every per-layer metric, in report order, with its unit. Each workload
/// reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("hdc.encode.wall_s", "s"),
    ("hdc.encode.rows", "count"),
    ("hdc.update.wall_s", "s"),
    ("hdc.update.class_updates", "count"),
    ("hdc.predict.wall_s", "s"),
    ("tensor.simd_gemm_calls", "count"),
    ("tensor.portable_gemm_calls", "count"),
    ("tensor.packed_score_rows", "count"),
    ("nn.compile.wall_s", "s"),
    ("nn.compile.count", "count"),
    ("nn.compile.cache_hits", "count"),
    ("tpusim.invoke.wall_s", "s"),
    ("tpusim.invoke.count", "count"),
    ("tpusim.invoke.macs", "count"),
    ("tpusim.host_ns_per_mac", "ns"),
    ("tpusim.busy_sim_s", "sim_s"),
    ("tpusim.model_loads", "count"),
    ("core.encode_sim_s", "sim_s"),
    ("core.update_sim_s", "sim_s"),
    ("core.model_gen_sim_s", "sim_s"),
    ("core.infer_sim_s", "sim_s"),
    ("bagging.members.wall_s", "s"),
    ("bagging.merge.wall_s", "s"),
    ("tpusim.encode_invoke.wall_s", "s"),
    ("tpusim.score_invoke.wall_s", "s"),
    ("dataflow.sequential_ref_ms", "ms"),
    ("dataflow.overlap_ratio", "ratio"),
    ("fleet.faults", "count"),
    ("fleet.retries", "count"),
    ("fleet.rebinds", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Per-layer values of one traced operation (or one set-up), by metric
/// name.
pub type Sample = BTreeMap<&'static str, f64>;

/// Self-time metrics of the traced operation rooted at `root`, derived
/// from its spans. Counts and simulated-clock values are added by the
/// workload, which knows what each call did.
pub fn wall_sample(spans: &[Span], root: usize) -> Sample {
    let own = self_seconds_by_name(spans, root);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let mut s = Sample::new();
    s.insert("hdc.encode.wall_s", get("hdc.encode"));
    s.insert("hdc.update.wall_s", get("hdc.update"));
    s.insert("hdc.predict.wall_s", get("hdc.predict"));
    s.insert("nn.compile.wall_s", get("nn.compile"));
    s.insert(
        "tpusim.invoke.wall_s",
        get("tpusim.invoke") + get("tpusim.encode_invoke") + get("tpusim.score_invoke"),
    );
    s.insert("tpusim.encode_invoke.wall_s", get("tpusim.encode_invoke"));
    s.insert("tpusim.score_invoke.wall_s", get("tpusim.score_invoke"));
    s.insert("bagging.members.wall_s", get("bagging.members"));
    s.insert("bagging.merge.wall_s", get("bagging.merge"));
    s
}

/// Median over `samples` of each metric (a missing entry reads 0).
pub fn median_sample(samples: &[Sample]) -> Sample {
    let mut out = Sample::new();
    for &(name, _) in PER_LAYER {
        let values: Vec<f64> = samples
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(
            name,
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            },
        );
    }
    out
}

/// The per-layer metrics in [`PER_LAYER`] order. `host_ns_per_mac` is
/// derived here from the medians, as device wall time per MAC computed
/// from tensor shapes (rows x in x out).
pub fn metrics(mut s: Sample, unit_of_work: &str) -> Vec<Metric> {
    let macs = s.get("tpusim.invoke.macs").copied().unwrap_or(0.0);
    let wall = s.get("tpusim.invoke.wall_s").copied().unwrap_or(0.0);
    s.insert(
        "tpusim.host_ns_per_mac",
        if macs > 0.0 { wall * 1e9 / macs } else { 0.0 },
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let note = match name {
                "datasets.generate_s" => "median per set-up".to_string(),
                "tpusim.invoke.macs" => {
                    format!("per {unit_of_work}; rows x in x out from tensor shapes")
                }
                "trace.overhead_s" => {
                    "traced minus untraced wall time of the same call".to_string()
                }
                "trace.coverage" => "share of traced wall time inside layer spans".to_string(),
                _ => format!("per {unit_of_work}, median"),
            };
            metric(name, s.get(name).copied().unwrap_or(0.0), unit, note)
        })
        .collect()
}

/// Self seconds per layer (text before the first dot of the span name)
/// below `root`; harness spans are left out.
pub fn by_layer(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, secs) in self_seconds_by_name(spans, root) {
        if let Some((layer, _)) = name.split_once('.') {
            *out.entry(layer).or_insert(0.0) += secs;
        }
    }
    out
}

/// Median over `roots` of the self seconds of spans named `name` below
/// each root.
pub fn per_root_median(spans: &[Span], roots: &[usize], name: &str) -> f64 {
    let values: Vec<f64> = roots
        .iter()
        .map(|&r| {
            self_seconds_by_name(spans, r)
                .get(name)
                .copied()
                .unwrap_or(0.0)
        })
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// Layer-span share of the summed wall time of `roots`.
pub fn coverage(spans: &[Span], roots: &[usize]) -> f64 {
    let total: f64 = roots.iter().map(|&r| spans[r].dur_ns() as f64).sum();
    let covered: f64 = roots
        .iter()
        .map(|&r| layer_coverage(spans, r) * spans[r].dur_ns() as f64)
        .sum();
    if total > 0.0 {
        covered / total
    } else {
        1.0
    }
}

/// Human-readable wall and simulated seconds per layer for one traced
/// operation, side by side and never summed across clocks.
pub fn push_layer_table(info: &mut Vec<String>, spans: &[Span], root: usize, sample: &Sample) {
    let sim = |layer: &str| -> Option<f64> {
        let keys: &[&str] = match layer {
            "tpusim" => &["tpusim.busy_sim_s"],
            "core" => &[
                "core.encode_sim_s",
                "core.update_sim_s",
                "core.model_gen_sim_s",
                "core.infer_sim_s",
            ],
            _ => &[],
        };
        let values: Vec<f64> = keys.iter().filter_map(|k| sample.get(k).copied()).collect();
        (!values.is_empty()).then(|| values.iter().sum())
    };
    info.push(format!(
        "one traced {}: {:.4} s wall",
        spans[root].name,
        spans[root].dur_ns() as f64 * 1e-9
    ));
    info.push(format!(
        "  {:<10} {:>12} {:>14}",
        "layer", "wall_s", "sim_s"
    ));
    for (layer, wall) in by_layer(spans, root) {
        let sim = sim(layer).map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        info.push(format!("  {layer:<10} {wall:>12.6} {sim:>14}"));
    }
    info.push(
        "  (core sim_s is the BackendLedger of the untraced Pipeline run of the same work)".into(),
    );
}
