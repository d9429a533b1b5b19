//! Static model-graph verification.
//!
//! The Edge TPU toolchain validates a model *before* anything touches the
//! device: unsupported ops, over-capacity parameter buffers and malformed
//! graphs are rejected at compile time, and that rejection is what drives
//! the paper's host/device work partitioning. This pass is the
//! machine-checked form of that contract: it walks a layer stack without
//! executing or quantizing anything and reports every problem it can prove
//! as a structured [`Diagnostic`] — no panics, no early exit on the first
//! finding.
//!
//! Checks performed:
//!
//! * **Shape inference** (`verify/shape-mismatch`, `verify/zero-dim`,
//!   `verify/empty-model`) — layer input widths must chain; zero-sized
//!   weight matrices are rejected.
//! * **Value/dtype inference** (`verify/non-finite-weight`) — NaN or
//!   infinite weights can never be quantized to int8.
//! * **Dead-layer detection** (`verify/dead-layer`) — identity
//!   activations, all-zero weight matrices and `lambda == 0` element-wise
//!   ops contribute nothing.
//! * **Placement validation** (`verify/op-placement`,
//!   `verify/host-only-model`, `verify/placement-boundary`) — element-wise
//!   training ops cannot run on the accelerator; a graph with no
//!   device-placeable op has nothing to accelerate; every host/device
//!   transition costs a requantization boundary.
//! * **Capacity pre-check** (`verify/over-capacity`) — estimated int8
//!   parameter bytes must fit the target's buffer; the diagnostic suggests
//!   a concrete column split for the largest layer.
//!
//! A second, *numeric* verification stage —
//! [`analyze_ranges`](crate::absint::analyze_ranges) — runs on the
//! already-quantized model: it propagates value intervals through
//! every stage (see [`crate::absint`]) and reports accumulator-overflow,
//! output-saturation and dead-range findings against the accelerator
//! datapath.

use crate::compile::TargetSpec;
use crate::diag::{Diagnostic, Severity};
use crate::layer::{Activation, Layer};
use crate::model::Model;

/// Numeric representation of a tensor flowing between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float (host arithmetic).
    F32,
    /// 8-bit signed integer (accelerator arithmetic).
    I8,
}

impl DType {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::I8 => "i8",
        }
    }
}

/// Where a layer executes in the co-designed pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Runs on the accelerator (int8 datapath).
    Device,
    /// Runs on the host CPU (f32 datapath).
    Host,
}

impl Placement {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Device => "device",
            Placement::Host => "host",
        }
    }
}

/// Inferred facts about one layer of a verified graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Zero-based index in execution order.
    pub index: usize,
    /// Stable layer name.
    pub name: &'static str,
    /// Inferred input width.
    pub input_dim: usize,
    /// Inferred output width.
    pub output_dim: usize,
    /// Numeric type the layer computes in under this placement.
    pub dtype: DType,
    /// Where the layer executes.
    pub placement: Placement,
    /// Estimated int8 parameter bytes the layer occupies on the device.
    pub param_bytes: usize,
}

/// The outcome of a verification pass: every finding plus the inferred
/// per-layer plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
    layers: Vec<LayerPlan>,
    param_bytes_required: usize,
}

impl VerifyReport {
    /// All findings, in graph order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the graph passed (no errors; warnings and notes allowed).
    pub fn is_ok(&self) -> bool {
        !self.has_errors()
    }

    /// The inferred per-layer plan (empty if shape inference failed).
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// Estimated device parameter bytes for the whole graph.
    pub fn param_bytes_required(&self) -> usize {
        self.param_bytes_required
    }

    fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Verifies a validated [`Model`] against a target.
///
/// Equivalent to [`verify_graph`] over the model's layers.
pub fn verify_model(model: &Model, target: &TargetSpec) -> VerifyReport {
    verify_graph(model.input_dim(), model.layers(), target)
}

/// Verifies a raw layer stack against a target, without requiring the
/// stack to already form a valid [`Model`].
///
/// Never panics: every problem becomes a [`Diagnostic`] in the returned
/// report. Shape inference continues past a mismatch (assuming the layer's
/// own output width) so one pass reports every issue.
pub fn verify_graph(input_dim: usize, layers: &[Layer], target: &TargetSpec) -> VerifyReport {
    let mut report = VerifyReport::default();

    if layers.is_empty() {
        report.push(
            Diagnostic::error("verify/empty-model", "model contains no layers")
                .with_help("add at least one layer before compiling"),
        );
        return report;
    }
    if input_dim == 0 {
        report.push(Diagnostic::error(
            "verify/zero-dim",
            "model input width is zero",
        ));
    }

    let mut dim = input_dim;
    let mut device_layers = 0usize;
    let mut prev_placement: Option<Placement> = None;
    for (index, layer) in layers.iter().enumerate() {
        let name = layer.name();

        // Shape inference. On mismatch, report and re-anchor on the
        // layer's own output width so downstream layers still get checked.
        let in_dim = dim;
        let out_dim = match layer {
            Layer::FullyConnected { weights } => {
                if weights.rows() == 0 || weights.cols() == 0 {
                    report.push(
                        Diagnostic::error(
                            "verify/zero-dim",
                            format!(
                                "weight matrix has zero dimension ({}x{})",
                                weights.rows(),
                                weights.cols()
                            ),
                        )
                        .at_layer(index, name),
                    );
                }
                if weights.rows() != dim {
                    report.push(
                        Diagnostic::error(
                            "verify/shape-mismatch",
                            format!(
                                "layer expects {} input features but receives {}",
                                weights.rows(),
                                dim
                            ),
                        )
                        .at_layer(index, name)
                        .with_help(format!(
                            "previous layer produces width {dim}; this weight matrix needs \
                             {} rows",
                            dim
                        )),
                    );
                }
                weights.cols()
            }
            Layer::Activation(_) | Layer::Elementwise { .. } => dim,
        };

        // Value inference: non-finite weights can never quantize.
        if let Layer::FullyConnected { weights } = layer {
            let bad = weights.iter().filter(|v| !v.is_finite()).count();
            if bad > 0 {
                report.push(
                    Diagnostic::error(
                        "verify/non-finite-weight",
                        format!("{bad} weight value(s) are NaN or infinite"),
                    )
                    .at_layer(index, name)
                    .with_help("non-finite weights cannot be quantized to int8"),
                );
            }
        }

        // Dead-layer detection.
        match layer {
            Layer::Activation(Activation::Identity) => {
                report.push(
                    Diagnostic::warning("verify/dead-layer", "identity activation has no effect")
                        .at_layer(index, name)
                        .with_help("remove the layer, or keep it only as a requantization point"),
                );
            }
            Layer::FullyConnected { weights }
                if !weights.is_empty() && weights.iter().all(|&v| v == 0.0) =>
            {
                report.push(
                    Diagnostic::warning(
                        "verify/dead-layer",
                        "weight matrix is entirely zero; the layer kills the signal",
                    )
                    .at_layer(index, name),
                );
            }
            Layer::Elementwise { lambda, .. } if *lambda == 0.0 => {
                report.push(
                    Diagnostic::warning(
                        "verify/dead-layer",
                        "element-wise op with lambda = 0 has no effect",
                    )
                    .at_layer(index, name),
                );
            }
            _ => {}
        }

        // Placement and dtype inference. FC and activation layers lower to
        // the int8 device datapath; element-wise training ops must stay on
        // the host in f32 — the paper's partitioning rule.
        let placement = match layer {
            Layer::FullyConnected { .. } | Layer::Activation(_) => Placement::Device,
            Layer::Elementwise { op, .. } => {
                report.push(
                    Diagnostic::error(
                        "verify/op-placement",
                        format!(
                            "operation {} is not executable on target {}",
                            op.name(),
                            target.name
                        ),
                    )
                    .at_layer(index, name)
                    .with_help(
                        "schedule this stage on the host CPU; the accelerator lacks \
                         element-wise support",
                    ),
                );
                Placement::Host
            }
        };
        if placement == Placement::Device {
            device_layers += 1;
        }
        if let Some(prev) = prev_placement {
            if prev != placement {
                report.push(
                    Diagnostic::note(
                        "verify/placement-boundary",
                        format!(
                            "host/device boundary between layers {} and {index}: output must \
                             be {} here",
                            index - 1,
                            if placement == Placement::Device {
                                "quantized"
                            } else {
                                "dequantized"
                            },
                        ),
                    )
                    .at_layer(index, name),
                );
            }
        }
        prev_placement = Some(placement);

        let param_bytes = layer.quantized_param_bytes();
        report.layers.push(LayerPlan {
            index,
            name,
            input_dim: in_dim,
            output_dim: out_dim,
            dtype: match placement {
                Placement::Device => DType::I8,
                Placement::Host => DType::F32,
            },
            placement,
            param_bytes,
        });
        dim = out_dim;
    }

    if device_layers == 0 {
        report.push(
            Diagnostic::error(
                "verify/host-only-model",
                "no layer is executable on the accelerator; there is nothing to lower",
            )
            .with_help("run this graph directly on the host CPU instead of compiling it"),
        );
    }

    // Parameter-buffer capacity pre-check with a suggested tile split.
    let required: usize = report.layers.iter().map(|l| l.param_bytes).sum();
    report.param_bytes_required = required;
    if required > target.param_buffer_bytes {
        let mut diag = Diagnostic::error(
            "verify/over-capacity",
            format!(
                "estimated parameters need {required} bytes, target buffer holds {}",
                target.param_buffer_bytes
            ),
        );
        if let Some(largest) = report
            .layers
            .iter()
            .filter(|l| l.name == "fully-connected")
            .max_by_key(|l| l.param_bytes)
        {
            diag = diag.at_layer(largest.index, largest.name);
            let overflow = required - target.param_buffer_bytes;
            let others = required - largest.param_bytes;
            if others < target.param_buffer_bytes && largest.output_dim > 1 {
                // Smallest column-shard count for the largest layer such
                // that one shard plus everything else fits the buffer.
                let budget = target.param_buffer_bytes - others;
                let splits = largest.param_bytes.div_ceil(budget).max(2);
                let cols_per_split = largest.output_dim.div_ceil(splits);
                diag = diag.with_help(format!(
                    "split layer {}'s {} output columns into {} shards of <= {} columns \
                     (~{} bytes each) and compile the shards separately",
                    largest.index,
                    largest.output_dim,
                    splits,
                    cols_per_split,
                    largest.param_bytes.div_ceil(splits),
                ));
            } else {
                diag = diag.with_help(format!(
                    "the graph exceeds the buffer by {overflow} bytes even before the \
                     largest layer; reduce model width or use a larger target"
                ));
            }
        }
        report.push(diag);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::layer::ElementwiseOp;
    use hd_tensor::rng::DetRng;
    use hd_tensor::Matrix;

    fn target(bytes: usize) -> TargetSpec {
        TargetSpec::new("test-target", 64, 64, bytes)
    }

    fn fc(rows: usize, cols: usize, seed: u64) -> Layer {
        let mut rng = DetRng::new(seed);
        Layer::FullyConnected {
            weights: Matrix::random_normal(rows, cols, &mut rng),
        }
    }

    #[test]
    fn clean_graph_verifies_ok() {
        let layers = vec![
            fc(8, 32, 1),
            Layer::Activation(Activation::Tanh),
            fc(32, 4, 2),
        ];
        let report = verify_graph(8, &layers, &target(1 << 20));
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.layers().len(), 3);
        assert_eq!(report.layers()[0].output_dim, 32);
        assert_eq!(report.layers()[2].output_dim, 4);
        assert_eq!(report.param_bytes_required(), 8 * 32 + 256 + 32 * 4);
    }

    #[test]
    fn empty_graph_rejected() {
        let report = verify_graph(8, &[], &target(1024));
        assert!(report.has_errors());
        assert_eq!(report.errors().next().unwrap().code, "verify/empty-model");
    }

    #[test]
    fn shape_mismatch_reported_and_inference_continues() {
        // 8 -> (9x16)! -> (16x4): first FC mismatches, second chains off
        // the re-anchored width and must NOT re-report.
        let layers = vec![fc(9, 16, 3), fc(16, 4, 4)];
        let report = verify_graph(8, &layers, &target(1 << 20));
        let codes: Vec<_> = report.errors().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["verify/shape-mismatch"]);
        assert_eq!(report.layers().len(), 2);
    }

    #[test]
    fn non_finite_weights_rejected() {
        let mut w = Matrix::zeros(2, 2);
        w[(0, 0)] = f32::NAN;
        w[(1, 1)] = 1.0;
        let layers = vec![Layer::FullyConnected { weights: w }];
        let report = verify_graph(2, &layers, &target(1 << 20));
        assert!(report
            .errors()
            .any(|d| d.code == "verify/non-finite-weight" && d.message.contains('1')));
    }

    #[test]
    fn dead_layers_warned_not_errored() {
        let layers = vec![
            fc(4, 4, 5),
            Layer::Activation(Activation::Identity),
            Layer::FullyConnected {
                weights: Matrix::zeros(4, 4),
            },
        ];
        let report = verify_graph(4, &layers, &target(1 << 20));
        assert!(report.is_ok(), "{report}");
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "verify/dead-layer")
            .collect();
        assert_eq!(dead.len(), 2);
        assert!(dead.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn elementwise_op_gets_placement_error_and_host_plan() {
        let layers = vec![
            fc(4, 8, 6),
            Layer::Elementwise {
                op: ElementwiseOp::ScaledAdd,
                lambda: 0.5,
            },
        ];
        let report = verify_graph(4, &layers, &target(1 << 20));
        assert!(report.errors().any(|d| d.code == "verify/op-placement"));
        assert_eq!(report.layers()[1].placement, Placement::Host);
        assert_eq!(report.layers()[1].dtype, DType::F32);
        // The device->host transition is noted.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == "verify/placement-boundary"));
    }

    #[test]
    fn host_only_model_rejected() {
        let layers = vec![Layer::Elementwise {
            op: ElementwiseOp::ScaledSub,
            lambda: 0.1,
        }];
        let report = verify_graph(4, &layers, &target(1 << 20));
        assert!(report.errors().any(|d| d.code == "verify/host-only-model"));
    }

    #[test]
    fn over_capacity_rejected_with_split_suggestion() {
        // 64x1024 int8 weights = 65536 bytes against a 40 KiB buffer.
        let layers = vec![fc(64, 1024, 7)];
        let report = verify_graph(64, &layers, &target(40 * 1024));
        let diag = report
            .errors()
            .find(|d| d.code == "verify/over-capacity")
            .expect("over-capacity diagnostic");
        let help = diag.help.as_deref().expect("split suggestion");
        assert!(help.contains("shards"), "{help}");
        // 65536 bytes over a 40960-byte budget -> 2 shards of 512 columns.
        assert!(help.contains("2 shards"), "{help}");
        assert!(help.contains("512"), "{help}");
    }

    #[test]
    fn verify_model_delegates() {
        let mut rng = DetRng::new(8);
        let model = ModelBuilder::new(8)
            .fully_connected(Matrix::random_normal(8, 16, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .build()
            .unwrap();
        let report = verify_model(&model, &target(1 << 20));
        assert!(report.is_ok());
        assert_eq!(report.layers().len(), 2);
    }

    #[test]
    fn zero_input_dim_rejected() {
        let layers = vec![Layer::Activation(Activation::Tanh)];
        let report = verify_graph(0, &layers, &target(1024));
        assert!(report.errors().any(|d| d.code == "verify/zero-dim"));
    }

    #[test]
    fn report_display_lists_every_diagnostic() {
        let layers = vec![Layer::Elementwise {
            op: ElementwiseOp::ScaledAdd,
            lambda: 0.0,
        }];
        let report = verify_graph(4, &layers, &target(1024));
        let text = report.to_string();
        assert!(text.contains("verify/op-placement"));
        assert!(text.contains("verify/dead-layer"));
        assert!(text.contains("verify/host-only-model"));
    }
}
