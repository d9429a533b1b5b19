//! Soundness of the interval abstract interpretation (`wide_nn::absint`)
//! against the concrete int8 executor, plus the compile-time rejection of
//! fixture models that provably overflow or saturate the datapath.
//!
//! The core property: for random models and *adversarial* inputs (far
//! outside the calibration distribution — input quantization saturates,
//! so the analysis claims coverage of arbitrary inputs), every concrete
//! i32 accumulator and every quantized activation must lie inside the
//! statically inferred interval of its stage.

use proptest::prelude::*;

use hd_quant::lut::ActivationLut;
use hd_quant::per_channel::ChannelQuantizedMatrix;
use hd_quant::{gemm as qgemm, Calibrator, PackedQuantizedMatrix, QuantParams, QuantizedMatrix};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use wide_nn::{
    analyze_ranges, compile, Activation, CompiledModel, Layer, Model, ModelBuilder, NnError,
    QuantStage, QuantizedModel, Site, TargetSpec,
};

/// Runs `batch` through the executor stage by stage, asserting every
/// concrete value (inputs, accumulators, outputs) lies inside the static
/// interval of the matching [`wide_nn::StageRange`].
fn assert_sound(qmodel: &QuantizedModel, batch: &Matrix) {
    let report = analyze_ranges(qmodel);
    assert!(report.is_ok(), "analysis found errors:\n{report}");
    assert_eq!(report.stages().len(), qmodel.stages().len());

    let mut current = qmodel.quantize_input(batch).expect("quantize input");
    for &v in current.as_slice() {
        assert!(report.input().contains(i64::from(v)));
    }

    for (stage, sr) in qmodel.stages().iter().zip(report.stages()) {
        for &v in current.as_slice() {
            assert!(
                sr.input.contains(i64::from(v)),
                "stage {} input {v} outside {}",
                sr.stage_index,
                sr.input
            );
        }
        current = match stage {
            QuantStage::FullyConnected {
                weights,
                out_params,
            } => {
                let bound = sr.accumulator.expect("FC stage has accumulator bound");
                let (acc, _) = qgemm::matmul_accumulate(&current, weights).expect("accumulate");
                for &a in &acc {
                    assert!(
                        bound.contains(i64::from(a)),
                        "stage {} accumulator {a} outside {bound}",
                        sr.stage_index
                    );
                }
                qgemm::matmul_requantized(&current, weights, *out_params).expect("requantize")
            }
            QuantStage::FullyConnectedPerChannel {
                weights,
                out_params,
            } => {
                let bound = sr
                    .accumulator
                    .expect("per-channel stage has accumulator bound");
                let za = i64::from(current.params().zero_point());
                for r in 0..current.rows() {
                    for j in 0..weights.cols() {
                        let mut acc = 0i64;
                        for p in 0..weights.rows() {
                            let av = i64::from(current.row(r)[p]) - za;
                            acc += av * i64::from(weights.get(p, j));
                        }
                        assert!(
                            bound.contains(acc),
                            "stage {} accumulator {acc} outside {bound}",
                            sr.stage_index
                        );
                    }
                }
                let real = weights.matmul_dequantized(&current).expect("dequantize");
                QuantizedMatrix::quantize(&real, *out_params)
            }
            QuantStage::Lut(lut) => {
                let mut data = current.as_slice().to_vec();
                lut.apply_slice(&mut data);
                QuantizedMatrix::from_raw(current.rows(), current.cols(), data, lut.output_params())
            }
        };
        for &v in current.as_slice() {
            assert!(
                sr.output.contains(i64::from(v)),
                "stage {} output {v} outside {}",
                sr.stage_index,
                sr.output
            );
        }
    }
}

/// The two-pass definition of compilation that the compiler's single
/// observed forward pass must reproduce: every layer-boundary tensor is
/// recomputed from scratch by its own prefix model, min/max-calibrated,
/// each layer is quantized directly, and `CompiledModel::lower` plans the
/// tiles and attaches a freshly computed range report.
fn two_pass_compile(model: &Model, calibration: &Matrix, per_channel: bool) -> CompiledModel {
    let layers = model.layers();
    let params: Vec<QuantParams> = (0..=layers.len())
        .map(|i| {
            let tensor = if i == 0 {
                calibration.clone()
            } else {
                Model::new(model.input_dim(), layers[..i].to_vec())
                    .unwrap()
                    .forward(calibration)
                    .unwrap()
            };
            let mut cal = Calibrator::new();
            cal.observe(tensor.as_slice());
            cal.to_params().unwrap()
        })
        .collect();
    let stages = layers
        .iter()
        .enumerate()
        .map(|(i, layer)| match layer {
            Layer::FullyConnected { weights } if per_channel => {
                QuantStage::FullyConnectedPerChannel {
                    weights: ChannelQuantizedMatrix::quantize(weights).unwrap(),
                    out_params: params[i + 1],
                }
            }
            Layer::FullyConnected { weights } => QuantStage::FullyConnected {
                weights: PackedQuantizedMatrix::quantize(
                    weights,
                    QuantParams::symmetric(weights.max_abs()).unwrap(),
                ),
                out_params: params[i + 1],
            },
            Layer::Activation(act) => {
                let act = *act;
                QuantStage::Lut(ActivationLut::from_fn(params[i], params[i + 1], move |v| {
                    act.eval(v)
                }))
            }
            Layer::Elementwise { .. } => panic!("no element-wise layer reaches the compiler"),
        })
        .collect();
    let quantized =
        QuantizedModel::from_parts(model.input_dim(), model.output_dim(), params[0], stages)
            .unwrap();
    CompiledModel::lower(quantized, &TargetSpec::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn concrete_values_stay_inside_static_intervals(
        seed in 0u64..100_000,
        n in 1usize..10,
        d in 2usize..24,
        k in 1usize..5,
        per_channel in 0u8..2,
    ) {
        let mut rng = DetRng::new(seed);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let calibration = Matrix::random_normal(12, n, &mut rng);
        let qmodel = if per_channel == 1 {
            QuantizedModel::quantize_per_channel(&model, &calibration)
        } else {
            QuantizedModel::quantize(&model, &calibration)
        }
        .unwrap();
        // Inputs far outside the calibration distribution: input
        // quantization saturates them into int8, and the analysis starts
        // from the full int8 interval, so soundness must still hold.
        let batch = Matrix::random_uniform(6, n, -10.0, 10.0, &mut rng);
        assert_sound(&qmodel, &batch);

        // One observed forward pass and one range check give exactly the
        // two-pass definition: stages and range report.
        let target = TargetSpec::default();
        let compiled = if per_channel == 1 {
            compile::compile_per_channel(&model, &calibration, &target)
        } else {
            compile::compile(&model, &calibration, &target)
        }
        .unwrap();
        prop_assert_eq!(compiled.quantized(), &qmodel);
        prop_assert_eq!(compiled, two_pass_compile(&model, &calibration, per_channel == 1));
    }
}

/// A single wide FC layer whose worst-case accumulator provably exceeds
/// `i32`: 70000 inputs, all-positive calibration (zero point at the rail,
/// so centred inputs span [0, 255]), constant weights. Max accumulator
/// 70000 * 255 * 127 > 2^31.
fn overflowing_model() -> (Model, Matrix) {
    let features = 70_000;
    let model = ModelBuilder::new(features)
        .fully_connected(Matrix::filled(features, 1, 0.1))
        .unwrap()
        .build()
        .unwrap();
    let mut calibration = Matrix::zeros(2, features);
    calibration.row_mut(1).fill(1.0);
    (model, calibration)
}

fn assert_overflow_rejection(err: NnError) {
    match err {
        NnError::Verification { diagnostics } => {
            let overflow: Vec<_> = diagnostics
                .iter()
                .filter(|d| d.code == "range/accumulator-overflow")
                .collect();
            assert!(!overflow.is_empty(), "{diagnostics:?}");
            // The diagnostic names the offending layer.
            assert!(
                overflow
                    .iter()
                    .any(|d| matches!(&d.site, Site::Layer { index: 0, .. })),
                "{overflow:?}"
            );
        }
        other => panic!("expected a Verification error, got {other:?}"),
    }
}

#[test]
fn overflowing_fixture_rejected_at_quantization() {
    let (model, calibration) = overflowing_model();
    assert_overflow_rejection(QuantizedModel::quantize(&model, &calibration).unwrap_err());
}

#[test]
fn overflowing_fixture_rejected_by_per_channel_quantization() {
    let (model, calibration) = overflowing_model();
    assert_overflow_rejection(
        QuantizedModel::quantize_per_channel(&model, &calibration).unwrap_err(),
    );
}

#[test]
fn overflowing_fixture_rejected_by_the_compiler() {
    let (model, calibration) = overflowing_model();
    let err = compile::compile(&model, &calibration, &TargetSpec::default()).unwrap_err();
    assert_overflow_rejection(err);
}

/// A layer calibrated on near-cancelling inputs (alternating signs, so
/// the calibrated output range is tiny) whose worst-case aligned input
/// drives the accumulator far past that range: quantization succeeds but
/// the analysis must warn that the output can saturate.
fn saturating_model() -> (Model, Matrix) {
    let model = ModelBuilder::new(65)
        .fully_connected(Matrix::filled(65, 4, 0.5))
        .unwrap()
        .build()
        .unwrap();
    let calibration = Matrix::from_fn(2, 65, |r, c| if (r + c) % 2 == 0 { 1.0 } else { -1.0 });
    (model, calibration)
}

#[test]
fn saturating_fixture_warns_but_compiles() {
    let (model, calibration) = saturating_model();
    let qmodel = QuantizedModel::quantize(&model, &calibration).expect("saturation is a warning");
    let report = analyze_ranges(&qmodel);
    assert!(report.is_ok());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "range/output-saturation"),
        "{report}"
    );
    // The compiled artifact carries the same warning-only report.
    let compiled = compile::compile(&model, &calibration, &TargetSpec::default()).unwrap();
    assert!(compiled
        .range_report()
        .diagnostics()
        .iter()
        .any(|d| d.code == "range/output-saturation"));
    assert!(compiled.range_report().is_ok());
}

#[test]
fn dead_range_fixture_warns() {
    // All-zero weights: the output is provably constant, so the stage's
    // quantization range is dead.
    let model = ModelBuilder::new(8)
        .fully_connected(Matrix::zeros(8, 4))
        .unwrap()
        .build()
        .unwrap();
    let calibration = Matrix::from_fn(4, 8, |r, c| (r as f32 - 1.5) * 0.25 + c as f32 * 0.01);
    let qmodel = QuantizedModel::quantize(&model, &calibration).expect("dead range is a warning");
    let report = analyze_ranges(&qmodel);
    assert!(report.is_ok());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "range/dead-range"),
        "{report}"
    );
    let sr = &report.stages()[0];
    assert!(sr.output.is_singleton(), "{sr:?}");
}

#[test]
fn clean_model_reports_no_errors_and_runs() {
    let mut rng = DetRng::new(42);
    let model = ModelBuilder::new(8)
        .fully_connected(Matrix::random_normal(8, 32, &mut rng))
        .unwrap()
        .activation(Activation::Tanh)
        .fully_connected(Matrix::random_normal(32, 4, &mut rng))
        .unwrap()
        .build()
        .unwrap();
    let calibration = Matrix::random_normal(32, 8, &mut rng);
    let qmodel = QuantizedModel::quantize(&model, &calibration).unwrap();
    let report = analyze_ranges(&qmodel);
    // Saturation warnings are legitimate here — the analysis seeds from
    // the full int8 input range, and adversarial rail-valued inputs can
    // clip a small random model's outputs — but nothing may error.
    assert!(report.errors().next().is_none(), "{report}");
    assert_sound(&qmodel, &calibration);
}
