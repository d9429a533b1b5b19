//! Property-based tests over the cross-crate invariants the reproduction
//! rests on: quantization error bounds, integer-GEMM exactness, the
//! bagging merge identity, and encoder geometry.

use proptest::prelude::*;

use hd_quant::{gemm as qgemm, PackedQuantizedMatrix, QuantParams, QuantizedMatrix};
use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, ops, Matrix};
use hdc::{BaseHypervectors, ClassHypervectors, Encoder, HdcModel, NonlinearEncoder};

fn finite_range() -> impl Strategy<Value = (f32, f32)> {
    (-100.0f32..100.0, 0.01f32..100.0).prop_map(|(lo, span)| (lo, lo + span))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantize_roundtrip_error_bounded_by_half_scale(
        (lo, hi) in finite_range(),
        value in -150.0f32..150.0,
    ) {
        let params = QuantParams::from_min_max(lo, hi).unwrap();
        let clamped = value.clamp(params.real_min(), params.real_max());
        let roundtrip = params.dequantize(params.quantize(clamped));
        prop_assert!(
            (roundtrip - clamped).abs() <= params.scale() / 2.0 + 1e-5,
            "value {clamped}, roundtrip {roundtrip}, scale {}",
            params.scale()
        );
    }

    #[test]
    fn quantization_is_monotonic((lo, hi) in finite_range(), a in -150.0f32..150.0, b in -150.0f32..150.0) {
        let params = QuantParams::from_min_max(lo, hi).unwrap();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(params.quantize(small) <= params.quantize(large));
    }

    #[test]
    fn real_zero_is_always_exact((lo, hi) in finite_range()) {
        let params = QuantParams::from_min_max(lo, hi).unwrap();
        prop_assert_eq!(params.dequantize(params.quantize(0.0)), 0.0);
    }

    #[test]
    fn int_gemm_accumulator_is_exact(seed in 0u64..1000, m in 1usize..6, k in 1usize..24, n in 1usize..6) {
        // The i32 accumulator path must equal a wide integer reference —
        // integer arithmetic has no rounding to hide behind.
        let mut rng = DetRng::new(seed);
        let a = QuantizedMatrix::quantize(
            &Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng),
            QuantParams::from_min_max(-1.0, 1.0).unwrap(),
        );
        let b = QuantizedMatrix::quantize(
            &Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng),
            QuantParams::symmetric(1.0).unwrap(),
        );
        let packed = PackedQuantizedMatrix::from_raw(k, n, b.as_slice(), b.params());
        let (acc, _) = qgemm::matmul_accumulate(&a, &packed).unwrap();
        let za = a.params().zero_point();
        let zb = b.params().zero_point();
        for i in 0..m {
            for j in 0..n {
                let mut expect = 0i64;
                for p in 0..k {
                    expect += ((a.row(i)[p] as i32 - za) as i64)
                        * ((b.row(p)[j] as i32 - zb) as i64);
                }
                prop_assert_eq!(acc[i * n + j] as i64, expect);
            }
        }
    }

    #[test]
    fn quantized_gemm_tracks_float_gemm(seed in 0u64..500, k in 4usize..40) {
        let mut rng = DetRng::new(seed);
        let af = Matrix::random_uniform(3, k, -1.0, 1.0, &mut rng);
        let bf = Matrix::random_uniform(k, 3, -1.0, 1.0, &mut rng);
        let a = QuantizedMatrix::quantize(&af, QuantParams::from_min_max(-1.0, 1.0).unwrap());
        let b = PackedQuantizedMatrix::quantize(&bf, QuantParams::symmetric(1.0).unwrap());
        let exact = gemm::matmul(&af, &bf).unwrap();
        let approx = qgemm::matmul_dequantized(&a, &b).unwrap();
        // Error grows like sqrt(k) * scale; 0.02 * k is a generous bound.
        let bound = 0.02 * k as f32;
        for (x, y) in exact.iter().zip(approx.iter()) {
            prop_assert!((x - y).abs() < bound, "{x} vs {y} at k={k}");
        }
    }

    #[test]
    fn hstack_vstack_merge_identity(seed in 0u64..500, n in 2usize..8, d_sub in 4usize..16, k in 2usize..5) {
        // The bagging merge theorem on random (untrained) models:
        // summed sub-model scores == merged-model scores.
        let mut rng = DetRng::new(seed);
        let m_models = 3usize;
        let mut subs = Vec::new();
        for _ in 0..m_models {
            let base = Matrix::random_normal(n, d_sub, &mut rng);
            let classes = Matrix::random_normal(d_sub, k, &mut rng);
            subs.push((base, classes));
        }
        let probe = Matrix::random_normal(4, n, &mut rng);

        // Per-sub-model consensus.
        let mut consensus = Matrix::zeros(4, k);
        for (base, classes) in &subs {
            let enc = NonlinearEncoder::new(BaseHypervectors::from_matrix(base.clone()));
            let e = enc.encode(&probe).unwrap();
            let s = gemm::matmul(&e, classes).unwrap();
            consensus = consensus.add(&s).unwrap();
        }

        // Merged single model.
        let bases: Vec<&Matrix> = subs.iter().map(|(b, _)| b).collect();
        let class_mats: Vec<&Matrix> = subs.iter().map(|(_, c)| c).collect();
        let merged = HdcModel::from_parts(
            NonlinearEncoder::new(BaseHypervectors::from_matrix(Matrix::hstack(&bases).unwrap())),
            ClassHypervectors::from_matrix(Matrix::vstack(&class_mats).unwrap()),
        ).unwrap();
        let merged_scores = merged.decision_scores(&probe).unwrap();

        let dist = merged_scores.frobenius_distance(&consensus).unwrap();
        let scale = consensus.max_abs().max(1.0);
        prop_assert!(dist / scale < 1e-4, "relative distance {}", dist / scale);
    }

    #[test]
    fn encoding_preserves_zero_and_is_bounded(seed in 0u64..500, n in 1usize..16, d in 8usize..64) {
        let mut rng = DetRng::new(seed);
        let enc = NonlinearEncoder::new(BaseHypervectors::generate(n, d, &mut rng));
        let zero = vec![0.0f32; n];
        prop_assert!(enc.encode_sample(&zero).unwrap().iter().all(|&v| v == 0.0));

        let sample: Vec<f32> = (0..n).map(|_| 10.0 * rng.next_normal()).collect();
        let encoded = enc.encode_sample(&sample).unwrap();
        prop_assert!(encoded.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn encoding_scale_invariance_of_sign(seed in 0u64..200, n in 2usize..10) {
        // tanh is odd and monotonic, so scaling an input by a positive
        // constant never flips any encoded component's sign.
        let mut rng = DetRng::new(seed);
        let enc = NonlinearEncoder::new(BaseHypervectors::generate(n, 32, &mut rng));
        let sample: Vec<f32> = (0..n).map(|_| rng.next_normal()).collect();
        let scaled: Vec<f32> = sample.iter().map(|v| v * 3.0).collect();
        let a = enc.encode_sample(&sample).unwrap();
        let b = enc.encode_sample(&scaled).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(x.signum() == y.signum() || *x == 0.0 || *y == 0.0);
        }
    }

    #[test]
    fn dot_similarity_symmetry(seed in 0u64..500, d in 1usize..64) {
        let mut rng = DetRng::new(seed);
        let a: Vec<f32> = (0..d).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..d).map(|_| rng.next_normal()).collect();
        let ab = ops::dot(&a, &b).unwrap();
        let ba = ops::dot(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
        let cos_ab = ops::cosine(&a, &b).unwrap();
        prop_assert!((-1.001..=1.001).contains(&cos_ab));
    }

    #[test]
    fn matrix_stack_shapes(rows in 1usize..6, c1 in 1usize..6, c2 in 1usize..6) {
        let a = Matrix::filled(rows, c1, 1.0);
        let b = Matrix::filled(rows, c2, 2.0);
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        prop_assert_eq!(h.shape(), (rows, c1 + c2));
        let v = Matrix::vstack(&[&a.transposed(), &b.transposed()]).unwrap();
        prop_assert_eq!(v.shape(), (c1 + c2, rows));
    }
}
