//! Bit-exactness of every fast host kernel against its scalar
//! reference: packed bipolar dot/Hamming scoring and vertical-counter
//! bundling vs their per-component scans, the packed `f32` and `i8` GEMMs
//! vs the naive triple loops, the class-interleaved scoring
//! (`InterleavedClasses`) vs one `ops::dot` per class, and the perceptron
//! pass that scores from it vs the row-major loop it replaced — including
//! with SIMD forced off, so the portable fallback is held to the same
//! contract as the vectorized kernel. Dimensions are drawn to cover `d % 64 != 0` tail
//! words, the packed representation's main edge case, and the GEMM
//! tile (6 x 16) and slab (256-deep) tails.

use proptest::prelude::*;

use hd_tensor::interleaved::InterleavedClasses;
use hd_tensor::packed::{
    dot_reference, majority_bundle, majority_bundle_reference, PackedBipolar,
    PackedClassHypervectors,
};
use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, kernels, ops, Matrix};
use hdc::{ClassHypervectors, IterationStats, TrainConfig, TrainStats};

fn sign_vec(rng: &mut DetRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.next_f32() < 0.5 { -1.0 } else { 1.0 })
        .collect()
}

fn i8_vec(rng: &mut DetRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| i8::try_from(rng.next_index(255) as i64 - 127).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_dot_and_hamming_match_scalar_reference(seed in 0u64..5000, dim in 1usize..400) {
        let mut rng = DetRng::new(seed);
        let a = PackedBipolar::from_signs(&sign_vec(&mut rng, dim));
        let b = PackedBipolar::from_signs(&sign_vec(&mut rng, dim));
        let dot = a.dot(&b).unwrap();
        prop_assert_eq!(dot, dot_reference(&a, &b).unwrap());
        // d = dot + 2·hamming ties the two kernels together exactly.
        prop_assert_eq!(dot, dim as i64 - 2 * i64::from(a.hamming(&b).unwrap()));
    }

    #[test]
    fn packed_batch_scoring_matches_f32_gemm_argmax(
        seed in 0u64..5000,
        dim in 1usize..200,
        classes in 1usize..8,
        rows in 1usize..12,
    ) {
        let mut rng = DetRng::new(seed);
        let query_rows: Vec<Vec<f32>> = (0..rows).map(|_| sign_vec(&mut rng, dim)).collect();
        let class_cols: Vec<Vec<f32>> = (0..classes).map(|_| sign_vec(&mut rng, dim)).collect();

        let encoded =
            Matrix::from_rows(&query_rows.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        let class_matrix = Matrix::from_fn(dim, classes, |i, j| class_cols[j][i]);
        let scores = gemm::matmul(&encoded, &class_matrix).unwrap();
        let scalar: Vec<usize> = (0..scores.rows())
            .map(|r| ops::argmax(scores.row(r)).unwrap())
            .collect();

        let packed_classes = PackedClassHypervectors::from_sign_rows(
            &class_cols.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        )
        .unwrap();
        let queries: Vec<PackedBipolar> = query_rows
            .iter()
            .map(|r| PackedBipolar::from_signs(r))
            .collect();
        let before = kernels::stats();
        let packed = packed_classes.predict_batch(&queries).unwrap();
        prop_assert_eq!(packed, scalar);
        // The dispatch is observable: the packed kernel counter moved by
        // at least this batch (other threads may add more).
        let after = kernels::stats();
        prop_assert!(after.packed_score_rows >= before.packed_score_rows + rows as u64);
    }

    #[test]
    fn vertical_counter_bundle_matches_scalar_majority(
        seed in 0u64..5000,
        dim in 1usize..300,
        members in 1usize..34,
    ) {
        let mut rng = DetRng::new(seed);
        let vectors: Vec<PackedBipolar> = (0..members)
            .map(|_| PackedBipolar::from_signs(&sign_vec(&mut rng, dim)))
            .collect();
        prop_assert_eq!(
            majority_bundle(&vectors).unwrap(),
            majority_bundle_reference(&vectors).unwrap()
        );
    }

    #[test]
    fn dispatched_i8_gemm_matches_naive_reference(
        seed in 0u64..5000,
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..48,
    ) {
        let mut rng = DetRng::new(seed);
        let a = i8_vec(&mut rng, m * k);
        let b = i8_vec(&mut rng, k * n);
        prop_assert_eq!(
            gemm::matmul_i8_i32(&a, &b, m, k, n).unwrap(),
            gemm::matmul_i8_i32_reference(&a, &b, m, k, n).unwrap()
        );
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_f32_gemm_matches_reference_bitwise(
        seed in 0u64..5000,
        m in 1usize..14,
        k in 0usize..300,
        n in 1usize..40,
    ) {
        let mut rng = DetRng::new(seed);
        let a = Matrix::random_normal(m, k, &mut rng);
        let b = Matrix::random_normal(k, n, &mut rng);
        prop_assert_eq!(
            bits(gemm::matmul(&a, &b).unwrap().as_slice()),
            bits(gemm::matmul_reference(&a, &b).unwrap().as_slice())
        );
    }

    #[test]
    fn interleaved_scores_match_per_class_dot(
        seed in 0u64..5000,
        dim in 0usize..300,
        classes in 1usize..30,
        rows in 1usize..10,
    ) {
        let mut rng = DetRng::new(seed);
        let class_matrix = Matrix::random_normal(dim, classes, &mut rng);
        let samples = Matrix::random_normal(rows, dim, &mut rng);
        let interleaved = InterleavedClasses::from_matrix(&class_matrix);
        let mut back = Matrix::zeros(dim, classes);
        interleaved.write_to(&mut back).unwrap();
        prop_assert_eq!(&back, &class_matrix);
        let mut scores = vec![0.0f32; rows * classes];
        interleaved.scores(samples.as_slice(), &mut scores).unwrap();
        for r in 0..rows {
            for j in 0..classes {
                let want = ops::dot(samples.row(r), &class_matrix.col(j).unwrap()).unwrap();
                prop_assert_eq!(scores[r * classes + j].to_bits(), want.to_bits());
                let one = interleaved.dot(j, samples.row(r)).unwrap();
                prop_assert_eq!(one.to_bits(), want.to_bits());
            }
        }
    }
}

/// The perceptron pass as it ran on row-major class rows: one
/// `ops::dot` per class and sample against the current classes, then
/// `ops::axpy` on a miss. The reference the speculative block scoring of
/// `hdc::train_encoded_warm` is held to.
fn row_major_training(
    encoded: &Matrix,
    labels: &[usize],
    initial: &Matrix,
    config: &TrainConfig,
    validation: (&Matrix, &[usize]),
) -> (Matrix, TrainStats) {
    let (d, k) = initial.shape();
    let mut rows: Vec<Vec<f32>> = (0..k).map(|j| initial.col(j).unwrap()).collect();
    let mut stats = TrainStats::default();
    for iteration in 0..config.iterations {
        let (mut updates, mut correct) = (0, 0);
        for (r, &label) in labels.iter().enumerate() {
            let sample = encoded.row(r);
            let mut predicted = 0;
            let mut best = f32::NEG_INFINITY;
            for (j, row) in rows.iter().enumerate() {
                let score = ops::dot(sample, row).unwrap();
                if score > best {
                    best = score;
                    predicted = j;
                }
            }
            if predicted == label {
                correct += 1;
            } else {
                updates += 1;
                ops::axpy(config.learning_rate, sample, &mut rows[label]).unwrap();
                ops::axpy(-config.learning_rate, sample, &mut rows[predicted]).unwrap();
            }
        }
        let model = Matrix::from_fn(d, k, |i, j| rows[j][i]);
        let (val, val_labels) = validation;
        let predicted = hdc::predict_batch(&ClassHypervectors::from_matrix(model), val).unwrap();
        let val_correct = predicted
            .iter()
            .zip(val_labels)
            .filter(|(p, l)| p == l)
            .count();
        stats.iterations.push(IterationStats {
            iteration,
            updates,
            train_accuracy: correct as f64 / labels.len() as f64,
            validation_accuracy: Some(val_correct as f64 / val_labels.len() as f64),
        });
    }
    (Matrix::from_fn(d, k, |i, j| rows[j][i]), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random labels keep the update rate high, so a block's speculative
    /// scores go stale and are rescored often; sample counts cut the last
    /// block short; a warm start and a learning rate other than 1 move
    /// every bit the pass computes.
    #[test]
    fn perceptron_pass_matches_row_major_reference(
        seed in 0u64..5000,
        dim in 1usize..300,
        classes in 1usize..30,
        samples in 1usize..40,
        warm in any::<bool>(),
        rate in 0usize..3,
    ) {
        let mut rng = DetRng::new(seed);
        let encoded = Matrix::random_normal(samples, dim, &mut rng);
        let labels: Vec<usize> = (0..samples).map(|_| rng.next_index(classes)).collect();
        let val = Matrix::random_normal(7, dim, &mut rng);
        let val_labels: Vec<usize> = (0..7).map(|_| rng.next_index(classes)).collect();
        let initial = if warm {
            Matrix::random_normal(dim, classes, &mut rng)
        } else {
            Matrix::zeros(dim, classes)
        };
        let rate = [1.0f32, 0.375, 2.5][rate];
        let config = TrainConfig::new(dim).with_iterations(3).with_learning_rate(rate);
        let (trained, stats) = hdc::train_encoded_warm(
            &encoded,
            &labels,
            ClassHypervectors::from_matrix(initial.clone()),
            &config,
            Some((&val, &val_labels)),
        )
        .unwrap();
        let (want, want_stats) =
            row_major_training(&encoded, &labels, &initial, &config, (&val, &val_labels));
        prop_assert_eq!(bits(trained.as_matrix().as_slice()), bits(want.as_slice()));
        prop_assert_eq!(stats, want_stats);
    }
}

/// Forcing SIMD off mid-process must reroute to the portable kernel and
/// stay bit-exact. (`HD_NO_SIMD=1` takes the same switch at startup; CI
/// additionally runs this whole suite under it.)
#[test]
fn i8_gemm_with_simd_forced_off_stays_bit_exact() {
    let mut rng = DetRng::new(7);
    let (m, k, n) = (17usize, 33usize, 129usize);
    let a = i8_vec(&mut rng, m * k);
    let b = i8_vec(&mut rng, k * n);
    let dispatched = gemm::matmul_i8_i32(&a, &b, m, k, n).unwrap();
    kernels::set_simd_enabled(false);
    let portable_name = kernels::i8_gemm_kernel_name().to_string();
    let portable = gemm::matmul_i8_i32(&a, &b, m, k, n);
    kernels::set_simd_enabled(true);
    assert_eq!(portable_name, "portable");
    assert_eq!(dispatched, portable.unwrap());
    assert_eq!(
        dispatched,
        gemm::matmul_i8_i32_reference(&a, &b, m, k, n).unwrap()
    );
}

/// The specific tail widths around the 64-lane word boundary, pinned
/// deterministically on top of the randomized sweep above.
#[test]
fn word_boundary_tail_dims_score_exactly() {
    let mut rng = DetRng::new(11);
    for dim in [1usize, 63, 64, 65, 127, 128, 130, 1000, 7623] {
        let a_vals = sign_vec(&mut rng, dim);
        let b_vals = sign_vec(&mut rng, dim);
        let a = PackedBipolar::from_signs(&a_vals);
        let b = PackedBipolar::from_signs(&b_vals);
        assert_eq!(
            a.dot(&b).unwrap(),
            dot_reference(&a, &b).unwrap(),
            "dim {dim}"
        );
        let scalar_dot: f32 = a_vals.iter().zip(&b_vals).map(|(x, y)| x * y).sum();
        assert_eq!(a.dot(&b).unwrap(), scalar_dot as i64, "dim {dim}");
    }
}
