//! Property-based tests for the tensor substrate: GEMM algebra, stacking
//! laws, and kernel identities.

use proptest::prelude::*;

use hd_tensor::rng::DetRng;
use hd_tensor::{gemm, ops, Matrix};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = DetRng::new(seed);
    Matrix::random_uniform(rows, cols, -2.0, 2.0, &mut rng)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert!((x - y).abs() <= tol, "{} vs {}", x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference(seed in 0u64..10_000, m in 1usize..20, k in 1usize..20, n in 1usize..20) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed ^ 1);
        let fast = gemm::matmul(&a, &b).unwrap();
        let slow = gemm::matmul_reference(&a, &b).unwrap();
        // Same ascending summation order: exactly equal, not just close.
        assert_close(&fast, &slow, 0.0)?;
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..10_000, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        // (A + B) C == A C + B C, up to float error.
        let a = random_matrix(m, k, seed);
        let b = random_matrix(m, k, seed ^ 2);
        let c = random_matrix(k, n, seed ^ 3);
        let lhs = gemm::matmul(&a.add(&b).unwrap(), &c).unwrap();
        let rhs = gemm::matmul(&a, &c).unwrap().add(&gemm::matmul(&b, &c).unwrap()).unwrap();
        assert_close(&lhs, &rhs, 1e-3)?;
    }

    #[test]
    fn transpose_reverses_product(seed in 0u64..10_000, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        // (A B)^T == B^T A^T.
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed ^ 4);
        let lhs = gemm::matmul(&a, &b).unwrap().transposed();
        let rhs = gemm::matmul(&b.transposed(), &a.transposed()).unwrap();
        assert_close(&lhs, &rhs, 1e-3)?;
    }

    #[test]
    fn identity_is_two_sided_neutral(seed in 0u64..10_000, n in 1usize..16) {
        let a = random_matrix(n, n, seed);
        assert_close(&gemm::matmul(&a, &Matrix::identity(n)).unwrap(), &a, 1e-5)?;
        assert_close(&gemm::matmul(&Matrix::identity(n), &a).unwrap(), &a, 1e-5)?;
    }

    #[test]
    fn hstack_then_slice_recovers_parts(seed in 0u64..10_000, rows in 1usize..8, c1 in 1usize..8, c2 in 1usize..8) {
        let a = random_matrix(rows, c1, seed);
        let b = random_matrix(rows, c2, seed ^ 5);
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        for r in 0..rows {
            prop_assert_eq!(&h.row(r)[..c1], a.row(r));
            prop_assert_eq!(&h.row(r)[c1..], b.row(r));
        }
    }

    #[test]
    fn vstack_then_slice_rows_recovers_parts(seed in 0u64..10_000, cols in 1usize..8, r1 in 1usize..8, r2 in 1usize..8) {
        let a = random_matrix(r1, cols, seed);
        let b = random_matrix(r2, cols, seed ^ 6);
        let v = Matrix::vstack(&[&a, &b]).unwrap();
        prop_assert_eq!(v.slice_rows(0, r1).unwrap(), a);
        prop_assert_eq!(v.slice_rows(r1, r1 + r2).unwrap(), b);
    }

    #[test]
    fn block_product_identity(seed in 0u64..10_000, rows in 1usize..6, c1 in 1usize..6, c2 in 1usize..6, n in 1usize..6) {
        // [A | B] * [C; D] == A C + B D — the algebra underlying the
        // paper's bagging merge.
        let a = random_matrix(rows, c1, seed);
        let b = random_matrix(rows, c2, seed ^ 7);
        let c = random_matrix(c1, n, seed ^ 8);
        let d = random_matrix(c2, n, seed ^ 9);
        let merged = gemm::matmul(
            &Matrix::hstack(&[&a, &b]).unwrap(),
            &Matrix::vstack(&[&c, &d]).unwrap(),
        ).unwrap();
        let summed = gemm::matmul(&a, &c).unwrap().add(&gemm::matmul(&b, &d).unwrap()).unwrap();
        assert_close(&merged, &summed, 1e-3)?;
    }

    #[test]
    fn dot_via_matvec(seed in 0u64..10_000, k in 1usize..32) {
        let col = random_matrix(k, 1, seed);
        let x: Vec<f32> = random_matrix(1, k, seed ^ 10).into_vec();
        let via_matvec = gemm::matvec(&x, &col).unwrap()[0];
        let via_dot = ops::dot(&x, col.as_slice()).unwrap();
        prop_assert!((via_matvec - via_dot).abs() < 1e-4);
    }

    #[test]
    fn cauchy_schwarz(seed in 0u64..10_000, k in 1usize..64) {
        let a: Vec<f32> = random_matrix(1, k, seed).into_vec();
        let b: Vec<f32> = random_matrix(1, k, seed ^ 11).into_vec();
        let dot = ops::dot(&a, &b).unwrap().abs();
        let bound = ops::norm(&a) * ops::norm(&b);
        prop_assert!(dot <= bound * (1.0 + 1e-5) + 1e-6);
    }

    #[test]
    fn select_rows_roundtrip_identity_permutation(seed in 0u64..10_000, rows in 1usize..10, cols in 1usize..6) {
        let m = random_matrix(rows, cols, seed);
        let identity: Vec<usize> = (0..rows).collect();
        prop_assert_eq!(m.select_rows(&identity).unwrap(), m);
    }

    #[test]
    fn tanh_kernel_bounds_and_odd_symmetry(seed in 0u64..10_000, k in 1usize..32) {
        let mut v: Vec<f32> = random_matrix(1, k, seed).map(|x| x * 10.0).into_vec();
        let mut neg: Vec<f32> = v.iter().map(|x| -x).collect();
        ops::tanh_inplace(&mut v);
        ops::tanh_inplace(&mut neg);
        for (a, b) in v.iter().zip(&neg) {
            prop_assert!((-1.0..=1.0).contains(a));
            prop_assert!((a + b).abs() < 1e-6, "tanh must be odd");
        }
    }
}
