//! Property-based tests over the extension subsystems: bipolar packing,
//! CSV round-trips and fault-injection accounting.

use proptest::prelude::*;

use hd_datasets::csv::{parse_csv, to_csv, CsvOptions};
use hd_datasets::Split;
use hd_quant::{PackedQuantizedMatrix, QuantParams};
use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;
use hdc::bipolar::BipolarVector;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bipolar_dot_identity_holds_for_any_dim(seed in 0u64..2000, dim in 1usize..200) {
        let mut rng = DetRng::new(seed);
        let a_vals: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let b_vals: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let a = BipolarVector::from_signs(&a_vals);
        let b = BipolarVector::from_signs(&b_vals);
        let h = a.hamming(&b).unwrap() as i64;
        prop_assert_eq!(a.dot(&b).unwrap(), dim as i64 - 2 * h);
        // Triangle-ish sanity: hamming to self is 0, to negation is dim.
        // Negate the *packed* signs (negating raw values near zero does
        // not flip the sign bit: from_signs maps v >= 0 to +1).
        let neg_vals: Vec<f32> = a.to_signs().iter().map(|v| -v).collect();
        let neg = BipolarVector::from_signs(&neg_vals);
        prop_assert_eq!(a.hamming(&a).unwrap(), 0);
        prop_assert_eq!(a.hamming(&neg).unwrap(), dim as u32);
    }

    #[test]
    fn bipolar_pack_unpack_roundtrip(seed in 0u64..2000, dim in 1usize..300) {
        let mut rng = DetRng::new(seed);
        let vals: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        let packed = BipolarVector::from_signs(&vals);
        let unpacked = packed.to_signs();
        let repacked = BipolarVector::from_signs(&unpacked);
        prop_assert_eq!(packed, repacked);
        prop_assert_eq!(unpacked.len(), dim);
    }

    #[test]
    fn csv_roundtrip_preserves_split(seed in 0u64..2000, rows in 1usize..20, cols in 1usize..8, classes in 1usize..5) {
        let mut rng = DetRng::new(seed);
        // Quantize features to 3 decimals so text round-trips exactly.
        let features = Matrix::from_fn(rows, cols, |_, _| {
            (rng.next_normal() * 1000.0).round() / 1000.0
        });
        let labels: Vec<usize> = (0..rows).map(|i| i % classes).collect();
        let split = Split { features, labels };
        let text = to_csv(&split);
        let import = parse_csv(&text, &CsvOptions::default()).unwrap();
        prop_assert_eq!(import.split.features, split.features);
        // Dense remapping preserves the partition of rows into classes.
        for (a, b) in split.labels.iter().zip(&import.split.labels) {
            for (c, d) in split.labels.iter().zip(&import.split.labels) {
                prop_assert_eq!(a == c, b == d);
            }
        }
    }

    #[test]
    fn fault_injection_is_deterministic_and_bounded(seed in 0u64..2000, rate_milli in 0u64..200) {
        let rate = rate_milli as f64 / 1000.0;
        let params = QuantParams::symmetric(1.0).unwrap();
        let make = || PackedQuantizedMatrix::from_raw(8, 8, &[42; 64], params);
        let mut a = make();
        let mut b = make();
        let flips_a = a.apply_bit_flips(rate, &mut DetRng::new(seed));
        let flips_b = b.apply_bit_flips(rate, &mut DetRng::new(seed));
        prop_assert_eq!(flips_a, flips_b);
        prop_assert_eq!(a, b);
        prop_assert!(flips_a <= 64 * 8);
    }

    /// Packed weights flip the same logical bits, with the same draws, as
    /// flipping the row-major bytes in order, lowest bit first; column
    /// sums follow the flips. Shapes cut partial quads and panels.
    #[test]
    fn packed_bit_flips_follow_row_major_order(
        seed in 0u64..2000,
        rows in 1usize..23,
        cols in 1usize..41,
        rate_milli in 0u64..300,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut rng = DetRng::new(seed ^ 0x5EED);
        let mut values: Vec<i8> = (0..rows * cols).map(|_| rng.next_u64() as i8).collect();
        let params = QuantParams::symmetric(1.0).unwrap();
        let mut packed = PackedQuantizedMatrix::from_raw(rows, cols, &values, params);
        let flipped = packed.apply_bit_flips(rate, &mut DetRng::new(seed));

        let mut reference_rng = DetRng::new(seed);
        let mut reference_flips = 0;
        for v in &mut values {
            for bit in 0..8 {
                if reference_rng.next_f64() < rate {
                    *v = (*v as u8 ^ (1u8 << bit)) as i8;
                    reference_flips += 1;
                }
            }
        }
        prop_assert_eq!(flipped, reference_flips);
        prop_assert_eq!(packed, PackedQuantizedMatrix::from_raw(rows, cols, &values, params));
    }

    #[test]
    fn update_profile_geometric_is_monotone_nonincreasing(iters in 1usize..30) {
        let p = hyperedge::UpdateProfile::geometric(iters, 0.6, 0.8);
        for i in 1..iters {
            prop_assert!(p.fraction(i) <= p.fraction(i - 1) + 1e-12);
        }
    }
}
