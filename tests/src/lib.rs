//! Shared helpers for the cross-crate integration tests.
//!
//! The tests themselves live in `tests/tests/*.rs`; this small library
//! provides the dataset and model builders they share.

#![forbid(unsafe_code)]

use hd_tensor::rng::DetRng;
use hd_tensor::Matrix;

/// Builds a seeded Gaussian-cluster classification problem directly in
/// feature space (no dependency on `hd-datasets`' difficulty profiles, so
/// tests stay stable if those are re-tuned).
pub fn clustered_dataset(
    samples_per_class: usize,
    features: usize,
    classes: usize,
    noise: f32,
    seed: u64,
) -> (Matrix, Vec<usize>) {
    let mut rng = DetRng::new(seed);
    let centers: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..features).map(|_| rng.next_normal()).collect())
        .collect();
    let total = samples_per_class * classes;
    let mut m = Matrix::zeros(total, features);
    let mut labels = Vec::with_capacity(total);
    for s in 0..total {
        let c = s % classes;
        labels.push(c);
        for (v, center) in m.row_mut(s).iter_mut().zip(&centers[c]) {
            *v = center + noise * rng.next_normal();
        }
    }
    (m, labels)
}

/// Runs `batch` through `device` in invocations of at most `chunk` rows,
/// as a host driver would, returning the stitched outputs and each
/// invocation's stats.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn invoke_in_chunks(
    device: &tpu_sim::Device,
    batch: &Matrix,
    chunk: usize,
) -> tpu_sim::Result<(Matrix, Vec<tpu_sim::InvokeStats>)> {
    assert!(chunk > 0, "chunk must be positive");
    let mut outputs = Vec::new();
    let mut stats = Vec::new();
    for start in (0..batch.rows()).step_by(chunk) {
        let part = batch
            .slice_rows(start, (start + chunk).min(batch.rows()))
            .expect("chunk rows in range");
        let (out, s) = device.invoke_overlapped(&part)?;
        outputs.push(out);
        stats.push(s);
    }
    let stitched = Matrix::vstack(&outputs.iter().collect::<Vec<_>>()).expect("equal widths");
    Ok((stitched, stats))
}

/// Splits a dataset into train/test halves, interleaved so both halves
/// stay class-balanced.
pub fn split_half(features: &Matrix, labels: &[usize]) -> (Matrix, Vec<usize>, Matrix, Vec<usize>) {
    let train_idx: Vec<usize> = (0..features.rows()).filter(|i| i % 2 == 0).collect();
    let test_idx: Vec<usize> = (0..features.rows()).filter(|i| i % 2 == 1).collect();
    let train = features.select_rows(&train_idx).expect("indices in range");
    let test = features.select_rows(&test_idx).expect("indices in range");
    let train_labels = train_idx.iter().map(|&i| labels[i]).collect();
    let test_labels = test_idx.iter().map(|&i| labels[i]).collect();
    (train, train_labels, test, test_labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_dataset_is_balanced_and_deterministic() {
        let (a, labels_a) = clustered_dataset(10, 8, 3, 0.2, 1);
        let (b, _) = clustered_dataset(10, 8, 3, 0.2, 1);
        assert_eq!(a, b);
        for c in 0..3 {
            assert_eq!(labels_a.iter().filter(|&&l| l == c).count(), 10);
        }
    }

    #[test]
    fn split_half_partitions_everything() {
        let (m, labels) = clustered_dataset(10, 4, 2, 0.1, 2);
        let (train, tl, test, sl) = split_half(&m, &labels);
        assert_eq!(train.rows() + test.rows(), m.rows());
        assert_eq!(tl.len() + sl.len(), labels.len());
    }
}
