use hd_tensor::rng::DetRng;
use hd_tensor::{stats, Matrix};

/// One partition of a dataset: a `samples x features` matrix plus one
/// label per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Feature matrix, one sample per row.
    pub features: Matrix,
    /// Class label of each row.
    pub labels: Vec<usize>,
}

impl Split {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Shuffles samples and labels together.
    ///
    /// # Panics
    ///
    /// Panics only if an internal invariant breaks: the permutation is
    /// always a rearrangement of in-range row indices.
    pub fn shuffle(&mut self, rng: &mut DetRng) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        let features = self
            .features
            .select_rows(&order)
            .expect("permutation indices are in range");
        let labels = order.iter().map(|&i| self.labels[i]).collect();
        self.features = features;
        self.labels = labels;
    }
}

/// A train/test dataset pair.
///
/// # Examples
///
/// ```
/// use hd_datasets::{registry, SampleBudget};
///
/// # fn main() -> Result<(), hd_datasets::DatasetError> {
/// let spec = registry::by_name("pamap2").expect("registered");
/// let mut data = spec.generate(SampleBudget::Reduced { train: 100, test: 40 }, 3)?;
/// data.normalize();
/// assert_eq!(data.train.len(), 100);
/// assert_eq!(data.test.len(), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Name of the (synthetic stand-in) dataset.
    pub name: String,
    /// Number of classes.
    pub classes: usize,
    /// Training partition.
    pub train: Split,
    /// Held-out test partition.
    pub test: Split,
}

impl Dataset {
    /// Number of input features per sample.
    pub fn feature_count(&self) -> usize {
        self.train.features.cols()
    }

    /// Z-score normalizes every feature using statistics of the
    /// **training** split only (the test split is transformed with the
    /// train statistics, as any leak-free pipeline must).
    ///
    /// # Panics
    ///
    /// Panics only if an internal invariant breaks: every feature index
    /// iterated is below the train split's column count.
    pub fn normalize(&mut self) {
        let n = self.feature_count();
        let mut means = vec![0.0f32; n];
        let mut stds = vec![1.0f32; n];
        for f in 0..n {
            let col = self.train.features.col(f).expect("feature index in range");
            means[f] = stats::mean(&col);
            let sd = stats::std_dev(&col);
            stds[f] = if sd > 1e-12 { sd } else { 1.0 };
        }
        for split in [&mut self.train, &mut self.test] {
            for r in 0..split.features.rows() {
                let row = split.features.row_mut(r);
                for (f, v) in row.iter_mut().enumerate() {
                    *v = (*v - means[f]) / stds[f];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        Dataset {
            name: "tiny".into(),
            classes: 2,
            train: Split {
                features: Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 50.0]]).unwrap(),
                labels: vec![0, 1, 0],
            },
            test: Split {
                features: Matrix::from_rows(&[&[2.0, 20.0]]).unwrap(),
                labels: vec![1],
            },
        }
    }

    #[test]
    fn normalize_zero_means_unit_std_on_train() {
        let mut d = tiny_dataset();
        d.normalize();
        for f in 0..2 {
            let col = d.train.features.col(f).unwrap();
            assert!(stats::mean(&col).abs() < 1e-6);
            assert!((stats::std_dev(&col) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn normalize_uses_train_statistics_for_test() {
        let mut d = tiny_dataset();
        d.normalize();
        // Test sample (2, 20) under train stats (mean 3, std ~1.63 per dim
        // scaled): both features normalize identically by construction.
        let a = d.test.features[(0, 0)];
        let b = d.test.features[(0, 1)];
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn constant_feature_does_not_divide_by_zero() {
        let mut d = Dataset {
            name: "const".into(),
            classes: 1,
            train: Split {
                features: Matrix::filled(3, 1, 7.0),
                labels: vec![0, 0, 0],
            },
            test: Split {
                features: Matrix::filled(1, 1, 7.0),
                labels: vec![0],
            },
        };
        d.normalize();
        assert!(d.train.features.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let mut d = tiny_dataset();
        let before: Vec<(Vec<f32>, usize)> = (0..d.train.len())
            .map(|i| (d.train.features.row(i).to_vec(), d.train.labels[i]))
            .collect();
        let mut rng = DetRng::new(1);
        d.train.shuffle(&mut rng);
        let mut after: Vec<(Vec<f32>, usize)> = (0..d.train.len())
            .map(|i| (d.train.features.row(i).to_vec(), d.train.labels[i]))
            .collect();
        for pair in &before {
            let pos = after.iter().position(|p| p == pair);
            assert!(pos.is_some(), "pair lost in shuffle");
            after.remove(pos.unwrap());
        }
    }

    #[test]
    fn split_len_and_empty() {
        let d = tiny_dataset();
        assert_eq!(d.train.len(), 3);
        assert!(!d.train.is_empty());
        assert_eq!(d.feature_count(), 2);
    }
}
