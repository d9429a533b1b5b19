//! Summary statistics used by dataset normalization and by
//! quantization-error measurement.

/// Minimum and maximum of a slice; `None` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(hd_tensor::stats::min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
/// assert_eq!(hd_tensor::stats::min_max(&[]), None);
/// ```
pub fn min_max(values: &[f32]) -> Option<(f32, f32)> {
    let first = *values.first()?;
    let mut lo = first;
    let mut hi = first;
    for &v in &values[1..] {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    Some((lo, hi))
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Population variance; `0.0` for slices shorter than two elements.
pub fn variance(values: &[f32]) -> f32 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
}

/// Population standard deviation.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn mse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mse requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>() / a.len() as f32
}

/// Signal-to-quantization-noise ratio in decibels: `10 log10(P_sig / MSE)`.
///
/// Returns `f32::INFINITY` when the reconstruction is exact.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sqnr_db(signal: &[f32], reconstructed: &[f32]) -> f32 {
    let noise = mse(signal, reconstructed);
    if noise == 0.0 {
        return f32::INFINITY;
    }
    let power = signal.iter().map(|v| v * v).sum::<f32>() / signal.len().max(1) as f32;
    10.0 * (power / noise).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_basic() {
        assert_eq!(min_max(&[5.0]), Some((5.0, 5.0)));
        assert_eq!(min_max(&[1.0, -2.0, 3.0]), Some((-2.0, 3.0)));
    }

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_known_value() {
        assert_eq!(mse(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn sqnr_exact_is_infinite() {
        assert_eq!(sqnr_db(&[1.0, 2.0], &[1.0, 2.0]), f32::INFINITY);
    }

    #[test]
    fn sqnr_decreases_with_noise() {
        let sig = [1.0f32; 16];
        let small_noise: Vec<f32> = sig.iter().map(|v| v + 0.01).collect();
        let big_noise: Vec<f32> = sig.iter().map(|v| v + 0.2).collect();
        assert!(sqnr_db(&sig, &small_noise) > sqnr_db(&sig, &big_noise));
    }
}
