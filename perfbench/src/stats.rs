//! Order statistics for timings.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! above it; callers size their runs with [`samples_for`].

/// Samples that must lie strictly above any reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank index of the `q`-quantile in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The smallest sample count that supports the `q`-quantile.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - 1 - rank(n, q) >= MIN_BEYOND)
        .expect("some count supports every quantile below 1")
}

/// The nearest-rank `q`-quantile of `samples` (sorted or not), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n < samples_for(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(n, q)])
}

/// The median of a non-empty sample, averaging the middle pair. Used for
/// per-run summaries (passes, set-ups), which are too few for the
/// percentile rule and are not tail statistics.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_keep_ten_samples_beyond() {
        assert_eq!(samples_for(0.5), 20);
        assert_eq!(samples_for(0.99), 1000);
        for q in [0.5, 0.9, 0.99] {
            let need = samples_for(q);
            let samples: Vec<f64> = (0..need).map(|i| i as f64).collect();
            let p = percentile(&samples, q).expect("enough samples");
            assert!(samples.iter().filter(|&&s| s > p).count() >= MIN_BEYOND);
            assert_eq!(percentile(&samples[..need - 1], q), None);
        }
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from(i * 7 % 1000)).collect();
        let p = percentile(&samples, 0.99);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.99));
        assert_eq!(p, Some(989.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
