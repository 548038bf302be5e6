//! Order statistics used by the report.

/// Fewest samples for which a p99 is reported: below this, fewer than ten
/// samples would lie beyond it.
pub const TAIL_MIN_SAMPLES: usize = 1000;

/// Median; the mean of the two middle values for an even count, 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank p99, or `None` when fewer than [`TAIL_MIN_SAMPLES`] samples
/// exist.
pub fn tail_p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(rt_metrics::percentile_sorted(&sorted, 99.0))
}

/// Smallest sample, 0 when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample, 0 when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_p99(&few), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_p99(&enough), Some(990.0));
    }
}
