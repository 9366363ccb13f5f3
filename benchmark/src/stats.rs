//! Order statistics over samples taken by the harness.

/// Sorts a sample in place by total order (NaN last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a non-empty slice (mean of the two middle values for an
/// even count). Used for repeat-level times, where there are few values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a slice; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it (rank
/// `ceil(p * n)`, 1-based).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!((0.0..=1.0).contains(&p), "percentile outside [0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a sample of `n` values has at least ten values strictly
/// beyond the nearest-rank `p` percentile, the rule for a percentile to
/// be reported at all (p99 needs 1000 samples, p90 needs 100).
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + 10
}

/// Distance between the largest and the smallest value as a share of the
/// median: the run-to-run spread `compare` holds against a bound.
pub fn range_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.51), 6.0);
        assert_eq!(percentile_sorted(&v, 0.99), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert!(!has_ten_beyond(999, 0.99));
        assert!(has_ten_beyond(1000, 0.99));
        assert!(!has_ten_beyond(99, 0.90));
        assert!(has_ten_beyond(100, 0.90));
        assert!(has_ten_beyond(20, 0.5));
        assert!(!has_ten_beyond(19, 0.5));
        assert!(!has_ten_beyond(0, 0.5));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(range_over_median(&[10.0]), 0.0);
        assert!((range_over_median(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
