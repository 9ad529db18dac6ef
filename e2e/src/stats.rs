//! Order statistics for latency samples and for sets of runs.

/// Percentiles a latency may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 3] = [0.50, 0.90, 0.99];

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// Value at percentile `p` (nearest rank) of `sorted`; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has
/// [`MIN_SAMPLES_BEYOND`] samples above its rank among `n` samples; `None`
/// when not even the median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Sorts samples in place and returns them (NaN-free input assumed; NaNs
/// sort last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median with the usual midpoint for even counts; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread computed here is
/// the spread the benchmark driver computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based terms, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // 19 samples: the median's rank is 10, leaving 9 beyond.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        // p90 of 99 samples is rank 90 (9 beyond); of 100, rank 90 (10).
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.90));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&s), 5.5);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
