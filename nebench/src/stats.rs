//! Small order statistics used by the report.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; 0 for
/// an empty slice.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts a copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (interpolated between the middle two for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range over median, with quartiles computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the within-run spread printed here reads like the across-run spread
/// a caller computes from repeated runs. 0 with fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Exclusive method: position (n + 1) * k / 4, 1-based, clamped
        // to an inner pair and interpolated (or extrapolated) from it.
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m as f64 - 4.0 * j as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile::<f64>(&[], 0.5), 0.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
