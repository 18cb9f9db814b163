//! Summary statistics over a run's samples.

/// The samples sorted ascending (NaNs last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the two middle samples for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The first quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method); a single sample is its own quartiles, no samples give zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The tail of a latency distribution: the highest-ranked sample that
/// still has ten samples beyond it, as `(value, percentile)` — at 100
/// samples the 90th percentile. Below 21 samples that sample would lie
/// under the median, so the tail is not resolved and the upper median is
/// returned instead.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let idx = n.saturating_sub(BEYOND + 1).max(n / 2);
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Failed (or mismatched) operations as a share of those attempted; a run
/// that attempted nothing counts as wholly failed.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 110.0);
        assert!((p - 100.0 * 110.0 / 120.0).abs() < 1e-12);
        // Exactly ten beyond the returned sample.
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_upper_median() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (4.0, 100.0 * 2.0 / 3.0));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), (6.0, 60.0));
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs), (11.0, 100.0 * 11.0 / 21.0));
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs), (20.0, 100.0 * 20.0 / 30.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failure_share(0, 40), 0.0);
        assert_eq!(failure_share(1, 4), 0.25);
        assert_eq!(failure_share(0, 0), 1.0);
    }
}
