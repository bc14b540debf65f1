//! Order statistics over latency samples.

/// The `p`-th percentile (`0 < p < 100`) of `xs` by linear
/// interpolation between closest ranks; 0 when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of p90, p99 and p99.9 that leaves at least ten samples
/// above it, as `(p, value)`; `None` with fewer than 100 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    // Per mille, so the count of samples beyond is exact.
    [999usize, 990, 900]
        .into_iter()
        .find(|pm| xs.len() * (1000 - pm) / 1000 >= 10)
        .map(|pm| {
            let p = pm as f64 / 10.0;
            (p, percentile(xs, p))
        })
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1, then interpolate
        // with delta = i*(n+1) - 4*j, which the clamp can push past 0..4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The smallest of `xs` (0 when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_fixed_samples() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), 2.0);
        assert_eq!(percentile(&xs, 50.0), 6.0);
        assert_eq!(percentile(&xs, 90.0), 10.0);
        // Order of the input does not matter; interpolation between ranks.
        let ys = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&ys, 10.0) - 1.3).abs() < 1e-12);
        assert_eq!(median(&ys), 2.5);
        assert_eq!(percentile(&[], 10.0), 0.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert_eq!(min(&ys), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(90.0));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.0));
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
