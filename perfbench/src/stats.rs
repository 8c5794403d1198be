//! The benchmark's own statistics: percentiles with the tail the sample supports, quartiles,
//! span self time and the per-layer attribution of a unit's time.

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in `0.0..=1.0`: the value at
/// rank `ceil(q·n)`, with `q = 0` giving the minimum.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `0.0..=1.0`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    sorted[rank_index(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank `q` percentile in a sample of `n`.
fn rank_index(n: usize, q: f64) -> usize {
    // The epsilon keeps products like 0.99 × 1000 on their exact rank despite rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank_index(n, q) - 1
}

/// Samples a tail percentile should leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// A timing sample summarized as its median and one tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail quantile reported.
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
    /// Samples beyond the tail percentile's rank.
    pub beyond: usize,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes an unsorted sample with its median and its `tail_q` percentile.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(values: &[f64], tail_q: f64) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Summary {
        n,
        p50: percentile(&sorted, 0.5),
        tail_q,
        tail: percentile(&sorted, tail_q),
        beyond: samples_beyond(n, tail_q),
        mean: sorted.iter().sum::<f64>() / n as f64,
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values, 0.5).p50
}

/// The three quartile cut points of an unsorted sample with the default `exclusive` method
/// of Python's `statistics.quantiles(values, n=4)`, so the benchmark's spread matches the
/// acceptance computation.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (the run-to-run spread criterion); the
/// middle quartile is Python's `statistics.median`.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Self time of a span `[start, end)`: its duration minus the part of it that the `children`
/// intervals cover. Overlapping children count once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Splits a unit's time across layers: each layer's share is its time per unit over the unit
/// time, and the unattributed share is whatever the layers leave. A negative unattributed share
/// means the layer estimates overshoot the unit.
///
/// # Panics
///
/// Panics unless `unit_ns` is positive.
pub fn attribute(unit_ns: f64, layers: &[(&'static str, f64)]) -> (Vec<(&'static str, f64)>, f64) {
    assert!(unit_ns > 0.0, "a unit must take time");
    let shares: Vec<(&'static str, f64)> =
        layers.iter().map(|&(name, ns)| (name, ns / unit_ns)).collect();
    let unattributed = 1.0 - shares.iter().map(|&(_, s)| s).sum::<f64>();
    (shares, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_beyond_counts_what_the_tail_leaves() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.95), 50);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(25, 0.5), 12);
        assert_eq!(samples_beyond(1, 0.95), 0);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let values: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&values, 0.95);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!((s.tail_q, s.tail, s.beyond), (0.95, 949.0, 50));
        assert_eq!(s.mean, 499.5);
        assert_eq!(mean(&values), 499.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
        // Overlapping children and a child reaching past the parent count once, clipped.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50), (90, 130)]), 50);
        assert_eq!(self_time(0, 100, &[(0, 100), (20, 30)]), 0);
        assert_eq!(self_time(50, 100, &[(0, 40)]), 50);
    }

    #[test]
    fn shares_and_unattributed_sum_to_the_unit() {
        let (shares, rest) = attribute(200.0, &[("lfsr", 50.0), ("variational", 100.0)]);
        assert_eq!(shares, vec![("lfsr", 0.25), ("variational", 0.5)]);
        assert_eq!(rest, 0.25);
        let total: f64 = shares.iter().map(|&(_, s)| s).sum::<f64>() + rest;
        assert!((total - 1.0).abs() < 1e-12);
        let (_, over) = attribute(100.0, &[("tensor", 130.0)]);
        assert!((over + 0.3).abs() < 1e-12, "overshooting estimates show as negative");
    }
}
