//! Order statistics: nearest-rank percentiles, the median-over-passes
//! that makes a run's latency quantile repeatable, and the quartiles the
//! A/A tooling reports.

/// Fewest samples that support quantile `q`: ten must lie beyond it
/// (choosing-metrics §1), so p99 needs 1000 and p50 needs 20.
fn sample_floor(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` of a run's latency samples, given per pass: the median
/// over passes of each pass's own quantile, so a stall (or one odd
/// input) lifts one pass's value, not the run's. When a pass is too
/// short to support `q`, all passes are pooled into one quantile.
pub fn pass_percentile(passes: &[&[u64]], q: f64) -> f64 {
    let of = |samples: &[u64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        percentile(&sorted, q) as f64
    };
    if passes.iter().all(|p| p.len() >= sample_floor(q)) {
        median(&passes.iter().map(|p| of(p)).collect::<Vec<_>>())
    } else {
        of(&passes.concat())
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice so an idle layer reports 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// [`median`] over integer samples.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the rule the acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn a_runs_quantile_is_the_median_over_its_passes() {
        let pass = |from: u64| (from..from + 1000).collect::<Vec<u64>>();
        let (a, b, c) = (pass(0), pass(100), pass(5000));
        // p90 of each pass is its 900th sample; the odd pass does not move the median.
        assert_eq!(pass_percentile(&[&a, &b, &c], 0.90), 999.0);
        assert_eq!(pass_percentile(&[&a, &b], 0.50), (499.0 + 599.0) / 2.0);
        // 1000 samples support p99, 999 do not: pooled into one quantile.
        assert_eq!(pass_percentile(&[&a, &a], 0.99), 989.0);
        assert_eq!(pass_percentile(&[&a, &a[..999]], 0.99), 989.0);
        assert_eq!(pass_percentile(&[&a[..10]], 0.99), 9.0);
    }

    #[test]
    fn one_stalled_pass_does_not_move_the_run() {
        let quiet = vec![100u64; 1000];
        let mut stalled = quiet.clone();
        for s in &mut stalled[300..500] {
            *s = 1_000_000; // a stall over a fifth of one pass
        }
        assert_eq!(pass_percentile(&[&quiet, &stalled, &quiet], 0.90), 100.0);
        // Pooled, the same stall would have reached the p95.
        let mut pooled = [quiet.clone(), stalled, quiet].concat();
        pooled.sort_unstable();
        assert_eq!(percentile(&pooled, 0.95), 1_000_000);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
    }
}
