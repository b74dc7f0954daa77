//! Order statistics for timing samples.
//!
//! Within a run the harness reports nearest-rank percentiles (an observed
//! sample, never an interpolated one). Across runs `perf compare` uses
//! the interpolated quartiles of Python's `statistics.quantiles(v, n=4)`,
//! because that is what the acceptance check computes.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon keeps an exact product such as 99.9 % of 10 000 from rounding
/// up to the next rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sorts `samples` ascending in place. Timing samples are never NaN.
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    percentile(&s, 50.0)
}

/// The harness's estimate of what a repeated piece of work costs on an
/// undisturbed host: its fastest repetition. Interference on a shared
/// machine only ever adds time, and on the sandbox it comes in episodes
/// that slow a vCPU by up to 1.8x for seconds and in phases that cover
/// nine tenths of a run; the minimum stays inside the undisturbed mode as
/// long as one repetition escaped, the median only while half did.
pub fn undisturbed(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank `(q1, median, q3)` of unsorted samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    sort(&mut s);
    (
        percentile(&s, 25.0),
        percentile(&s, 50.0),
        percentile(&s, 75.0),
    )
}

/// The highest of the usual percentiles that `n` samples support: one
/// with at least ten samples beyond it. `None` below 20 samples, where
/// not even the median qualifies.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n >= 1 && n >= rank(p, n) + 10)
}

/// `statistics.quantiles(values, n=4)` (the default, exclusive method):
/// interpolated `(q1, q2, q3)`. `None` with fewer than two values.
pub fn quantiles_exclusive(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance check bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quantiles_exclusive(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 8.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            2.0,
            "even count takes the lower middle"
        );
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.0, 3.0));
        // All but one sample slowed by a neighbour: still the clean cost.
        assert_eq!(undisturbed(&[18.0, 18.2, 10.0, 17.9, 14.0, 18.1]), 10.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(
            supported_percentile(760),
            Some(95.0),
            "p99 leaves only 7 beyond"
        );
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn exclusive_quantiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles_exclusive(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quantiles_exclusive(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(
            quantiles_exclusive(&[10.0, 20.0, 30.0]),
            Some((10.0, 20.0, 30.0))
        );
        assert_eq!(quantiles_exclusive(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
