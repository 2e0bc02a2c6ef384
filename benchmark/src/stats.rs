//! Order statistics the metrics are built from. Percentiles are
//! nearest-rank throughout.

/// Number of equal consecutive segments the timed window is cut into.
pub const SEGMENTS: usize = 5;

fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
}

/// Nearest-rank percentile (`p` in `(0, 1]`); 0.0 of nothing.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method,
/// which extrapolates on very small samples) — the acceptance rule's spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One timed request: when it started (seconds into the window) and what it
/// took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start_s: f64,
    pub value: f64,
}

/// Splits the samples by start time into [`SEGMENTS`] equal parts of
/// `[0, window_s)`; samples are the answered requests only.
pub fn segments(samples: &[Sample], window_s: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); SEGMENTS];
    for s in samples {
        let idx = ((s.start_s / window_s) * SEGMENTS as f64) as usize;
        out[idx.min(SEGMENTS - 1)].push(s.value);
    }
    out
}

/// Median over the segments of answers per second: a slow phase of the
/// host costs one or two segments, not the reported rate.
pub fn segment_median_rate(segs: &[Vec<f64>], window_s: f64) -> f64 {
    let seg_s = window_s / SEGMENTS as f64;
    median(
        &segs
            .iter()
            .map(|s| s.len() as f64 / seg_s)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn segment_rate_ignores_a_slow_phase() {
        // 100 requests a second, except between 2 s and 5 s, where every
        // second request is missing.
        let samples: Vec<Sample> = (0..1000)
            .filter(|i| !(200..500).contains(i) || i % 2 == 0)
            .map(|i| Sample {
                start_s: i as f64 / 100.0,
                value: 1.0,
            })
            .collect();
        let segs = segments(&samples, 10.0);
        assert_eq!(
            segs.iter().map(Vec::len).collect::<Vec<_>>(),
            [200, 100, 150, 200, 200]
        );
        assert_eq!(segment_median_rate(&segs, 10.0), 100.0);
    }
}
