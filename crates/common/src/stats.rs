//! The one latency summary the serving reports share.
//!
//! Every percentile a scenario report carries — whole-run, per ramp
//! segment, and the calibration's service tail — comes from
//! [`LatencySummary`], so all of them agree on one definition:
//! **nearest-rank on the sorted sample**, index `⌊(len − 1) · p / 100⌋`.
//! That definition never interpolates (the returned value is always an
//! observed sample) and pins ties deterministically: the reported p50 of
//! `[1, 2, 2, 2, 9]` is an actual `2`, not a synthetic average.
//!
//! An **empty** sample set has no percentile — it reports `None`, never a
//! fabricated zero. Per-scenario latency slices can legitimately be empty
//! (a scenario rejected or expired 100 % of its traffic), and a silent
//! `0 ns` tail latency would read as "infinitely fast" exactly when the
//! service was at its worst. Callers that want a sentinel value for
//! display must choose it explicitly.

use std::time::Duration;

/// A latency distribution summarised once from a sample set: mean, p50
/// and p99, sorted **once** at construction.
///
/// [`LatencySummary::mean`] returns `Duration::ZERO` on an empty sample
/// set because the mean is used additively in displays where a zero reads
/// as "no traffic", unlike a tail percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    mean: Duration,
    p50: Option<Duration>,
    p99: Option<Duration>,
}

impl LatencySummary {
    /// Builds the summary from a sample set; sorts once, O(n log n).
    pub fn from_samples(samples: impl IntoIterator<Item = Duration>) -> Self {
        let mut sorted: Vec<Duration> = samples.into_iter().collect();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return Self::default();
        }
        let rank = |pct: usize| sorted[(sorted.len() - 1) * pct / 100];
        Self {
            mean: sorted.iter().sum::<Duration>() / sorted.len() as u32,
            p50: Some(rank(50)),
            p99: Some(rank(99)),
        }
    }

    /// Arithmetic mean; `Duration::ZERO` on an empty sample set.
    pub fn mean(&self) -> Duration {
        self.mean
    }

    /// Nearest-rank median; `None` on empty.
    pub fn p50(&self) -> Option<Duration> {
        self.p50
    }

    /// Nearest-rank 99th percentile; `None` on empty.
    pub fn p99(&self) -> Option<Duration> {
        self.p99
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_sample_has_no_percentile_and_zero_mean() {
        // The regression pin for the scenario matrix: a 100%-rejected
        // slice must surface as "no samples", not as a 0 ns tail.
        let s = LatencySummary::from_samples([]);
        assert_eq!((s.p50(), s.p99()), (None, None));
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = LatencySummary::from_samples([ms(7)]);
        assert_eq!(
            (s.mean(), s.p50(), s.p99()),
            (ms(7), Some(ms(7)), Some(ms(7)))
        );
    }

    #[test]
    fn nearest_rank_indexing_is_exact() {
        // 10 samples: index (10-1)*p/100 → p50 picks index 4, p99 index 8;
        // 101 samples: p99 picks index 99, one below the maximum.
        let s = LatencySummary::from_samples((1..=10).rev().map(ms));
        assert_eq!((s.p50(), s.p99()), (Some(ms(5)), Some(ms(9))));
        assert_eq!(s.mean(), Duration::from_micros(5_500));
        let s = LatencySummary::from_samples((0..=100).map(ms));
        assert_eq!((s.p50(), s.p99()), (Some(ms(50)), Some(ms(99))));
    }

    #[test]
    fn ties_pin_to_an_observed_sample() {
        // A run of equal values straddling the percentile index must come
        // back as exactly that value — never interpolated, independent of
        // input order.
        let a = LatencySummary::from_samples([ms(9), ms(2), ms(2), ms(1), ms(2)]);
        let b = LatencySummary::from_samples([ms(2), ms(2), ms(9), ms(2), ms(1)]);
        assert_eq!(a, b);
        assert_eq!(a.p50(), Some(ms(2)));
        // All-equal input: every percentile is that value.
        let flat = LatencySummary::from_samples([ms(4); 17]);
        assert_eq!((flat.p50(), flat.p99()), (Some(ms(4)), Some(ms(4))));
    }

    #[test]
    fn percentiles_are_monotone_in_percentile() {
        // Every prefix of a scrambled sequence: p50 ≤ p99, both observed.
        let samples = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5].map(ms);
        for len in 1..=samples.len() {
            let s = LatencySummary::from_samples(samples[..len].iter().copied());
            let (p50, p99) = (s.p50().unwrap(), s.p99().unwrap());
            assert!(p50 <= p99, "{len} samples: p50 {p50:?} > p99 {p99:?}");
            assert!(samples[..len].contains(&p50) && samples[..len].contains(&p99));
        }
    }
}
