//! Integer-only log-scale histograms and query-lifecycle span aggregation.
//!
//! These back the `asap-trace` observability layer, so they obey the same
//! determinism policy as the digest path (lint rule R3): recording, merging,
//! and percentile lookup are pure integer arithmetic — no floats anywhere —
//! which keeps aggregated trace output byte-identical across platforms.

use std::collections::BTreeMap;

/// Power-of-two bucketed histogram for `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i` (1..=64) holds values `v` with
/// `2^(i-1) <= v < 2^i`. Log buckets keep the footprint constant while
/// spanning the full microsecond/byte ranges the simulator produces.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub const BUCKETS: usize = 65;

    pub const fn new() -> Self {
        Self {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample: 0 for 0, otherwise its bit length.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (the largest sample it can hold).
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Integer mean (rounded down); 0 on an empty histogram.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Smallest recorded sample; 0 on an empty histogram.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `p_num / p_den` of all samples (e.g. `percentile(99, 100)` for p99).
    /// An approximation with at most 2x relative error — exactly what a
    /// log-bucketed histogram can promise — computed entirely in integers.
    pub fn percentile(&self, p_num: u64, p_den: u64) -> u64 {
        if self.count == 0 || p_den == 0 {
            return 0;
        }
        // Ceiling division: the rank of the sample we are looking for.
        let rank = (self.count * p_num).div_ceil(p_den).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, low to
    /// high — the stable export shape for JSONL summaries.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
            .collect()
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Open/close span tracking for query lifecycles (issue → first answer).
///
/// Keys are query ids; durations land in a [`LogHistogram`]. A `BTreeMap`
/// keeps iteration deterministic without depending on the simulator's
/// fixed-seed hash collections.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    open: BTreeMap<u32, u64>,
    durations: LogHistogram,
    closed: u64,
    unmatched_closes: u64,
}

impl SpanTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// A span opened at `now_us`. Re-opening an id restarts its clock.
    pub fn open(&mut self, id: u32, now_us: u64) {
        self.open.insert(id, now_us);
    }

    /// Close span `id` at `now_us`; returns the duration for the *first*
    /// close of an open span, `None` for an id that was never opened or has
    /// already closed (later answers to the same query are not re-counted).
    pub fn close(&mut self, id: u32, now_us: u64) -> Option<u64> {
        let start = self.open.remove(&id)?;
        let dur = now_us.saturating_sub(start);
        self.durations.record(dur);
        self.closed += 1;
        Some(dur)
    }

    /// Record a close for an id that was never opened (bookkeeping only).
    pub fn note_unmatched_close(&mut self) {
        self.unmatched_closes += 1;
    }

    /// Spans opened and never closed (e.g. unanswered queries).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    pub fn closed_count(&self) -> u64 {
        self.closed
    }

    pub fn unmatched_closes(&self) -> u64 {
        self.unmatched_closes
    }

    /// Distribution of completed span durations, µs.
    pub fn durations(&self) -> &LogHistogram {
        &self.durations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_powers_land_in_distinct_buckets() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.count(), 5);
        // 0 | 1 | 2..3 | 4..7
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (3, 2), (7, 1)]);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50, 100), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn percentile_is_bucket_bound_capped_at_max() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, bound 127
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(50, 100), 127);
        // The p100 bucket bound exceeds the true max and is capped by it.
        assert_eq!(h.percentile(100, 100), 1_000_000);
    }

    #[test]
    fn merge_accumulates_both_sides() {
        let mut a = LogHistogram::new();
        a.record(5);
        let mut b = LogHistogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn span_tracker_counts_first_close_only() {
        let mut s = SpanTracker::new();
        s.open(7, 100);
        assert_eq!(s.open_count(), 1);
        assert_eq!(s.close(7, 350), Some(250));
        assert_eq!(s.close(7, 400), None, "second answer not re-counted");
        assert_eq!(s.closed_count(), 1);
        assert_eq!(s.durations().max(), 250);
        assert_eq!(s.open_count(), 0);
    }

    #[test]
    fn unanswered_spans_stay_open() {
        let mut s = SpanTracker::new();
        s.open(1, 0);
        s.open(2, 10);
        s.close(1, 50);
        assert_eq!(s.open_count(), 1);
        assert_eq!(s.closed_count(), 1);
    }
}
