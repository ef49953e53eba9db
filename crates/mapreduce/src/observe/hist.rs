//! Log2 histograms with fixed bucket bounds.
//!
//! Bucket `i` covers values whose bit length is `i`: bucket 0 holds only
//! the value 0, bucket 1 holds 1, bucket 2 holds 2..=3, bucket `i` holds
//! `2^(i-1) ..= 2^i - 1`. The bounds are *fixed* (never rescaled from
//! observed data), so a histogram is a pure function of the multiset of
//! samples — the order events were recorded in cannot show through, which
//! is what makes histograms folded from the event stream byte-identical
//! across `worker_threads` counts, exactly like [`crate::Counters`].

/// Bucket count: one per possible `u64` bit length (0..=64).
pub const HIST_BUCKETS: usize = 65;

/// One fixed-bound log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index of a value: its bit length (0 for 0).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        #[allow(
            clippy::indexing_slicing,
            reason = "bucket_index is a bit length: at most 64 = HIST_BUCKETS - 1"
        )]
        let bucket = &mut self.counts[bucket_index(value)];
        *bucket += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket sample counts (index = bit length of the sample).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value falls inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} in bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [5u64, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 105);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.highest_bucket(), Some(bucket_index(100)));
    }
}
