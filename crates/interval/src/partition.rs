//! Partitioning of the global time range (paper Section 3).
//!
//! A partitioning of the time range `[t_0, t_n)` is a sequence of contiguous
//! half-open *partition-intervals* `[t_0, t_1), [t_1, t_2), …, [t_{l-1}, t_n)`.
//! Partition-intervals double as reducer ids: a map function emitting the
//! pair `(p_i, u)` communicates interval `u` to reducer `p_i`.

use crate::interval::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a partition-interval within a [`Partitioning`].
pub type PartitionIndex = usize;

/// Error constructing a [`Partitioning`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitioningError {
    /// Fewer than two boundaries (at least one partition is required).
    TooFewBoundaries,
    /// Boundaries not strictly increasing.
    NotIncreasing { at: usize },
    /// `equi_width` called with an empty range or zero partitions.
    EmptyRange,
}

impl fmt::Display for PartitioningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitioningError::TooFewBoundaries => {
                write!(f, "a partitioning needs at least two boundaries")
            }
            PartitioningError::NotIncreasing { at } => {
                write!(
                    f,
                    "partition boundaries must strictly increase (index {at})"
                )
            }
            PartitioningError::EmptyRange => {
                write!(
                    f,
                    "equi-width partitioning needs a non-empty range and k >= 1"
                )
            }
        }
    }
}

impl std::error::Error for PartitioningError {}

/// A partitioning `P = (p_1, …, p_l)` of a time range into contiguous
/// half-open partition-intervals.
///
/// Stored as `l + 1` strictly increasing boundaries; partition `i` is
/// `[boundaries[i], boundaries[i+1])`.
///
/// Lookups clamp: a point before the range maps to partition `0`, a point at
/// or past the final boundary maps to the last partition. This makes the
/// join algorithms total over any input (the paper assumes all intervals lie
/// within `[t_0, t_n)`; clamping preserves correctness when they do and
/// degrades gracefully when they do not).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioning {
    boundaries: Vec<Time>,
}

impl Partitioning {
    /// Builds a partitioning from explicit boundaries
    /// (`boundaries[0] = t_0`, `boundaries[l] = t_n`).
    pub fn from_boundaries(boundaries: Vec<Time>) -> Result<Self, PartitioningError> {
        if boundaries.len() < 2 {
            return Err(PartitioningError::TooFewBoundaries);
        }
        for (i, w) in boundaries.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(PartitioningError::NotIncreasing { at: i + 1 });
            }
        }
        Ok(Partitioning { boundaries })
    }

    /// Divides `[t0, tn)` into `k` near-equal partitions (the first
    /// `(tn - t0) % k` partitions are one tick wider).
    pub fn equi_width(t0: Time, tn: Time, k: usize) -> Result<Self, PartitioningError> {
        // Widened: `tn - t0` does not fit in a `Time` when the range is
        // most of the time domain.
        let span = tn as i128 - t0 as i128;
        if span <= 0 || k == 0 || span < k as i128 {
            return Err(PartitioningError::EmptyRange);
        }
        let base = span / k as i128;
        let extra = span % k as i128;
        let mut boundaries = Vec::with_capacity(k + 1);
        let mut at = t0 as i128;
        boundaries.push(t0);
        for i in 0..k {
            at += base + i128::from((i as i128) < extra);
            // `at <= tn`, so the narrowing is lossless.
            boundaries.push(at as Time);
        }
        debug_assert_eq!(*boundaries.last().unwrap(), tn);
        Partitioning::from_boundaries(boundaries)
    }

    /// Builds an *equi-depth* partitioning of `[t0, tn)`: boundaries are
    /// placed at the quantiles of the given start points, so every
    /// partition receives a similar number of interval starts even under
    /// skew. The paper notes (Section 2) that "uniformly distributed data
    /// vs skewed data will need to be processed differently" — this is the
    /// standard remedy: reducer keys stay balanced when `dS` is zipfian.
    ///
    /// Degenerate quantiles (repeated values) collapse; the result may have
    /// fewer than `k` partitions but always covers `[t0, tn)`.
    pub fn equi_depth(
        t0: Time,
        tn: Time,
        k: usize,
        starts: &[Time],
    ) -> Result<Self, PartitioningError> {
        if tn <= t0 || k == 0 {
            return Err(PartitioningError::EmptyRange);
        }
        if starts.is_empty() || k == 1 {
            let points = usize::try_from(tn.abs_diff(t0)).unwrap_or(usize::MAX);
            return Partitioning::equi_width(t0, tn, k.min(points).max(1));
        }
        let mut sorted = starts.to_vec();
        sorted.sort_unstable();
        let mut boundaries = vec![t0];
        for i in 1..k {
            let q = sorted[(i * sorted.len()) / k].clamp(t0 + 1, tn - 1);
            if q > *boundaries.last().expect("non-empty") {
                boundaries.push(q);
            }
        }
        if *boundaries.last().expect("non-empty") < tn {
            boundaries.push(tn);
        }
        Partitioning::from_boundaries(boundaries)
    }

    /// Cuts every partition into `parts` near-equal partitions, each as
    /// [`Partitioning::equi_width`] cuts a range; `None` when some partition
    /// is narrower than `parts` ticks. Every boundary of `self` is one of
    /// the result's: boundary `i` of `self` is boundary `i * parts` there.
    pub fn refine(&self, parts: usize) -> Option<Partitioning> {
        let mut boundaries = vec![self.boundaries[0]];
        for w in self.boundaries.windows(2) {
            let piece = Partitioning::equi_width(w[0], w[1], parts).ok()?;
            boundaries.extend_from_slice(&piece.boundaries[1..]);
        }
        Some(Partitioning { boundaries })
    }

    /// Keeps every `step`-th boundary: partition `i` of the result is
    /// partitions `i * step .. (i + 1) * step` of `self`, so
    /// `coarse.index_of(t) == self.index_of(t) / step` for every `t`.
    /// `None` unless `step` divides [`Partitioning::len`].
    pub fn coarsen(&self, step: usize) -> Option<Partitioning> {
        if !self.len().is_multiple_of(step) {
            return None;
        }
        let boundaries = self.boundaries.iter().step_by(step).copied().collect();
        Some(Partitioning { boundaries })
    }

    /// Number of partition-intervals `l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Always false (a valid partitioning has at least one partition).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The covered time range `[t_0, t_n)` as an inclusive interval on the
    /// last representable point `[t_0, t_n - 1]`.
    pub fn range(&self) -> Interval {
        Interval::new_unchecked(self.boundaries[0], *self.boundaries.last().unwrap() - 1)
    }

    /// The partition-interval `p_i`, as a closed interval over the points it
    /// contains: `[b_i, b_{i+1} - 1]`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn partition(&self, i: PartitionIndex) -> Interval {
        assert!(i < self.len(), "partition index {i} out of range");
        Interval::new_unchecked(self.boundaries[i], self.boundaries[i + 1] - 1)
    }

    /// The index of the partition containing time point `t` (clamped to the
    /// first/last partition for out-of-range points).
    #[inline]
    pub fn index_of(&self, t: Time) -> PartitionIndex {
        // partition_point returns the number of boundaries <= t; partition i
        // covers [b_i, b_{i+1}) so the index is that count minus one.
        let pos = self.boundaries.partition_point(|&b| b <= t);
        pos.saturating_sub(1).min(self.len() - 1)
    }

    /// Whether interval `u` has at least one point in common with
    /// partition-interval `i`.
    pub fn intersects_partition(&self, u: Interval, i: PartitionIndex) -> bool {
        u.intersects(self.partition(i))
    }

    /// Whether interval `u` *crosses the right boundary* of partition `i`
    /// (paper Section 5.3, condition B1): the end point of `u` lies in a
    /// partition following `i`.
    pub fn crosses_right(&self, u: Interval, i: PartitionIndex) -> bool {
        u.end() >= self.boundaries[i + 1]
    }

    /// Whether interval `u` *crosses the left boundary* of partition `i`
    /// (paper Section 5.3, condition B2): the start point of `u` lies in a
    /// partition preceding `i`.
    pub fn crosses_left(&self, u: Interval, i: PartitionIndex) -> bool {
        u.start() < self.boundaries[i]
    }

    /// Iterates over all partition indices.
    pub fn indices(&self) -> std::ops::Range<PartitionIndex> {
        0..self.len()
    }

    /// The raw boundaries (length `len() + 1`).
    pub fn boundaries(&self) -> &[Time] {
        &self.boundaries
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P(")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{}, {})", self.boundaries[i], self.boundaries[i + 1])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_boundaries_validates() {
        assert!(Partitioning::from_boundaries(vec![0]).is_err());
        assert!(Partitioning::from_boundaries(vec![0, 0]).is_err());
        assert!(Partitioning::from_boundaries(vec![0, 5, 3]).is_err());
        let p = Partitioning::from_boundaries(vec![0, 5, 9]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn equi_width_divides_exactly() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        assert_eq!(p.boundaries(), &[0, 10, 20, 30, 40]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn equi_width_spreads_remainder() {
        let p = Partitioning::equi_width(0, 10, 3).unwrap();
        // 10 = 4 + 3 + 3
        assert_eq!(p.boundaries(), &[0, 4, 7, 10]);
    }

    #[test]
    fn equi_width_rejects_degenerate() {
        assert!(Partitioning::equi_width(5, 5, 3).is_err());
        assert!(Partitioning::equi_width(0, 10, 0).is_err());
        assert!(Partitioning::equi_width(0, 2, 3).is_err());
    }

    #[test]
    fn equi_width_spans_the_whole_time_domain() {
        let p = Partitioning::equi_width(Time::MIN, Time::MAX, 3).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.boundaries()[0], Time::MIN);
        assert_eq!(p.boundaries()[3], Time::MAX);
        assert_eq!(p.index_of(0), 1);
        assert_eq!(p.index_of(Time::MAX), 2);
        // Equi-depth falls back to it without samples.
        assert_eq!(
            Partitioning::equi_depth(Time::MIN, Time::MAX, 3, &[]),
            Ok(p)
        );
    }

    #[test]
    fn index_of_half_open_semantics() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        assert_eq!(p.index_of(0), 0);
        assert_eq!(p.index_of(9), 0);
        assert_eq!(p.index_of(10), 1); // boundary belongs to the right partition
        assert_eq!(p.index_of(39), 3);
    }

    #[test]
    fn index_of_clamps() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        assert_eq!(p.index_of(-5), 0);
        assert_eq!(p.index_of(40), 3);
        assert_eq!(p.index_of(1000), 3);
    }

    #[test]
    fn partition_as_closed_interval() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        assert_eq!(p.partition(0), Interval::new(0, 9).unwrap());
        assert_eq!(p.partition(3), Interval::new(30, 39).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_out_of_range_panics() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        let _ = p.partition(4);
    }

    #[test]
    fn crossing_boundaries() {
        let p = Partitioning::equi_width(0, 40, 4).unwrap();
        let u = Interval::new(5, 15).unwrap(); // spans p0 and p1
        assert!(p.crosses_right(u, 0));
        assert!(!p.crosses_right(u, 1));
        assert!(p.crosses_left(u, 1));
        assert!(!p.crosses_left(u, 0));
        // Interval ending exactly on a boundary point (10 is in p1).
        let v = Interval::new(0, 10).unwrap();
        assert!(p.crosses_right(v, 0));
        let w = Interval::new(0, 9).unwrap();
        assert!(!p.crosses_right(w, 0));
    }

    #[test]
    fn equi_depth_balances_skewed_starts() {
        // Heavily skewed starts: 90% in [0, 10), 10% in [10, 100).
        let mut starts: Vec<Time> = (0..900).map(|i| i % 10).collect();
        starts.extend((0..100).map(|i| 10 + (i * 90) / 100));
        let p = Partitioning::equi_depth(0, 100, 8, &starts).unwrap();
        // Each partition should hold a similar share of the starts.
        let mut per = vec![0usize; p.len()];
        for &s in &starts {
            per[p.index_of(s)] += 1;
        }
        let max = *per.iter().max().unwrap() as f64;
        let mean = starts.len() as f64 / p.len() as f64;
        assert!(max / mean < 2.5, "per-partition counts {per:?}");
        // Equi-width, for contrast, piles most starts into partition 0.
        let w = Partitioning::equi_width(0, 100, 8).unwrap();
        let first = starts.iter().filter(|&&s| w.index_of(s) == 0).count();
        assert!(first > starts.len() * 8 / 10);
    }

    #[test]
    fn equi_depth_collapses_duplicate_quantiles() {
        // All starts identical: only one usable boundary; still covers the
        // range and stays valid.
        let starts = vec![5; 50];
        let p = Partitioning::equi_depth(0, 100, 8, &starts).unwrap();
        assert!(p.len() <= 2);
        assert_eq!(p.index_of(0), 0);
        assert_eq!(p.index_of(99), p.len() - 1);
    }

    #[test]
    fn equi_depth_without_samples_falls_back_to_equi_width() {
        let p = Partitioning::equi_depth(0, 40, 4, &[]).unwrap();
        assert_eq!(
            p.boundaries(),
            Partitioning::equi_width(0, 40, 4).unwrap().boundaries()
        );
    }

    #[test]
    fn refine_cuts_every_partition_and_keeps_its_boundaries() {
        let p = Partitioning::from_boundaries(vec![0, 10, 13, 40]).unwrap();
        let f = p.refine(3).unwrap();
        assert_eq!(f.boundaries(), &[0, 4, 7, 10, 11, 12, 13, 22, 31, 40]);
        assert_eq!(p.refine(1), Some(p.clone()));
        // The middle partition is three ticks wide: four parts do not fit.
        assert_eq!(p.refine(4), None);
        assert_eq!(p.refine(0), None);
    }

    #[test]
    fn refine_and_coarsen_at_the_ends_of_the_time_domain() {
        let p = Partitioning::equi_width(Time::MIN, Time::MAX, 3).unwrap();
        let f = p.refine(4).unwrap();
        assert_eq!(f.len(), 12);
        assert_eq!(
            (f.boundaries()[0], f.boundaries()[12]),
            (Time::MIN, Time::MAX)
        );
        for (i, &b) in p.boundaries().iter().enumerate() {
            assert_eq!(f.boundaries()[4 * i], b);
        }
        assert_eq!(f.coarsen(4), Some(p.clone()));
        assert_eq!(f.coarsen(12).unwrap().boundaries(), &[Time::MIN, Time::MAX]);
        assert_eq!(f.coarsen(5), None);
        assert_eq!(f.coarsen(0), None);
        for t in [Time::MIN, Time::MIN + 1, -1, 0, 1, Time::MAX - 1, Time::MAX] {
            for step in [1, 2, 3, 4, 6, 12] {
                let coarse = f.coarsen(step).unwrap();
                assert_eq!(coarse.index_of(t), f.index_of(t) / step, "{t} {step}");
            }
        }
        // One-tick partitions cannot be cut.
        let tiny = Partitioning::equi_width(Time::MAX - 4, Time::MAX, 4).unwrap();
        assert_eq!(tiny.refine(2), None);
        assert_eq!(tiny.refine(1), Some(tiny));
    }

    #[test]
    fn index_of_agrees_with_partition_membership() {
        let p = Partitioning::equi_width(3, 97, 7).unwrap();
        for t in 3..97 {
            let i = p.index_of(t);
            assert!(
                p.partition(i).contains_point(t),
                "point {t} not in partition {i} = {}",
                p.partition(i)
            );
        }
    }
}
