//! The reducer-side candidate index.
//!
//! Every single-attribute reducer drains its `ValueStream` once (in
//! emission order — the stream may be backed by the in-memory merge or by
//! spilled Dfs runs, the reducer cannot tell) into per-relation
//! [`Candidates`] lists, which the kernels of [`crate::kernel`] join: they
//! enumerate the combinations that satisfy all query conditions, keep the
//! ones the reducer *owns* (the per-algorithm duplicate-elimination rule),
//! and emit them. The binding order, the level program and the window
//! helpers live in the kernel with the one descent that uses them.

use ij_interval::{Interval, TupleId};

/// Bits per radix digit of [`sort_by_start`]: a 2 048-entry histogram.
const RADIX_BITS: u32 = 11;
/// The most radix passes [`sort_by_start`] makes: a list whose start span
/// needs more than `RADIX_BITS × RADIX_PASSES` = 44 bits (the `i64`
/// extremes) takes the comparison sort.
const RADIX_PASSES: u32 = 4;
/// Below this length the comparison sort beats the histogram set-up.
const RADIX_MIN_LEN: usize = 256;

/// Per-relation candidate lists for a single-attribute join, sorted by
/// interval start point.
#[derive(Debug, Clone)]
pub struct Candidates {
    /// Every relation's list, in relation order.
    pub(crate) lists: Vec<Vec<(Interval, TupleId)>>,
    sorted: bool,
}

impl Candidates {
    /// Empty lists for `m` relations.
    pub fn new(m: usize) -> Self {
        Candidates {
            lists: vec![Vec::new(); m],
            sorted: false,
        }
    }

    /// Adds a candidate to relation `rel`.
    pub fn push(&mut self, rel: usize, iv: Interval, tid: TupleId) {
        self.lists[rel].push((iv, tid));
        self.sorted = false;
    }

    /// Sorts all lists by (start, tid); must be called before joining.
    pub fn finish(&mut self) {
        for l in &mut self.lists {
            sort_by_start(l);
            debug_assert!(
                (l.windows(2)).all(|w| (w[0].0.start(), w[0].1) <= (w[1].0.start(), w[1].1)),
                "a finished list is sorted by (start, tid)"
            );
        }
        self.sorted = true;
    }

    /// Number of candidates for relation `rel`.
    pub fn len(&self, rel: usize) -> usize {
        self.lists[rel].len()
    }

    /// Whether any relation has no candidates (join output is then empty).
    pub fn any_empty(&self) -> bool {
        self.lists.iter().any(Vec::is_empty)
    }

    /// The sorted list for `rel`.
    pub fn list(&self, rel: usize) -> &[(Interval, TupleId)] {
        &self.lists[rel]
    }

    /// Whether [`finish`](Candidates::finish) has been called since the
    /// last mutation.
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }
}

/// Sorts `list` by `(start, tid)`: a stable LSD radix sort on
/// `start − min` in [`RADIX_BITS`]-bit digits, skipping a digit every
/// entry shares, then each run of equal starts by tid. A short list, or
/// one whose starts span more than [`RADIX_PASSES`] digits, takes the
/// comparison sort instead.
fn sort_by_start(list: &mut Vec<(Interval, TupleId)>) {
    let starts = list.iter().map(|(iv, _)| iv.start());
    let (Some(min), Some(max)) = (starts.clone().min(), starts.max()) else {
        return;
    };
    let bits = u64::BITS - max.abs_diff(min).leading_zeros();
    if list.len() < RADIX_MIN_LEN || bits > RADIX_BITS * RADIX_PASSES {
        list.sort_unstable_by_key(|(iv, tid)| (iv.start(), *tid));
        return;
    }
    let passes = bits.div_ceil(RADIX_BITS) as usize;
    let mask = (1 << RADIX_BITS) - 1;
    let digit = |(iv, _): &(Interval, TupleId), pass: usize| {
        (iv.start().abs_diff(min) >> (pass as u32 * RADIX_BITS)) as usize & mask
    };
    let mut counts = vec![[0usize; 1 << RADIX_BITS]; passes];
    for e in list.iter() {
        for (pass, c) in counts.iter_mut().enumerate() {
            c[digit(e, pass)] += 1;
        }
    }
    let mut buf = list.clone();
    for (pass, c) in counts.iter_mut().enumerate() {
        if c[digit(&list[0], pass)] == list.len() {
            continue;
        }
        let mut at = 0;
        for n in c.iter_mut() {
            (*n, at) = (at, at + *n);
        }
        for e in list.iter() {
            let d = digit(e, pass);
            buf[c[d]] = *e;
            c[d] += 1;
        }
        std::mem::swap(list, &mut buf);
    }
    for run in list.chunk_by_mut(|a, b| a.0.start() == b.0.start()) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&(_, tid)| tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `finish` against the comparison sort: lengths around the short-list
    /// cutoff, starts spanning up to just under, at and past the radix
    /// passes' 44 bits and over the whole `i64` range, few distinct starts
    /// (long runs of equal starts) with the tids pushed in random order.
    #[test]
    fn finish_sorts_like_the_comparison_sort() {
        let limit = 1i64 << (RADIX_BITS * RADIX_PASSES);
        let spans = [0, 1, 2_047, 2_048, 1 << 22, limit - 1, limit, limit + 1];
        let mut radix_runs = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for len in [0, 1, 2, 255, 256, 257, 3_000] {
                for span in spans.iter().map(|&s| Some(s)).chain([None]) {
                    // `None`: the whole `i64` range, both extremes present.
                    let base = match span {
                        Some(s) => rng.gen_range(i64::MIN..=i64::MAX - s),
                        None => i64::MIN,
                    };
                    let distinct = if seed % 2 == 0 { len.max(1) } else { 7 };
                    let picks: Vec<i64> = (0..distinct)
                        .map(|i| match (span, i) {
                            (_, 0) => base,
                            (Some(s), 1) => base + s,
                            (None, 1) => i64::MAX,
                            (Some(s), _) => base + rng.gen_range(0..=s),
                            (None, _) => rng.gen(),
                        })
                        .collect();
                    let mut tids: Vec<TupleId> = (0..len as TupleId).collect();
                    for i in (1..tids.len()).rev() {
                        tids.swap(i, rng.gen_range(0..=i));
                    }
                    let mut c = Candidates::new(1);
                    for tid in tids {
                        let s = picks[rng.gen_range(0..picks.len())];
                        let e = s.saturating_add(rng.gen_range(0..50));
                        c.push(0, Interval::new(s, e).unwrap(), tid);
                    }
                    let mut want = c.list(0).to_vec();
                    want.sort_unstable_by_key(|(iv, tid)| (iv.start(), *tid));
                    c.finish();
                    assert_eq!(c.list(0), want, "seed {seed} len {len} span {span:?}");
                    radix_runs +=
                        usize::from(len >= RADIX_MIN_LEN && span.is_some_and(|s| s < limit));
                }
            }
        }
        assert!(radix_runs > 0);
    }
}
