//! The `holds`-based semantic reference: windowed backtracking, the
//! original reducer join, kept out of dispatch.
//!
//! Each level binary-searches the start window compatible with the bound
//! neighbors (via [`ij_interval::AllenPredicate::right_start_bounds`]) and
//! re-checks every condition with [`ij_interval::AllenPredicate::holds`]
//! per candidate: the engine of `oracle::oracle_join` and the baseline
//! the equivalence tests and `kernel` benches check the kernels against.
//! It shares their binding order, level program ([`Compiled`]), bound
//! tightening ([`super::ranges`]), `window_by` and [`Candidates::finish`]
//! (not their end views or sweeps); a mutant of `tighten_lower` failed 43
//! workspace tests, among them the brute-force test below and the pins.

use super::ranges::{tighten_lower, tighten_upper};
use super::window::window_by;
use super::{binding_order, slot_conditions, Compiled};
use crate::executor::Candidates;
use ij_interval::{Interval, TupleId};
use ij_query::JoinQuery;
use std::ops::Bound;

/// Enumerates every binding of `cands` satisfying all conditions of `q`,
/// in binding order, into `on_output`; returns the candidates examined.
/// Precondition: any single-attribute query, any Allen condition set.
///
/// # Panics
/// Panics if `cands` was not [`finish`](Candidates::finish)ed.
pub fn reference_join(
    q: &JoinQuery,
    cands: &Candidates,
    mut on_output: impl FnMut(&[(Interval, TupleId)]),
) -> u64 {
    assert!(
        cands.is_sorted(),
        "Candidates::finish must be called before joining"
    );
    if cands.any_empty() {
        return 0;
    }
    let compiled = Compiled::new(binding_order(q, |r| cands.len(r)), &slot_conditions(q), &[]);
    let mut assignment = vec![(Interval::point(0), 0); compiled.order.len()];
    let mut work = 0;
    descend(
        cands,
        &compiled,
        0,
        &mut assignment,
        &mut on_output,
        &mut work,
    );
    work
}

fn descend(
    cands: &Candidates,
    compiled: &Compiled,
    level: usize,
    assignment: &mut Vec<(Interval, TupleId)>,
    emit: &mut impl FnMut(&[(Interval, TupleId)]),
    work: &mut u64,
) {
    if level == compiled.order.len() {
        emit(assignment);
        return;
    }
    let rel = compiled.order[level];
    let checks = &compiled.checks[level];
    // Window bounds from every condition to an already-bound neighbor.
    let mut lo = Bound::Unbounded;
    let mut hi = Bound::Unbounded;
    for &((other, _), pred, _) in checks {
        let (l, h) = pred.right_start_bounds(assignment[other].0);
        lo = tighten_lower(lo, l);
        hi = tighten_upper(hi, h);
    }
    let list = cands.list(rel);
    let (from, to) = window_by(list, |(iv, _)| iv.start(), lo, hi);
    *work += (to - from) as u64;
    'candidates: for &(iv, tid) in &list[from..to] {
        // Full predicate check against all bound neighbors.
        for &((other, _), pred, _) in checks {
            if !pred.holds(assignment[other].0, iv) {
                continue 'candidates;
            }
        }
        assignment[rel] = (iv, tid);
        descend(cands, compiled, level + 1, assignment, emit, work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{execute, KernelConfig};
    use ij_interval::AllenPredicate::{self, *};

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    /// Brute force: full cross product filtered by the query.
    fn brute(q: &JoinQuery, cands: &Candidates) -> Vec<Vec<TupleId>> {
        let m = q.num_relations() as usize;
        let mut out = Vec::new();
        let mut idx = vec![0usize; m];
        loop {
            let ivs: Vec<Interval> = (0..m).map(|r| cands.list(r)[idx[r]].0).collect();
            if q.satisfied_by(&ivs) {
                out.push((0..m).map(|r| cands.list(r)[idx[r]].1).collect());
            }
            // Odometer.
            let mut k = 0;
            loop {
                idx[k] += 1;
                if idx[k] < cands.len(k) {
                    break;
                }
                idx[k] = 0;
                k += 1;
                if k == m {
                    out.sort();
                    return out;
                }
            }
        }
    }

    fn tids(a: &[(Interval, TupleId)]) -> Vec<TupleId> {
        a.iter().map(|(_, t)| *t).collect()
    }

    /// The reference's sorted result set, checked against the dispatched
    /// kernel's on the way.
    fn run(q: &JoinQuery, cands: &Candidates) -> Vec<Vec<TupleId>> {
        let mut got = Vec::new();
        reference_join(q, cands, |a| got.push(tids(a)));
        got.sort();
        let mut dispatched = Vec::new();
        execute(
            q,
            cands,
            &KernelConfig::serial(),
            |_| true,
            |a| dispatched.push(tids(a)),
        );
        dispatched.sort();
        assert_eq!(got, dispatched, "reference != dispatched kernel for {q}");
        got
    }

    #[test]
    fn matches_brute_force_on_chain() {
        let q = JoinQuery::chain(&[Overlaps, Contains]).unwrap();
        let mut c = Candidates::new(3);
        for (i, ivv) in [iv(0, 10), iv(4, 9), iv(20, 30)].into_iter().enumerate() {
            c.push(0, ivv, i as u32);
        }
        for (i, ivv) in [iv(5, 15), iv(8, 40), iv(25, 60)].into_iter().enumerate() {
            c.push(1, ivv, i as u32);
        }
        for (i, ivv) in [iv(9, 12), iv(30, 39), iv(26, 50)].into_iter().enumerate() {
            c.push(2, ivv, i as u32);
        }
        c.finish();
        assert_eq!(run(&q, &c), brute(&q, &c));
        assert!(!run(&q, &c).is_empty());
    }

    #[test]
    fn matches_brute_force_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        // Every Allen predicate as a 2-way join, then multi-way chains.
        let pairs = AllenPredicate::ALL.map(|p| vec![p]);
        for preds in pairs.into_iter().chain([
            vec![Overlaps, Overlaps],
            vec![Before, Before],
            vec![Overlaps, Before],
            vec![Contains, Meets],
            vec![Equals, Starts],
            vec![Finishes, OverlappedBy],
        ]) {
            let q = JoinQuery::chain(&preds).unwrap();
            for _ in 0..20 {
                let m = q.num_relations() as usize;
                let mut c = Candidates::new(m);
                for r in 0..m {
                    for t in 0..8u32 {
                        let s = rng.gen_range(0..40);
                        let e = s + rng.gen_range(0..15);
                        c.push(r, iv(s, e), t);
                    }
                }
                c.finish();
                assert_eq!(run(&q, &c), brute(&q, &c), "preds {preds:?}");
            }
            // An empty relation on either side joins nothing.
            for empty in 0..q.num_relations() as usize {
                let mut c = Candidates::new(q.num_relations() as usize);
                for r in (0..q.num_relations() as usize).filter(|&r| r != empty) {
                    c.push(r, iv(0, 5), 0);
                }
                c.finish();
                assert!(run(&q, &c).is_empty(), "preds {preds:?}, R{empty} empty");
            }
        }
    }

    #[test]
    fn empty_relation_short_circuits() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut c = Candidates::new(2);
        c.push(0, iv(0, 10), 0);
        c.finish();
        assert_eq!(reference_join(&q, &c, |_| panic!("no outputs")), 0);
    }

    #[test]
    #[should_panic(expected = "finish")]
    fn unsorted_candidates_panic() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut c = Candidates::new(2);
        c.push(0, iv(0, 10), 0);
        c.push(1, iv(5, 15), 0);
        reference_join(&q, &c, |_| {});
    }

    #[test]
    fn windows_prune_work() {
        // 1000 R2 candidates far to the right; an overlaps window from a
        // short R1 interval must not scan them all.
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut c = Candidates::new(2);
        c.push(0, iv(0, 10), 0);
        for t in 0..1000u32 {
            c.push(1, iv(1000 + t as i64, 1010 + t as i64), t);
        }
        c.push(1, iv(5, 20), 1000);
        c.finish();
        let mut outs = 0;
        let work = reference_join(&q, &c, |_| outs += 1);
        assert_eq!(outs, 1);
        assert!(
            work < 20,
            "work = {work}, window should exclude the far tail"
        );
    }
}
