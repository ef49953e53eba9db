//! The generic single-node oracle.

use crate::executor::Candidates;
use crate::input::JoinInput;
use crate::kernel::backtrack::reference_join;
use crate::output::OutputTuple;
use ij_interval::Tuple;
use ij_query::{JoinQuery, QueryClass};

/// Computes the exact join output on a single node, sorted canonically.
///
/// Single-attribute queries run the `holds`-based windowed-backtracking
/// reference ([`reference_join`]) over the *whole* input — never the
/// dispatched kernels' endpoint ranges or sweeps (the steps it shares are
/// listed in `kernel::backtrack`) — so routing bugs manifest as missing
/// or duplicated tuples.
/// Multi-attribute queries take the definition itself: every combination
/// of the cross product that `satisfied_by_tuples` accepts — quadratic and
/// worse, for test-sized inputs only, and sharing no code with Gen-Matrix.
pub fn oracle_join(q: &JoinQuery, input: &JoinInput) -> Vec<OutputTuple> {
    let mut out: Vec<OutputTuple> = Vec::new();
    if q.class() == QueryClass::General {
        out = cross_product(q, input);
    } else {
        let m = q.num_relations() as usize;
        let mut cands = Candidates::new(m);
        for (r, rel) in input.relations().iter().enumerate() {
            for t in rel.tuples() {
                cands.push(r, t.attr(0), t.id);
            }
        }
        cands.finish();
        reference_join(q, &cands, |a| {
            out.push(a.iter().map(|(_, tid)| *tid).collect());
        });
    }
    out.sort_unstable();
    out
}

/// Every tuple combination of `input` that `satisfied_by_tuples` accepts,
/// by an odometer over the cross product: the definition of the join.
fn cross_product(q: &JoinQuery, input: &JoinInput) -> Vec<OutputTuple> {
    let rels = input.relations();
    let mut out = Vec::new();
    if rels.iter().any(|r| r.is_empty()) {
        return out;
    }
    let mut pick = vec![0usize; rels.len()];
    loop {
        let tuples: Vec<&Tuple> = (pick.iter().zip(rels))
            .map(|(&i, r)| &r.tuples()[i])
            .collect();
        if q.satisfied_by_tuples(&tuples) {
            out.push(tuples.iter().map(|t| t.id).collect());
        }
        // Odometer step over the cross product.
        let mut r = rels.len();
        loop {
            if r == 0 {
                return out;
            }
            r -= 1;
            pick[r] += 1;
            if pick[r] < rels[r].len() {
                break;
            }
            pick[r] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_interval::{Interval, Relation};

    fn rel(ivs: &[(i64, i64)]) -> Relation {
        Relation::from_intervals("R", ivs.iter().map(|&(s, e)| Interval::new(s, e).unwrap()))
    }

    #[test]
    fn two_way_overlap() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                rel(&[(0, 10), (20, 25)]),
                rel(&[(5, 15), (22, 30), (40, 50)]),
            ],
        )
        .unwrap();
        assert_eq!(oracle_join(&q, &input), vec![vec![0, 0], vec![1, 1]]);
    }

    #[test]
    fn empty_when_no_matches() {
        let q = JoinQuery::chain(&[Before]).unwrap();
        let input = JoinInput::bind_owned(&q, vec![rel(&[(10, 20)]), rel(&[(0, 5)])]).unwrap();
        assert!(oracle_join(&q, &input).is_empty());
    }

    #[test]
    fn intro_contains_query() {
        // The introduction's pollution query: u2 and u3 contained in u1.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Contains, 1),
                ij_query::Condition::whole(0, Contains, 2),
            ],
        )
        .unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                rel(&[(0, 100), (200, 210)]),
                rel(&[(10, 20), (205, 206)]),
                rel(&[(50, 60)]),
            ],
        )
        .unwrap();
        assert_eq!(oracle_join(&q, &input), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn self_join_star() {
        // R overlaps R and R overlaps R (Table 2's star query) via three
        // logical bindings of the same relation.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Overlaps, 2),
            ],
        )
        .unwrap();
        let data = std::sync::Arc::new(rel(&[(0, 10), (5, 15), (12, 20)]));
        let input = JoinInput::bind_self_join(&q, data).unwrap();
        let out = oracle_join(&q, &input);
        // 0 ov 1, 1 ov 2 -> (0,1,2) only.
        assert_eq!(out, vec![vec![0, 1, 2]]);
    }
}
