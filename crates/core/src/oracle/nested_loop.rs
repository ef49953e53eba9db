//! The generic single-node oracle.

use crate::executor::{join_tuples, Candidates};
use crate::input::JoinInput;
use crate::kernel::backtrack::reference_join;
use crate::output::OutputTuple;
use ij_interval::TupleId;
use ij_query::{JoinQuery, QueryClass};

/// Computes the exact join output on a single node, sorted canonically.
///
/// Single-attribute queries run the `holds`-based windowed-backtracking
/// reference ([`reference_join`]) over the *whole* input — never the
/// dispatched reducer kernels, their endpoint ranges or their sweeps, so a
/// kernel bug cannot hide in a step shared with what it is checked
/// against, and routing bugs manifest as missing or duplicated tuples.
/// Multi-attribute queries use the general tuple executor. Despite the
/// module name neither is a naive quadratic loop.
pub fn oracle_join(q: &JoinQuery, input: &JoinInput) -> Vec<OutputTuple> {
    let mut out: Vec<OutputTuple> = Vec::new();
    if q.class() == QueryClass::General {
        let lists: Vec<Vec<(TupleId, Vec<ij_interval::Interval>)>> = input
            .relations()
            .iter()
            .map(|r| r.tuples().iter().map(|t| (t.id, t.attrs.clone())).collect())
            .collect();
        join_tuples(
            q,
            &lists,
            |_| true,
            |a| {
                out.push(a.iter().map(|(tid, _)| *tid).collect());
            },
        );
    } else {
        let m = q.num_relations() as usize;
        let mut cands = Candidates::new(m);
        for (r, rel) in input.relations().iter().enumerate() {
            for t in rel.tuples() {
                cands.push(r, t.interval(), t.id);
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

    /// Every tuple combination of `input` (no relation empty) that
    /// `satisfied_by_tuples` accepts — the definition of the join, sharing
    /// no code with `join_tuples`.
    fn brute_force(q: &JoinQuery, input: &JoinInput) -> Vec<OutputTuple> {
        let rels = input.relations();
        let mut out = Vec::new();
        let mut pick = vec![0usize; rels.len()];
        loop {
            let tuples: Vec<&ij_interval::Tuple> = pick
                .iter()
                .zip(rels)
                .map(|(&i, r)| &r.tuples()[i])
                .collect();
            if q.satisfied_by_tuples(&tuples) {
                out.push(tuples.iter().map(|t| t.id).collect());
            }
            // Odometer step over the cross product.
            let mut r = rels.len();
            loop {
                if r == 0 {
                    out.sort_unstable();
                    return out;
                }
                r -= 1;
                pick[r] += 1;
                if pick[r] < rels[r].tuples().len() {
                    break;
                }
                pick[r] = 0;
            }
        }
    }

    #[test]
    fn general_class_matches_brute_force_cross_product() {
        use ij_query::query::RelationMeta;
        use ij_query::{AttrRef, Condition};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let meta = |name: &str, attrs: &[&str]| RelationMeta {
            name: name.into(),
            attr_names: attrs.iter().map(|a| a.to_string()).collect(),
        };
        // Q5 (Section 9.1): one interval and one or two real-valued
        // attributes per relation.
        let q5 = JoinQuery::with_relations(
            vec![
                meta("R1", &["I", "A"]),
                meta("R2", &["I", "B"]),
                meta("R3", &["I", "A", "B"]),
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
                Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
            ],
        )
        .unwrap();
        // Mixed: an interval attribute compared with a real-valued one,
        // and a less-than between two real-valued attributes.
        let mixed = JoinQuery::with_relations(
            vec![meta("S", &["I", "x"]), meta("T", &["J", "y"])],
            vec![
                Condition::new(AttrRef::new(0, 0), Contains, AttrRef::new(1, 1)),
                Condition::new(AttrRef::new(0, 1), Before, AttrRef::new(1, 1)),
                Condition::new(AttrRef::new(0, 0), OverlappedBy, AttrRef::new(1, 0)),
            ],
        )
        .unwrap();
        for (q, seeds) in [(&q5, 0..6u64), (&mixed, 6..12u64)] {
            assert_eq!(q.class(), QueryClass::General);
            let mut total = 0;
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let rels = q
                    .relations()
                    .iter()
                    .map(|m| {
                        Relation::from_rows(
                            m.name.clone(),
                            (0..rng.gen_range(1..14usize)).map(|_| {
                                let s = rng.gen_range(0..60i64);
                                let mut row =
                                    vec![Interval::new(s, s + rng.gen_range(0..25)).unwrap()];
                                row.resize_with(m.attr_names.len(), || {
                                    Interval::point(rng.gen_range(0..5))
                                });
                                row
                            }),
                        )
                    })
                    .collect();
                let input = JoinInput::bind_owned(q, rels).unwrap();
                let want = brute_force(q, &input);
                assert_eq!(oracle_join(q, &input), want, "{q} (seed {seed})");
                total += want.len();
            }
            assert!(total > 0, "{q}: workloads join nothing");
        }
    }
}
