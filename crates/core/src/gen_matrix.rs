//! Gen-Matrix (paper Section 9.1) — multi-attribute interval joins.
//!
//! Generalizes All-Seq-Matrix to ⟨relation, attribute⟩ vertices: the
//! colocation components of the *attribute-level* join graph become the
//! matrix dimensions, each component's colocation query is marked with
//! RCCIS over that attribute's values, and whole tuples are routed to the
//! cells satisfying condition E2 for *every* join attribute simultaneously.
//! Real-valued attributes ride along as length-0 intervals, turning
//! equality into Allen *equals* and `<`/`>` into *before*/*after*.
//!
//! Two MR cycles: attribute-level marking — the component-matrix mark
//! stage with one single-attribute relation per vertex — then the matrix
//! join.

use crate::algorithm::{empty_output, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::component_matrix::{ComponentMatrix, Flags, MARKED};
use crate::executor::binding_order;
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::rccis::marking::MarkOptions;
use crate::records::{IvRec, OutRec, TupleRec};
use ij_interval::{Interval, MapOp, Partitioning, RelId, TupleId};
use ij_mapreduce::{Emitter, Engine, JobChain, JobMetrics, ReduceCtx, ValueStream};
use ij_query::{AttrRef, Components, Condition, JoinQuery};

/// The Gen-Matrix algorithm.
#[derive(Debug, Clone)]
pub struct GenMatrix {
    /// Partitions per matrix dimension (`o`; the paper uses 5 for Q5,
    /// giving 375 consistent of 625 cells).
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl GenMatrix {
    /// Gen-Matrix with `o = per_dim`, materializing output.
    pub fn new(per_dim: usize) -> Self {
        GenMatrix {
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for GenMatrix {
    fn name(&self) -> &'static str {
        "Gen-Matrix"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        let order = query.start_order();
        if order.contradictory() {
            return Ok(empty_output(self.mode));
        }
        let comps = query.components();
        let constraints = order.component_constraints(&comps);
        // All dimensions span the same temporal range (Section 7.1).
        let part = RunArtifacts::partition_span(input.span_all_attrs(query), self.per_dim)?;
        let space = CellSpace::new(comps.len(), self.per_dim, constraints.clone())?;
        let mut chain = JobChain::new();

        // ---- Cycle 1: attribute-level replication marking -------------------
        // The join vertices, numbered component by component.
        let vertices: Vec<(usize, AttrRef)> = (comps.components.iter())
            .flat_map(|c| c.vertices.iter().map(move |&v| (c.id, v)))
            .collect();
        let (flags, metrics) =
            mark_vertices(query, &comps, &vertices, constraints, &part, input, engine)?;
        chain.push(metrics);
        let replicated = flags.iter().flatten().filter(|&&f| f).count() as u64;

        // ---- Cycle 2: matrix join -------------------------------------------
        // Per relation: its join vertices as (attr, component, vertex id).
        let rel_vertices: Vec<Vec<(u16, usize, usize)>> = (0..query.num_relations())
            .map(|r| {
                (vertices.iter().enumerate())
                    .filter(|(_, (_, v))| v.rel == RelId(r))
                    .map(|(id, &(k, v))| (v.attr, k, id))
                    .collect()
            })
            .collect();
        // Flatten tuples once.
        let tuples: Vec<TupleRec> = (input.relations().iter().enumerate())
            .flat_map(|(r, rel)| {
                rel.tuples().iter().map(move |t| TupleRec {
                    rel: RelId(r as u16),
                    tid: t.id,
                    attrs: t.attrs.clone(),
                })
            })
            .collect();

        let mode = self.mode;
        let m = query.num_relations() as usize;
        let per_dim = self.per_dim;
        let out = engine.run_job(
            "gen-matrix-join",
            &tuples,
            |rec: &TupleRec, em: &mut Emitter<TupleRec>| {
                // Allowed coordinate ranges per dimension touched by this
                // relation; untouched dimensions are free.
                let mut lo = vec![0usize; space.dims()];
                let mut hi = vec![per_dim - 1; space.dims()];
                for &(attr, k, vertex) in &rel_vertices[rec.rel.idx()] {
                    let qidx = part.index_of(rec.attrs[attr as usize].start());
                    lo[k] = lo[k].max(qidx);
                    if !flags[vertex][rec.tid as usize] {
                        hi[k] = hi[k].min(qidx);
                    }
                    if lo[k] > hi[k] {
                        return; // contradictory attribute placement
                    }
                }
                // Enumerate the coordinate box, keep consistent cells.
                let mut coords = lo.clone();
                'outer: loop {
                    if space.is_consistent(&coords) {
                        em.emit(space.encode(&coords), rec.clone());
                    }
                    let mut d = 0;
                    loop {
                        coords[d] += 1;
                        if coords[d] <= hi[d] {
                            break;
                        }
                        coords[d] = lo[d];
                        d += 1;
                        if d == coords.len() {
                            break 'outer;
                        }
                    }
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<TupleRec>, out: &mut Vec<OutRec>| {
                let coords = space.decode(ctx.key);
                let mut lists: Vec<Vec<(TupleId, Vec<Interval>)>> = vec![Vec::new(); m];
                for v in values.by_ref() {
                    lists[v.rel.idx()].push((v.tid, v.attrs));
                }
                let mut found = OutRec::new(mode, m);
                let work = join_tuples(
                    query,
                    &lists,
                    |a: &[(TupleId, &[Interval])]| owns_tuple_assignment(&comps, &part, &coords, a),
                    |a| found.push_row(a.iter().map(|&(t, _)| t)),
                );
                ctx.add_work(work);
                found.emit_into(out);
            },
        )?;
        chain.push(out.metrics);

        let mut result = JoinOutput::from_records(self.mode, out.outputs, chain);
        result.stats.replicated_intervals = Some(replicated);
        result.stats.consistent_cells =
            Some((space.consistent_cells().len() as u64, space.total_cells()));
        Ok(result)
    }
}

/// The attribute-level marking cycle: the component-matrix mark stage on a
/// query with one single-attribute relation per vertex of `vertices` —
/// `query`'s conditions between vertex ids — and one group per component,
/// marked when it has several vertices. Returns `flags[vertex][tid]`.
fn mark_vertices(
    query: &JoinQuery,
    comps: &Components,
    vertices: &[(usize, AttrRef)],
    constraints: Vec<(usize, usize)>,
    part: &Partitioning,
    input: &JoinInput,
    engine: &Engine,
) -> Result<(Flags, JobMetrics), AlgoError> {
    let id = |at: AttrRef| {
        vertices
            .iter()
            .position(|&(_, v)| v == at)
            .expect("join vertex")
    };
    let conditions = (query.conditions().iter())
        .map(|c| Condition::whole(id(c.left) as u16, c.pred, id(c.right) as u16))
        .collect();
    let vertex_query = JoinQuery::new(vertices.len() as u16, conditions)
        .expect("the vertex query of a valid query is valid");
    let groups: Vec<Vec<usize>> = (comps.components.iter())
        .map(|c| {
            (0..vertices.len())
                .filter(|&v| vertices[v].0 == c.id)
                .collect()
        })
        .collect();
    let routes = (vertices.iter())
        .map(|&(k, _)| match groups[k].len() {
            1 => [MapOp::Project; 2],
            _ => MARKED,
        })
        .collect();
    let records: Vec<IvRec> = (vertices.iter().enumerate())
        .flat_map(|(v, &(_, at))| {
            input.relation(at.rel).tuples().iter().map(move |t| IvRec {
                rel: RelId(v as u16),
                tid: t.id,
                iv: t.attrs[at.attr as usize],
            })
        })
        .collect();
    let sizes: Vec<usize> = (vertices.iter())
        .map(|&(_, at)| input.relation(at.rel).len())
        .collect();
    let setting = ComponentMatrix {
        family: "gen-matrix",
        query: &vertex_query,
        part,
        constraints,
        groups,
        routes,
        mark_options: MarkOptions::default(),
        prune: false,
        route_counters: None,
        mode: OutputMode::Count,
    };
    setting.mark(&records, &sizes, engine)
}

/// Ownership: for every component, the maximal start partition over the
/// assignment's member attribute intervals equals the cell coordinate.
fn owns_tuple_assignment(
    comps: &Components,
    part: &Partitioning,
    coords: &[usize],
    a: &[(TupleId, &[Interval])],
) -> bool {
    for comp in &comps.components {
        let q_k = comp
            .vertices
            .iter()
            .map(|v| part.index_of(a[v.rel.idx()].1[v.attr as usize].start()))
            .max()
            .expect("non-empty component");
        if q_k != coords[comp.id] {
            return false;
        }
    }
    true
}

/// General multi-attribute backtracking join over full tuples.
///
/// `lists[r]` holds relation `r`'s candidate tuples as
/// `(tuple id, attribute values)`. Scan-based (no index), with conditions
/// checked as soon as both endpoints are bound.
fn join_tuples(
    q: &JoinQuery,
    lists: &[Vec<(TupleId, Vec<Interval>)>],
    accept: impl Fn(&[(TupleId, &[Interval])]) -> bool,
    mut on_output: impl FnMut(&[(TupleId, &[Interval])]),
) -> u64 {
    let m = q.num_relations() as usize;
    debug_assert_eq!(lists.len(), m);
    if lists.iter().any(Vec::is_empty) {
        return 0;
    }
    let order = binding_order(q, |r| lists[r].len());
    let mut level_of = vec![0usize; m];
    for (lvl, &r) in order.iter().enumerate() {
        level_of[r] = lvl;
    }
    let mut checks: Vec<Vec<&ij_query::Condition>> = vec![Vec::new(); m];
    for c in q.conditions() {
        let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
        let later = if level_of[l] > level_of[r] { l } else { r };
        checks[level_of[later]].push(c);
    }
    let mut chosen: Vec<usize> = vec![0; m];
    let mut work = 0u64;
    descend_tuples(
        lists,
        &order,
        &checks,
        0,
        &mut chosen,
        &accept,
        &mut on_output,
        &mut work,
    );
    work
}

#[allow(clippy::too_many_arguments)]
fn descend_tuples(
    lists: &[Vec<(TupleId, Vec<Interval>)>],
    order: &[usize],
    checks: &[Vec<&ij_query::Condition>],
    level: usize,
    chosen: &mut Vec<usize>,
    accept: &impl Fn(&[(TupleId, &[Interval])]) -> bool,
    on_output: &mut impl FnMut(&[(TupleId, &[Interval])]),
    work: &mut u64,
) {
    if level == order.len() {
        let assignment: Vec<(TupleId, &[Interval])> = (0..lists.len())
            .map(|r| {
                let (tid, attrs) = &lists[r][chosen[r]];
                (*tid, attrs.as_slice())
            })
            .collect();
        if accept(&assignment) {
            on_output(&assignment);
        }
        return;
    }
    let rel = order[level];
    *work += lists[rel].len() as u64;
    'candidates: for (i, (_, attrs)) in lists[rel].iter().enumerate() {
        for c in &checks[level] {
            let (this_ref, other_ref, this_is_left) = if c.left.rel.idx() == rel {
                (c.left, c.right, true)
            } else {
                (c.right, c.left, false)
            };
            let this_iv = attrs[this_ref.attr as usize];
            let other = &lists[other_ref.rel.idx()][chosen[other_ref.rel.idx()]];
            let other_iv = other.1[other_ref.attr as usize];
            let ok = if this_is_left {
                c.pred.holds(this_iv, other_iv)
            } else {
                c.pred.holds(other_iv, this_iv)
            };
            if !ok {
                continue 'candidates;
            }
        }
        chosen[rel] = i;
        descend_tuples(
            lists,
            order,
            checks,
            level + 1,
            chosen,
            accept,
            on_output,
            work,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Candidates;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Relation;
    use ij_mapreduce::ClusterConfig;
    use ij_query::query::RelationMeta;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    /// Q5 from Section 9: R1.I before R2.I and R1.I overlaps R3.I and
    /// R1.A = R3.A and R2.B = R3.B.
    fn q5() -> JoinQuery {
        JoinQuery::with_relations(
            vec![
                RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into(), "B".into()],
                },
                RelationMeta {
                    name: "R3".into(),
                    attr_names: vec!["I".into(), "A".into(), "B".into()],
                },
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
                Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
            ],
        )
        .unwrap()
    }

    /// Random Q5-shaped data: intervals over the span, attributes A/B from
    /// small domains so equalities actually match.
    fn q5_input(seed: u64, n: usize) -> JoinInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let iv = |rng: &mut StdRng| {
            let s = rng.gen_range(0..300i64);
            Interval::new(s, s + rng.gen_range(0..40)).unwrap()
        };
        let r1 = Relation::from_rows(
            "R1",
            (0..n).map(|_| vec![iv(&mut rng), Interval::point(rng.gen_range(0..5))]),
        );
        let r2 = Relation::from_rows(
            "R2",
            (0..n).map(|_| vec![iv(&mut rng), Interval::point(rng.gen_range(0..5))]),
        );
        let r3 = Relation::from_rows(
            "R3",
            (0..n).map(|_| {
                vec![
                    iv(&mut rng),
                    Interval::point(rng.gen_range(0..5)),
                    Interval::point(rng.gen_range(0..5)),
                ]
            }),
        );
        JoinInput::bind_owned(&q5(), vec![r1, r2, r3]).unwrap()
    }

    #[test]
    fn q5_matches_oracle() {
        let q = q5();
        for seed in 0..4 {
            let input = q5_input(seed, 40);
            let got = GenMatrix::new(5)
                .run(&q, &input, &engine())
                .unwrap()
                .assert_no_duplicates();
            assert_eq!(got, oracle_join(&q, &input), "seed {seed}");
        }
    }

    #[test]
    fn q5_consistent_cells_match_paper() {
        // o = 5, 4 dims, one constraint: 375 of 625 (Table 4's setting).
        let q = q5();
        let input = q5_input(9, 20);
        let out = GenMatrix::new(5).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.stats.consistent_cells, Some((375, 625)));
        assert_eq!(out.chain.num_cycles(), 2);
    }

    #[test]
    fn single_attribute_queries_also_run() {
        // Gen-Matrix subsumes the single-attribute algorithms.
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rels = (0..3)
            .map(|_| {
                Relation::from_intervals(
                    "R",
                    (0..40).map(|_| {
                        let s = rng.gen_range(0..300i64);
                        Interval::new(s, s + rng.gen_range(0..40)).unwrap()
                    }),
                )
            })
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = GenMatrix::new(5)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    /// A colocation component of 17 vertices is beyond what the marking
    /// enumerates: the run is refused before any reducer sees it.
    #[test]
    fn wide_component_is_unsupported() {
        let relations = (0..17)
            .map(|r| RelationMeta {
                name: format!("R{r}"),
                attr_names: vec!["I".into(), "A".into()],
            })
            .collect();
        let mut conditions: Vec<Condition> = (1..17)
            .map(|r| Condition::new(AttrRef::new(r - 1, 0), Overlaps, AttrRef::new(r, 0)))
            .collect();
        conditions.push(Condition::new(
            AttrRef::new(0, 1),
            Equals,
            AttrRef::new(1, 1),
        ));
        let q = JoinQuery::with_relations(relations, conditions).unwrap();
        assert_eq!(q.class(), ij_query::QueryClass::General);
        let rels = (0..17)
            .map(|r| Relation::from_rows("R", [vec![iv(r, r + 20), Interval::point(1)]]))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let err = GenMatrix::new(3).run(&q, &input, &engine()).unwrap_err();
        assert!(matches!(err, AlgoError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn real_valued_equi_join_via_point_intervals() {
        // Pure equi-join on real values: R1.A = R2.A.
        let q = JoinQuery::with_relations(
            vec![
                RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["A".into()],
                },
                RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["A".into()],
                },
            ],
            vec![Condition::new(
                AttrRef::new(0, 0),
                Equals,
                AttrRef::new(1, 0),
            )],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let r1 =
            Relation::from_intervals("R1", (0..50).map(|_| Interval::point(rng.gen_range(0..20))));
        let r2 =
            Relation::from_intervals("R2", (0..50).map(|_| Interval::point(rng.gen_range(0..20))));
        let input = JoinInput::bind_owned(&q, vec![r1, r2]).unwrap();
        let got = GenMatrix::new(4)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
        assert!(!got.is_empty(), "equi-join on a small domain should match");
    }

    #[test]
    fn mixed_interval_and_real_theta() {
        // R1.I overlaps R2.I and R1.A < R2.A (before on points).
        let q = JoinQuery::with_relations(
            vec![
                RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 1), Before, AttrRef::new(1, 1)),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mk = |rng: &mut StdRng, n: usize| {
            Relation::from_rows(
                "R",
                (0..n).map(|_| {
                    let s = rng.gen_range(0..200i64);
                    vec![
                        Interval::new(s, s + rng.gen_range(0..30)).unwrap(),
                        Interval::point(rng.gen_range(0..50)),
                    ]
                }),
            )
        };
        let input = JoinInput::bind_owned(&q, vec![mk(&mut rng, 50), mk(&mut rng, 50)]).unwrap();
        let got = GenMatrix::new(4)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn join_tuples_matches_single_attr_on_plain_queries() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut c = Candidates::new(3);
        let data: [&[(i64, i64)]; 3] = [
            &[(0, 10), (2, 7), (30, 35)],
            &[(5, 12), (6, 20)],
            &[(15, 18), (25, 40), (13, 14)],
        ];
        let mut lists: Vec<Vec<(TupleId, Vec<Interval>)>> = vec![Vec::new(); 3];
        for (r, rows) in data.iter().enumerate() {
            for (t, &(s, e)) in rows.iter().enumerate() {
                c.push(r, iv(s, e), t as u32);
                lists[r].push((t as u32, vec![iv(s, e)]));
            }
        }
        c.finish();
        let mut fast: Vec<Vec<TupleId>> = Vec::new();
        crate::oracle::reference_join(&q, &c, |a| fast.push(a.iter().map(|(_, t)| *t).collect()));
        fast.sort();
        let mut slow: Vec<Vec<TupleId>> = Vec::new();
        join_tuples(
            &q,
            &lists,
            |_| true,
            |a| slow.push(a.iter().map(|(t, _)| *t).collect()),
        );
        slow.sort();
        assert_eq!(fast, slow);
    }

    #[test]
    fn join_tuples_multi_attribute() {
        // R1.a0 overlaps R2.a0 and R1.a1 = R2.a1
        let q = JoinQuery::with_relations(
            vec![
                ij_query::query::RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                ij_query::query::RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(1, 1)),
            ],
        )
        .unwrap();
        let lists = vec![
            vec![
                (0u32, vec![iv(0, 10), Interval::point(7)]),
                (1u32, vec![iv(0, 10), Interval::point(8)]),
            ],
            vec![
                (0u32, vec![iv(5, 15), Interval::point(7)]),
                (1u32, vec![iv(5, 15), Interval::point(9)]),
            ],
        ];
        let mut out = Vec::new();
        join_tuples(
            &q,
            &lists,
            |_| true,
            |a| {
                out.push((a[0].0, a[1].0));
            },
        );
        assert_eq!(out, vec![(0, 0)]);
    }

    /// The reducer join on whole inputs against the oracle's cross product.
    #[test]
    fn general_class_matches_brute_force_cross_product() {
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
            assert_eq!(q.class(), ij_query::QueryClass::General);
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
                let lists: Vec<Vec<(TupleId, Vec<Interval>)>> = (input.relations().iter())
                    .map(|r| r.tuples().iter().map(|t| (t.id, t.attrs.clone())).collect())
                    .collect();
                let mut got: Vec<Vec<TupleId>> = Vec::new();
                join_tuples(
                    q,
                    &lists,
                    |_| true,
                    |a| got.push(a.iter().map(|&(t, _)| t).collect()),
                );
                got.sort_unstable();
                let want = oracle_join(q, &input);
                assert_eq!(got, want, "{q} (seed {seed})");
                total += want.len();
            }
            assert!(total > 0, "{q}: workloads join nothing");
        }
    }
}
