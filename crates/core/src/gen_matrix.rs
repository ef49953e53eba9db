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
//! Two MR cycles: attribute-level marking, then the matrix join.

use crate::algorithm::{empty_output, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::executor::join_tuples;
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::records::{OutRec, TupleRec, VtxRec};
use ij_interval::{ops, Interval, Partitioning, RelId, TupleId};
use ij_mapreduce::{Emitter, Engine, JobChain, ReduceCtx, ValueStream};
use ij_query::{Components, JoinQuery};
use std::collections::BTreeSet;

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
        let l = comps.len();
        // All dimensions span the same temporal range (Section 7.1).
        let part = RunArtifacts::partition_span(input.span_all_attrs(query), self.per_dim)?;
        let space = CellSpace::new(l, self.per_dim, order.component_constraints(&comps))?;
        let mut chain = JobChain::new();

        // Flatten tuples once.
        let tuples: Vec<TupleRec> = input
            .relations()
            .iter()
            .enumerate()
            .flat_map(|(r, rel)| {
                rel.tuples().iter().map(move |t| TupleRec {
                    rel: RelId(r as u16),
                    tid: t.id,
                    attrs: t.attrs.clone(),
                })
            })
            .collect();

        // ---- Cycle 1: attribute-level replication marking -------------------
        let flagged = run_vertex_marking(query, &comps, &part, &tuples, engine, &mut chain)?;
        let replicated = flagged.len() as u64;

        // ---- Cycle 2: matrix join -------------------------------------------
        // Per relation: its join vertices as (attr, component id).
        let rel_vertices: Vec<Vec<(u16, usize)>> = (0..query.num_relations())
            .map(|r| {
                comps
                    .components_of_relation(RelId(r))
                    .into_iter()
                    .map(|(k, v)| (v.attr, k))
                    .collect()
            })
            .collect();

        let mode = self.mode;
        let q = query.clone();
        let partc = part.clone();
        let spacec = space.clone();
        let compsc = comps.clone();
        let m = query.num_relations() as usize;
        let per_dim = self.per_dim;
        let out = engine.run_job(
            "gen-matrix-join",
            &tuples,
            {
                let partc = partc.clone();
                let spacec = spacec.clone();
                let flagged = flagged.clone();
                let rel_vertices = rel_vertices.clone();
                move |rec: &TupleRec, em: &mut Emitter<TupleRec>| {
                    // Allowed coordinate ranges per dimension touched by
                    // this relation; untouched dimensions are free.
                    let mut lo = vec![0usize; spacec.dims()];
                    let mut hi = vec![per_dim - 1; spacec.dims()];
                    for &(attr, k) in &rel_vertices[rec.rel.idx()] {
                        let qidx = partc.index_of(rec.attrs[attr as usize].start());
                        let is_flagged = flagged.contains(&flag_key(rec.rel, attr, rec.tid));
                        lo[k] = lo[k].max(qidx);
                        if !is_flagged {
                            hi[k] = hi[k].min(qidx);
                        }
                        if lo[k] > hi[k] {
                            return; // contradictory attribute placement
                        }
                    }
                    // Enumerate the coordinate box, keep consistent cells.
                    let mut coords = lo.clone();
                    'outer: loop {
                        if spacec.is_consistent(&coords) {
                            em.emit(spacec.encode(&coords), rec.clone());
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
                }
            },
            move |ctx: &mut ReduceCtx,
                  values: &mut ValueStream<TupleRec>,
                  out: &mut Vec<OutRec>| {
                let coords = spacec.decode(ctx.key);
                let mut lists: Vec<Vec<(TupleId, Vec<Interval>)>> = vec![Vec::new(); m];
                for v in values.by_ref() {
                    lists[v.rel.idx()].push((v.tid, v.attrs));
                }
                let mut found = OutRec::new(mode, m);
                let work = join_tuples(
                    &q,
                    &lists,
                    |a: &[(TupleId, &[Interval])]| {
                        owns_tuple_assignment(&compsc, &partc, &coords, a)
                    },
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

fn flag_key(rel: RelId, attr: u16, tid: TupleId) -> u64 {
    (rel.0 as u64) << 48 | (attr as u64) << 32 | tid as u64
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

/// The attribute-level marking cycle: like the component-matrix
/// pipeline's mark stage (`crate::component_matrix`), but vertices are
/// ⟨relation, attribute⟩ pairs and only *flagged* vertices are returned
/// (as a set of keys), since unflagged is the default.
fn run_vertex_marking(
    query: &JoinQuery,
    comps: &Components,
    part: &Partitioning,
    tuples: &[TupleRec],
    engine: &Engine,
    chain: &mut JobChain,
) -> Result<BTreeSet<u64>, AlgoError> {
    let p_count = part.len() as u64;
    let multi: Vec<bool> = comps
        .components
        .iter()
        .map(|c| c.vertices.len() >= 2)
        .collect();
    // vertex -> (component, local index), keyed by (rel, attr).
    let sub_queries: Vec<Option<JoinQuery>> =
        comps.components.iter().map(|c| c.as_query(query)).collect();
    let rel_vertices: Vec<Vec<(u16, usize)>> = (0..query.num_relations())
        .map(|r| {
            comps
                .components_of_relation(RelId(r))
                .into_iter()
                .map(|(k, v)| (v.attr, k))
                .collect()
        })
        .collect();
    let comps_local: Vec<std::collections::BTreeMap<(u16, u16), usize>> = comps
        .components
        .iter()
        .map(|c| {
            c.vertices
                .iter()
                .enumerate()
                .map(|(i, v)| ((v.rel.0, v.attr), i))
                .collect()
        })
        .collect();
    let vertex_of_local: Vec<Vec<(u16, u16)>> = comps
        .components
        .iter()
        .map(|c| c.vertices.iter().map(|v| (v.rel.0, v.attr)).collect())
        .collect();

    let partc = part.clone();
    let out = engine.run_job(
        "gen-matrix-mark",
        tuples,
        {
            let partc = partc.clone();
            let rel_vertices = rel_vertices.clone();
            let multi = multi.clone();
            move |rec: &TupleRec, em: &mut Emitter<VtxRec>| {
                for &(attr, k) in &rel_vertices[rec.rel.idx()] {
                    if !multi[k] {
                        continue; // singleton vertices are never flagged
                    }
                    let iv = rec.attrs[attr as usize];
                    for p in ops::split(iv, &partc) {
                        em.emit(
                            k as u64 * p_count + p as u64,
                            VtxRec {
                                rel: rec.rel,
                                attr,
                                tid: rec.tid,
                                iv,
                            },
                        );
                    }
                }
            }
        },
        move |ctx: &mut ReduceCtx, values: &mut ValueStream<VtxRec>, out: &mut Vec<u64>| {
            let k = (ctx.key / p_count) as usize;
            let p = (ctx.key % p_count) as usize;
            let sq = sub_queries[k].as_ref().expect("multi-vertex component");
            let local_of = &comps_local[k];
            let mut per_rel: Vec<Vec<(Interval, TupleId)>> =
                vec![Vec::new(); sq.num_relations() as usize];
            for v in values.by_ref() {
                let local = local_of[&(v.rel.0, v.attr)];
                per_rel[local].push((v.iv, v.tid));
            }
            let marking = crate::rccis::marking::mark(sq, &partc, p, per_rel);
            ctx.add_work(marking.work);
            for (local, (list, flags)) in marking.sorted.iter().zip(&marking.flags).enumerate() {
                let (rel, attr) = vertex_of_local[k][local];
                for (&(iv, tid), &flag) in list.iter().zip(flags) {
                    if flag && partc.index_of(iv.start()) == p {
                        out.push(flag_key(RelId(rel), attr, tid));
                    }
                }
            }
        },
    )?;
    chain.push(out.metrics);
    Ok(out.outputs.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Relation;
    use ij_mapreduce::ClusterConfig;
    use ij_query::query::RelationMeta;
    use ij_query::{AttrRef, Condition};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
}
