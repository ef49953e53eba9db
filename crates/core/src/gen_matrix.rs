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
//! The family builds a plan (`crate::plan`) of two MR cycles:
//! attribute-level marking (skipped when nothing can be marked) — the mark
//! stage with one relation per vertex — then the component-matrix join
//! stage (`component_matrix::JoinStage`) over whole
//! tuples: the relations are sides, attributes slots, and a relation's side
//! has one `MARKED` lane per join vertex, carrying the vertex's flags, so a
//! tuple's coordinate range in a component is the intersection of its
//! vertices' ranges there. Its reducer is the window kernel's multi-slot
//! composite join (`kernel::composite`). Every component is tested: a cell
//! owns a binding when, in every component, the right-most start over the
//! component's ⟨relation, attribute⟩ slots lies in the cell coordinate's
//! start window — the component-matrix rule, compiled into the join's
//! level program.

use crate::algorithm::{AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::component_matrix::{ComponentMatrix, JoinStage, Lane, Stages, MARKED};
use crate::input::JoinInput;
use crate::kernel::composite::CompositeJoin;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::{Plan, Report, Step};
use crate::rccis::marking::MarkOptions;
use ij_interval::{MapOp, Partitioning, RelId};
use ij_mapreduce::Engine;
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
        let comps = query.components();
        let constraints = order.component_constraints(&comps);
        // All dimensions span the same temporal range (Section 7.1).
        let part = RunArtifacts::partition_span(input.span_all_attrs(query), self.per_dim)?;
        let grids = vec![part.clone(); comps.len()];
        let space = CellSpace::new(&grids.iter().collect::<Vec<_>>(), constraints.clone())?;

        // ---- Cycle 1: attribute-level replication marking -------------------
        // The join vertices, numbered component by component.
        let vertices: Vec<(usize, AttrRef)> = (comps.components.iter())
            .flat_map(|c| c.vertices.iter().map(move |&v| (c.id, v)))
            .collect();
        let vertex_query = vertex_query(query, &vertices);
        let marking = mark_vertices(&vertex_query, &comps, &vertices, constraints, part)?;
        let mut steps = vec![Step::Mark(marking, vertices.iter().map(|v| v.1).collect())];

        // ---- Cycle 2: matrix join -------------------------------------------
        // A record per tuple, its attributes the slots; its relation's side
        // has a lane per join vertex, which replicates where the marking
        // flagged the vertex's value.
        let attrs = true;
        steps.extend((0..query.num_relations()).map(|r| Step::Base {
            side: r as usize,
            rel: RelId(r),
            attrs,
        }));
        let mut sides: Vec<Vec<Lane>> = (0..query.num_relations()).map(|_| Vec::new()).collect();
        for (v, &(k, at)) in vertices.iter().enumerate() {
            let lane = Lane {
                row: Some(v),
                route: MARKED,
                ..Lane::fixed(k, vec![at.attr as usize], MapOp::Project, None)
            };
            sides[at.rel.idx()].push(lane);
        }
        // Every component is tested, over its ⟨relation, attribute⟩ slots.
        let slot = |v: &AttrRef| (v.rel.idx(), v.attr as usize);
        let owner = (comps.components.iter())
            .map(|c| (c.id, c.vertices.iter().map(slot).collect()))
            .collect();
        let stage = JoinStage {
            name: "gen-matrix-join".into(),
            grids,
            space,
            sides,
            owner,
            join: CompositeJoin::of_query(query, self.mode),
        };
        steps.push(Step::Join(stage, None));
        Plan::new(query, input, self.mode, Report::Both, steps).run(input, engine)
    }
}

/// The query with one single-attribute relation per vertex of `vertices`:
/// `query`'s conditions between vertex ids.
fn vertex_query(query: &JoinQuery, vertices: &[(usize, AttrRef)]) -> JoinQuery {
    let id = |at: AttrRef| {
        vertices
            .iter()
            .position(|&(_, v)| v == at)
            .expect("join vertex")
    };
    let conditions = (query.conditions().iter())
        .map(|c| Condition::whole(id(c.left) as u16, c.pred, id(c.right) as u16))
        .collect();
    JoinQuery::new(vertices.len() as u16, conditions)
        .expect("the vertex query of a valid query is valid")
}

/// The attribute-level marking cycle: the component-matrix mark stage on
/// the [`vertex_query`] of `vertices`, with one group per component,
/// marked when it has several vertices. It flags `flags[vertex][tid]`.
fn mark_vertices<'a>(
    vertex_query: &'a JoinQuery,
    comps: &Components,
    vertices: &[(usize, AttrRef)],
    constraints: Vec<(usize, usize)>,
    part: Partitioning,
) -> Result<Stages<'a>, AlgoError> {
    let groups: Vec<Vec<usize>> = (comps.components.iter())
        .map(|c| {
            (0..vertices.len())
                .filter(|&v| vertices[v].0 == c.id)
                .collect()
        })
        .collect();
    let setting = ComponentMatrix {
        family: "gen-matrix",
        query: vertex_query,
        part,
        constraints,
        groups,
        // A group of one vertex is never marked.
        routes: vec![MARKED; vertices.len()],
        mark_options: MarkOptions::default(),
        prune: false,
        route_counters: None,
        mode: OutputMode::Count,
    };
    setting.stages()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
    use ij_interval::{Interval, Relation};
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
}
