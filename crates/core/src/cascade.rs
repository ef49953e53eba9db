//! The 2-way Cascade baseline (Section 6) and the stage loop FSTC
//! (Section 8) reuses.
//!
//! A multi-way query runs as a series of 2-way MR joins: each stage joins
//! the accumulated composite result with one more base relation. Colocation
//! stages route with the predicate's split/project pair; sequence stages
//! use a 2-D All-Matrix (as the paper does in the Figure 5 experiments:
//! "both 2-way joins in 2-way Cd … are executed using 2D versions of
//! All-Matrix"). Every stage re-reads and re-shuffles the intermediate
//! result, which is exactly the cost the paper's single-pass algorithms
//! avoid. A stage's reducer is the composite join (`kernel::composite`,
//! the window kernel's multi-slot case) with two sides: the composites,
//! whose slots are the relations joined so far, and the new relation.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::input::JoinInput;
use crate::kernel::composite::{base_composites, composites, CompositeJoin};
use crate::output::{JoinOutput, OutputMode};
use crate::records::{CompRec, OutRec};
use ij_interval::{ops, MapOp, RelId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Engine, JobChain};
use ij_query::{Condition, JoinQuery};

/// One cascade stage: join the current composites with `new_rel` on
/// `primary`, additionally checking `extras` (conditions whose endpoints
/// are all available by this stage).
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    /// The base relation this stage introduces.
    pub new_rel: RelId,
    /// The condition used for routing.
    pub primary: Condition,
    /// Conditions checked in the reducer on top of `primary`.
    pub extras: Vec<Condition>,
}

/// Plans the cascade: processes conditions in declaration order, each stage
/// introducing the condition's one missing relation. Conditions between two
/// already-present relations attach to the following stage (or the last).
///
/// `present` starts with the seed relations (for the plain cascade: the
/// first condition's left endpoint).
pub(crate) fn plan_stages(
    mut present: Vec<RelId>,
    conditions: &[Condition],
) -> Result<Vec<Stage>, AlgoError> {
    let mut stages: Vec<Stage> = Vec::new();
    let mut pending_filters: Vec<Condition> = Vec::new();
    let mut remaining: Vec<Condition> = conditions.to_vec();
    while !remaining.is_empty() {
        // Earliest remaining condition touching the joined set; declaration
        // order is kept where possible, but a later condition may bridge to
        // an earlier one (e.g. FSTC seeds from the sequence relations).
        let pos = remaining
            .iter()
            .position(|c| present.contains(&c.left.rel) || present.contains(&c.right.rel));
        let Some(pos) = pos else {
            return Err(AlgoError::Unsupported {
                algorithm: "cascade",
                reason: format!(
                    "condition {} is disconnected from the relations joined so far",
                    remaining[0]
                ),
            });
        };
        let c = remaining.remove(pos);
        let l_in = present.contains(&c.left.rel);
        let r_in = present.contains(&c.right.rel);
        if l_in && r_in {
            pending_filters.push(c);
        } else {
            let new_rel = if l_in { c.right.rel } else { c.left.rel };
            present.push(new_rel);
            let extras = std::mem::take(&mut pending_filters);
            stages.push(Stage {
                new_rel,
                primary: c,
                extras,
            });
        }
    }
    if !pending_filters.is_empty() {
        match stages.last_mut() {
            Some(s) => s.extras.extend(pending_filters),
            None => {
                return Err(AlgoError::Unsupported {
                    algorithm: "cascade",
                    reason: "all conditions are between seed relations; nothing to cascade".into(),
                })
            }
        }
    }
    Ok(stages)
}

/// The 2-way Cascade algorithm.
#[derive(Debug, Clone)]
pub struct TwoWayCascade {
    /// Partitions for colocation stages.
    pub partitions: usize,
    /// Per-dimension partitions for sequence stages' 2-D matrices (the
    /// paper uses 11 for Figure 5's cascades).
    pub per_dim_2d: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl TwoWayCascade {
    /// A cascade with the same reducer budget for both stage kinds.
    pub fn new(partitions: usize) -> Self {
        TwoWayCascade {
            partitions,
            per_dim_2d: (partitions as f64).sqrt().ceil() as usize + 1,
            mode: OutputMode::Materialize,
        }
    }

    /// Runs `stages`, one MR cycle each, starting from the side-0
    /// composites `comps` over the relations `present` (in slot order). An
    /// intermediate stage writes id rows in slot order, which become the
    /// next stage's composites; the last writes the join result in
    /// relation order, and it is returned.
    pub(crate) fn run_stages(
        &self,
        input: &JoinInput,
        engine: &Engine,
        mut present: Vec<RelId>,
        mut comps: Vec<CompRec>,
        stages: &[Stage],
        chain: &mut JobChain,
    ) -> Result<Vec<OutRec>, AlgoError> {
        let span = input.span();
        for (i, stage) in stages.iter().enumerate() {
            let last = i + 1 == stages.len();
            let new_rel = stage.new_rel;
            // Side 0 is the composite, side 1 the new relation's tuple.
            let slot = |rel: RelId| match present.iter().position(|&r| r == rel) {
                Some(s) => (0, s),
                None => (1, 0),
            };
            let (mode, gather) = if last {
                let by_rel = (0..input.relations().len()).map(|r| slot(RelId(r as u16)));
                (self.mode, by_rel.collect())
            } else {
                let grown = present.iter().map(|&r| slot(r)).chain([(1, 0)]);
                (OutputMode::Materialize, grown.collect())
            };
            let join = CompositeJoin {
                sides: 2,
                conditions: (std::iter::once(&stage.primary).chain(&stage.extras))
                    .map(|c| (slot(c.left.rel), c.pred, slot(c.right.rel)))
                    .collect(),
                gather,
                mode,
                order_by: None,
            };

            // Routing: the partitioning, the matrix and each side's
            // (dimension, operation). A colocation stage is a 1-D matrix
            // (cell `p` is partition `p`) with the predicate's map
            // operations; a sequence stage a 2-D All-Matrix — dim 0 the
            // composite (via the primary's member interval), dim 1 the new
            // relation — projecting both.
            let comp_is_left = stage.primary.left.rel != new_rel;
            let comp_rel = if comp_is_left {
                stage.primary.left.rel
            } else {
                stage.primary.right.rel
            };
            let (part, space, comp, base) = if stage.primary.pred.is_colocation() {
                let (op_l, op_r) = stage.primary.pred.map_ops();
                let (comp_op, base_op) = if comp_is_left {
                    (op_l, op_r)
                } else {
                    (op_r, op_l)
                };
                let part = RunArtifacts::partition_span(span, self.partitions)?;
                let space = CellSpace::new(&[&part], Vec::new())?;
                (part, space, (0, comp_op), (0, base_op))
            } else {
                let constraints = if stage.primary.lesser().rel == comp_rel {
                    vec![(0, 1)]
                } else {
                    vec![(1, 0)]
                };
                let part = RunArtifacts::partition_span(span, self.per_dim_2d)?;
                let space = CellSpace::new(&[&part; 2], constraints)?;
                (part, space, (0, MapOp::Project), (1, MapOp::Project))
            };
            let comp_slot = slot(comp_rel).1;

            let mut records = std::mem::take(&mut comps);
            records.extend(base_composites(1, new_rel, input));
            let out = join.run(
                engine,
                &format!("cascade-{}", present.len()),
                &records,
                |rec, em| {
                    let ((dim, op), slot, counter) = match rec.side {
                        0 => (comp, comp_slot, names::CASCADE_COMP_PAIRS),
                        _ => (base, 0, names::CASCADE_BASE_PAIRS),
                    };
                    let cells = space.cells_in(dim, ops::apply(op, rec.ivs[slot], &part));
                    em.emit_to_all(cells.iter().copied(), rec);
                    em.inc(counter, cells.len() as u64);
                },
                None,
            )?;
            chain.push(out.metrics);
            if last {
                return Ok(out.outputs);
            }
            present.push(new_rel);
            let rows =
                JoinOutput::from_records(OutputMode::Materialize, out.outputs, JobChain::new());
            comps = composites(0, &present, &rows.tuples, input);
        }
        Ok(Vec::new())
    }
}

impl Algorithm for TwoWayCascade {
    fn name(&self) -> &'static str {
        "2-way Cd"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        crate::algorithm::require_all_joined(self.name(), query)?;
        if query.start_order().contradictory() {
            return Ok(empty_output(self.mode));
        }
        if query.num_relations() < 2 {
            return Err(AlgoError::BadConfig("need at least 2 relations".into()));
        }
        let seed = query.conditions()[0].left.rel;
        let stages = plan_stages(vec![seed], query.conditions())?;
        let mut chain = JobChain::new();
        let comps = base_composites(0, seed, input);
        let finals = self.run_stages(input, engine, vec![seed], comps, &stages, &mut chain)?;
        Ok(JoinOutput::from_records(self.mode, finals, chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::{self, *};
    use ij_interval::{Interval, Relation};
    use ij_mapreduce::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rel(rng: &mut StdRng, n: usize, span: i64, max_len: i64) -> Relation {
        Relation::from_intervals(
            "R",
            (0..n).map(|_| {
                let s = rng.gen_range(0..span);
                let e = s + rng.gen_range(0..=max_len);
                Interval::new(s, e).unwrap()
            }),
        )
    }

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    fn check(preds: &[AllenPredicate], seed: u64, n: usize) {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 40))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = TwoWayCascade::new(8)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "preds {preds:?}");
    }

    #[test]
    fn colocation_chain_matches_oracle() {
        check(&[Overlaps, Overlaps], 1, 60);
        check(&[Overlaps, Contains, Overlaps], 2, 35);
    }

    #[test]
    fn sequence_chain_matches_oracle() {
        check(&[Before, Before], 3, 40);
    }

    #[test]
    fn hybrid_chain_matches_oracle() {
        check(&[Overlaps, Before], 4, 45);
        check(&[Before, Overlaps], 5, 45);
    }

    #[test]
    fn one_cycle_per_stage() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rels = (0..4).map(|_| random_rel(&mut rng, 20, 200, 30)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = TwoWayCascade::new(4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 3);
    }

    #[test]
    fn counters_attribute_pairs_per_stage() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let rels = (0..3).map(|_| random_rel(&mut rng, 40, 300, 40)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = TwoWayCascade::new(6).run(&q, &input, &engine()).unwrap();
        // Every stage shuffles both composites and base tuples, and the two
        // counter classes account for its whole communication volume.
        for cycle in &out.chain.cycles {
            let comp = cycle.counters.get("cascade.comp_pairs");
            let base = cycle.counters.get("cascade.base_pairs");
            assert!(base > 0, "stage {} shuffled no base tuples", cycle.name);
            assert_eq!(comp + base, cycle.intermediate_pairs, "{}", cycle.name);
        }
        let c = out.chain.total_counters();
        assert!(c.get("join.candidates") >= c.get("join.emitted"));
    }

    #[test]
    fn triangle_query_extra_condition_checked() {
        // R1 ov R2, R2 ov R3, R1 contains R3: the third condition is between
        // two relations already present and must be applied as a filter.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Overlaps, 2),
                ij_query::Condition::whole(0, Contains, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rels = (0..3).map(|_| random_rel(&mut rng, 50, 200, 60)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = TwoWayCascade::new(6)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn extra_condition_between_earlier_relations_checked() {
        // R1 ov R2, R2 ov R3, R1 before R3, R3 ov R4: the third condition
        // joins two relations present before the stage introducing R4 and
        // rides along with it; it constrains R1 and R3, not the new R4.
        let q = JoinQuery::new(
            4,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Overlaps, 2),
                ij_query::Condition::whole(0, Before, 2),
                ij_query::Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rels = (0..4).map(|_| random_rel(&mut rng, 60, 300, 80)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let want = oracle_join(&q, &input);
        assert!(!want.is_empty());
        let got = TwoWayCascade::new(6).run(&q, &input, &engine()).unwrap();
        assert_eq!(got.assert_no_duplicates(), want);
    }

    #[test]
    fn plan_rejects_disconnected_condition_order() {
        let q = JoinQuery::new(
            4,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        let err = plan_stages(vec![RelId(0)], q.conditions()).unwrap_err();
        assert!(matches!(err, AlgoError::Unsupported { .. }));
    }
}
