//! FCTS — First Colocation Then Sequence (Section 8, baseline).
//!
//! Stage 1 solves each colocation component with RCCIS, materializing the
//! component join results. Stage 2 joins the component results on the
//! sequence conditions with a component-dimensional All-Matrix. The
//! intermediate materialization is the cost All-Seq-Matrix avoids.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::rccis::Rccis;
use crate::records::{CompRec, OutRec};
use ij_interval::Interval;
use ij_mapreduce::{Emitter, Engine, JobChain, Record, ReduceCtx, ValueStream};
use ij_query::JoinQuery;
use std::sync::Arc;

/// A component composite tagged with its component id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TaggedComp {
    comp: u16,
    rec: CompRec,
}

impl Record for TaggedComp {
    fn approx_bytes(&self) -> u64 {
        2 + self.rec.approx_bytes()
    }
}

/// The FCTS baseline.
#[derive(Debug, Clone)]
pub struct Fcts {
    /// Partitions for the RCCIS stages.
    pub partitions: usize,
    /// Partitions per dimension for the sequence matrix stage.
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl Fcts {
    /// FCTS with the given partition counts, materializing output.
    pub fn new(partitions: usize, per_dim: usize) -> Self {
        Fcts {
            partitions,
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for Fcts {
    fn name(&self) -> &'static str {
        "FCTS"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        crate::algorithm::require_all_joined(self.name(), query)?;
        let order = query.start_order();
        if order.contradictory() {
            return Ok(empty_output(self.mode));
        }
        let comps = query.components();
        let l = comps.len();
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let mut chain = JobChain::new();

        // ---- Stage 1: solve each component with RCCIS ----------------------
        // composites[k]: the component's result tuples, as (global tid per
        // member vertex, member intervals), vertex order = component order.
        let mut composites: Vec<Vec<CompRec>> = Vec::with_capacity(l);
        for comp in &comps.components {
            match comp.as_query(query) {
                None => {
                    // Singleton component: its composites are the base tuples.
                    let rel = comp.vertices[0].rel;
                    composites.push(
                        input
                            .relation(rel)
                            .tuples()
                            .iter()
                            .map(|t| CompRec {
                                tids: vec![t.id],
                                ivs: vec![t.interval()],
                            })
                            .collect(),
                    );
                }
                Some(sub_q) => {
                    let sub_rels: Vec<Arc<ij_interval::Relation>> = comp
                        .vertices
                        .iter()
                        .map(|v| input.relations()[v.rel.idx()].clone())
                        .collect();
                    let sub_input =
                        JoinInput::bind(&sub_q, sub_rels).expect("component input arity matches");
                    let rccis = Rccis {
                        partitions: self.partitions,
                        mode: OutputMode::Materialize,
                        mark_options: Default::default(),
                        partition_strategy: Default::default(),
                    };
                    let sub_out = rccis.run(&sub_q, &sub_input, engine)?;
                    chain.extend(sub_out.chain.clone());
                    composites.push(
                        sub_out
                            .tuples
                            .iter()
                            .map(|t| CompRec {
                                ivs: t
                                    .iter()
                                    .enumerate()
                                    .map(|(local, &tid)| {
                                        input
                                            .relation(comp.vertices[local].rel)
                                            .tuple(tid)
                                            .interval()
                                    })
                                    .collect(),
                                tids: t.to_vec(),
                            })
                            .collect(),
                    );
                }
            }
        }

        // ---- Stage 2: All-Matrix over components ---------------------------
        let space = CellSpace::new(l, self.per_dim, order.component_constraints(&comps))?;
        let records: Vec<TaggedComp> = composites
            .into_iter()
            .enumerate()
            .flat_map(|(k, cs)| {
                cs.into_iter().map(move |rec| TaggedComp {
                    comp: k as u16,
                    rec,
                })
            })
            .collect();
        // Sequence conditions, mapped to (left comp, left slot, pred,
        // right comp, right slot).
        let seq_checks: Vec<(usize, usize, ij_interval::AllenPredicate, usize, usize)> = comps
            .sequence_condition_idxs
            .iter()
            .map(|&ci| {
                let c = query.conditions()[ci];
                let (lk, lv) = locate(&comps, c.left);
                let (rk, rv) = locate(&comps, c.right);
                (lk, lv, c.pred, rk, rv)
            })
            .collect();

        let mode = self.mode;
        let partc = part.clone();
        let spacec = space.clone();
        let n_rels = query.num_relations() as usize;
        // Relation r's id sits at `slot` of component `k`'s composite.
        let mut slot_of_rel = vec![(0, 0); n_rels];
        for (k, comp) in comps.components.iter().enumerate() {
            for (slot, v) in comp.vertices.iter().enumerate() {
                slot_of_rel[v.rel.idx()] = (k, slot);
            }
        }
        let out = engine.run_job(
            "fcts-seq-matrix",
            &records,
            {
                let partc = partc.clone();
                let spacec = spacec.clone();
                move |rec: &TaggedComp, em: &mut Emitter<TaggedComp>| {
                    // Route by the right-most member start (the component's
                    // owner partition).
                    let q = rec
                        .rec
                        .ivs
                        .iter()
                        .map(|iv| partc.index_of(iv.start()))
                        .max()
                        .expect("composite non-empty");
                    em.emit_to_all(spacec.cells_eq(rec.comp as usize, q).iter().copied(), rec);
                }
            },
            move |ctx: &mut ReduceCtx,
                  values: &mut ValueStream<TaggedComp>,
                  out: &mut Vec<OutRec>| {
                let mut per_comp: Vec<Vec<CompRec>> = vec![Vec::new(); l];
                for v in values.by_ref() {
                    per_comp[v.comp as usize].push(v.rec);
                }
                // Cross product over components with sequence checks.
                let mut chosen = vec![0usize; l];
                let mut found = OutRec::new(mode, n_rels);
                let mut work = 0u64;
                cross(
                    &per_comp,
                    &seq_checks,
                    0,
                    &mut chosen,
                    &mut work,
                    &mut |chosen| {
                        found.push_row(
                            slot_of_rel
                                .iter()
                                .map(|&(k, slot)| per_comp[k][chosen[k]].tids[slot]),
                        )
                    },
                );
                ctx.add_work(work);
                found.emit_into(out);
            },
        )?;
        chain.push(out.metrics);

        let mut result = JoinOutput::from_records(self.mode, out.outputs, chain);
        result.stats.consistent_cells =
            Some((space.consistent_cells().len() as u64, space.total_cells()));
        Ok(result)
    }
}

/// Finds `(component id, slot within the component)` of a vertex.
fn locate(comps: &ij_query::Components, v: ij_query::AttrRef) -> (usize, usize) {
    for c in &comps.components {
        if let Some(slot) = c.local_index(v) {
            return (c.id, slot);
        }
    }
    panic!("vertex {v} not in any component");
}

/// Recursive cross product over per-component composite lists, checking
/// sequence conditions as soon as both endpoints are chosen.
fn cross(
    per_comp: &[Vec<CompRec>],
    checks: &[(usize, usize, ij_interval::AllenPredicate, usize, usize)],
    k: usize,
    chosen: &mut Vec<usize>,
    work: &mut u64,
    emit: &mut impl FnMut(&[usize]),
) {
    if k == per_comp.len() {
        emit(chosen);
        return;
    }
    *work += per_comp[k].len() as u64;
    'cands: for i in 0..per_comp[k].len() {
        chosen[k] = i;
        for &(lk, lv, pred, rk, rv) in checks {
            if lk.max(rk) != k {
                continue; // not yet fully bound (or checked earlier)
            }
            let liv: Interval = per_comp[lk][chosen[lk]].ivs[lv];
            let riv: Interval = per_comp[rk][chosen[rk]].ivs[rv];
            if !pred.holds(liv, riv) {
                continue 'cands;
            }
        }
        cross(per_comp, checks, k + 1, chosen, work, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Relation;
    use ij_mapreduce::ClusterConfig;
    use ij_query::Condition;
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

    fn check_q(q: &JoinQuery, seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 50))
            .collect();
        let input = JoinInput::bind_owned(q, rels).unwrap();
        let got = Fcts::new(6, 4)
            .run(q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(q, &input), "query {q}");
    }

    #[test]
    fn q4_matches_oracle() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        check_q(&q, 1, 50);
    }

    #[test]
    fn q3_matches_oracle() {
        let q = JoinQuery::new(
            5,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(1, Before, 3),
                Condition::whole(3, Overlaps, 4),
            ],
        )
        .unwrap();
        check_q(&q, 2, 25);
    }

    #[test]
    fn hybrid_chain_matches_oracle() {
        check_q(
            &JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap(),
            3,
            30,
        );
    }

    #[test]
    fn pure_sequence_matches_oracle() {
        check_q(&JoinQuery::chain(&[Before, Before]).unwrap(), 4, 40);
    }

    #[test]
    fn cycle_count_includes_component_rccis() {
        // Q4: one 2-relation component (2 RCCIS cycles) + one singleton +
        // the matrix stage = 3 cycles.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rels = (0..3).map(|_| random_rel(&mut rng, 20, 200, 30)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = Fcts::new(4, 4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 3);
    }
}
