//! Pruned-All-Seq-Matrix (paper Section 8.2).
//!
//! Three MR cycles:
//!
//! 1. the All-Seq-Matrix replication marking;
//! 2. each colocation component's join is computed (RCCIS second cycle per
//!    component, all components in one job) and every interval appearing in
//!    at least one component output is marked as *participating*;
//! 3. the All-Seq-Matrix join runs over the pruned relations — intervals
//!    that appear in no component output are never shuffled.
//!
//! Pruning shrinks both the communication and the per-reducer work; when
//! little prunes, the extra cycle can make PASM slightly slower than
//! All-Seq-Matrix (the Table 3 trade-off).

use crate::algorithm::{
    empty_output, iv_records, require_single_attr, AlgoError, Algorithm, RunArtifacts,
};
use crate::all_matrix::CellSpace;
use crate::executor::Candidates;
use crate::hybrid::{owns_assignment, run_component_marking};
use crate::input::JoinInput;
use crate::kernel;
use crate::output::{JoinOutput, OutputMode};
use crate::records::{FlagRec, IvRec, OutRec};
use ij_interval::{ops, Interval, TupleId};
use ij_mapreduce::{Emitter, Engine, JobChain, ReduceCtx, ValueStream};
use ij_query::{AttrRef, JoinQuery};
use std::collections::BTreeSet;

/// The PASM algorithm.
#[derive(Debug, Clone)]
pub struct Pasm {
    /// Partitions per matrix dimension (`o`).
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl Pasm {
    /// PASM with `o = per_dim`, materializing output.
    pub fn new(per_dim: usize) -> Self {
        Pasm {
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

/// Cycle 2's reducer output: the `rel << 32 | tid` key of every interval
/// in an owned component binding. A set, so absorbing chunks in any
/// grouping yields the serial result.
struct ParticipantSink<'a> {
    /// Global relation of each local slot of the component query.
    rels: &'a [u16],
    ids: BTreeSet<u64>,
}

impl kernel::BindingSink for ParticipantSink<'_> {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        for (&rel, (_, tid)) in self.rels.iter().zip(binding) {
            self.ids.insert((rel as u64) << 32 | *tid as u64);
        }
    }
}

impl kernel::OutputSink for ParticipantSink<'_> {
    type Chunk = Self;
    fn fork(&self) -> Self {
        ParticipantSink {
            rels: self.rels,
            ids: BTreeSet::new(),
        }
    }
    fn absorb(&mut self, mut chunk: Self) {
        self.ids.append(&mut chunk.ids);
    }
}

impl Algorithm for Pasm {
    fn name(&self) -> &'static str {
        "PASM"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        let order = query.start_order();
        if order.contradictory() {
            return Ok(empty_output(self.mode));
        }
        let comps = query.components();
        let l = comps.len();
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let space = CellSpace::new(l, self.per_dim, order.component_constraints(&comps))?;
        let mut chain = JobChain::new();

        // ---- Cycle 1: per-component replication marking --------------------
        let flags =
            run_component_marking(query, &comps, &part, &iv_records(input), engine, &mut chain)?;
        let replicated = flags.iter().filter(|f| f.replicate).count() as u64;

        let comp_of: Vec<usize> = (0..query.num_relations())
            .map(|r| comps.component_of(AttrRef::whole(r)).expect("component"))
            .collect();
        let multi: Vec<bool> = comps
            .components
            .iter()
            .map(|c| c.vertices.len() >= 2)
            .collect();

        // ---- Cycle 2: component joins mark participating intervals ---------
        let p_count = part.len() as u64;
        let sub_queries: Vec<Option<(JoinQuery, Vec<u16>)>> = comps
            .components
            .iter()
            .map(|c| {
                c.as_query(query).map(|sq| {
                    let mut map = vec![u16::MAX; query.num_relations() as usize];
                    for (i, v) in c.vertices.iter().enumerate() {
                        map[v.rel.idx()] = i as u16;
                    }
                    (sq, map)
                })
            })
            .collect();
        // Per component: the global relation of each local slot, for
        // translating the component join's assignments back.
        let vertex_rels: Vec<Vec<u16>> = comps
            .components
            .iter()
            .map(|c| c.vertices.iter().map(|v| v.rel.0).collect())
            .collect();
        let partc = part.clone();
        let prune_out = engine.run_job(
            "pasm-prune",
            &flags,
            {
                let partc = partc.clone();
                let comp_of = comp_of.clone();
                let multi = multi.clone();
                move |rec: &FlagRec, em: &mut Emitter<IvRec>| {
                    let k = comp_of[rec.rec.rel.idx()];
                    if !multi[k] {
                        return; // singletons always participate
                    }
                    let op = if rec.replicate {
                        ij_interval::MapOp::Replicate
                    } else {
                        ij_interval::MapOp::Project
                    };
                    for p in ops::apply(op, rec.rec.iv, &partc) {
                        em.emit(k as u64 * p_count + p as u64, rec.rec);
                    }
                }
            },
            {
                let partc = partc.clone();
                move |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<u64>| {
                    let k = (ctx.key / p_count) as usize;
                    let p = (ctx.key % p_count) as usize;
                    let (sq, local_of) = sub_queries[k].as_ref().expect("multi component");
                    let mut cands = Candidates::new(sq.num_relations() as usize);
                    for v in values.by_ref() {
                        cands.push(local_of[v.rel.idx()] as usize, v.iv, v.tid);
                    }
                    cands.finish();
                    let mut participating = ParticipantSink {
                        rels: &vertex_rels[k],
                        ids: BTreeSet::new(),
                    };
                    kernel::reduce_into(
                        ctx,
                        sq,
                        &cands,
                        |a: &[(Interval, TupleId)]| {
                            let max_start =
                                a.iter().map(|(iv, _)| iv.start()).max().expect("nonempty");
                            partc.index_of(max_start) == p
                        },
                        &mut participating,
                    );
                    out.extend(participating.ids);
                }
            },
        )?;
        chain.push(prune_out.metrics);
        let participating: BTreeSet<u64> = prune_out.outputs.into_iter().collect();

        // Pruned fractions per relation (only multi-component relations are
        // ever pruned).
        let mut pruned_fraction = Vec::new();
        for (r, rel) in input.relations().iter().enumerate() {
            if multi[comp_of[r]] && !rel.is_empty() {
                let alive = (0..rel.len() as u32)
                    .filter(|&t| participating.contains(&((r as u64) << 32 | t as u64)))
                    .count();
                pruned_fraction.push((
                    query.relations()[r].name.clone(),
                    1.0 - alive as f64 / rel.len() as f64,
                ));
            }
        }

        // ---- Cycle 3: matrix join over pruned relations ---------------------
        let mode = self.mode;
        let q = query.clone();
        let spacec = space.clone();
        let compsc = comps.clone();
        let m = query.num_relations() as usize;
        let out = engine.run_job(
            "pasm-join",
            &flags,
            {
                let partc = partc.clone();
                let spacec = spacec.clone();
                let comp_of = comp_of.clone();
                let multi = multi.clone();
                let participating = participating.clone();
                move |rec: &FlagRec, em: &mut Emitter<IvRec>| {
                    let k = comp_of[rec.rec.rel.idx()];
                    if multi[k]
                        && !participating
                            .contains(&((rec.rec.rel.0 as u64) << 32 | rec.rec.tid as u64))
                    {
                        return; // pruned
                    }
                    let qidx = partc.index_of(rec.rec.iv.start());
                    let cells = if rec.replicate {
                        spacec.cells_ge(k, qidx)
                    } else {
                        spacec.cells_eq(k, qidx)
                    };
                    em.emit_to_all(cells.iter().copied(), &rec.rec);
                }
            },
            move |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
                let coords = spacec.decode(ctx.key);
                let mut cands = Candidates::new(m);
                for v in values.by_ref() {
                    cands.push(v.rel.idx(), v.iv, v.tid);
                }
                cands.finish();
                kernel::reduce_join(
                    ctx,
                    &q,
                    &cands,
                    mode,
                    |a: &[(Interval, TupleId)]| {
                        owns_assignment(&compsc, &partc, &coords, |r| a[r].0)
                    },
                    out,
                );
            },
        )?;
        chain.push(out.metrics);

        let mut result = JoinOutput::from_records(self.mode, out.outputs, chain);
        result.stats.replicated_intervals = Some(replicated);
        result.stats.consistent_cells =
            Some((space.consistent_cells().len() as u64, space.total_cells()));
        result.stats.pruned_fraction = pruned_fraction;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::AllSeqMatrix;
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
        let got = Pasm::new(5)
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
    fn hybrid_chain_matches_oracle() {
        check_q(&JoinQuery::chain(&[Overlaps, Before]).unwrap(), 2, 50);
        check_q(
            &JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap(),
            3,
            25,
        );
    }

    #[test]
    fn three_cycles_and_pruning_stats() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Make R3 tiny so many R1 intervals prune away (the Table 3 lever).
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 200, 2000, 20),
                random_rel(&mut rng, 50, 2000, 20),
                random_rel(&mut rng, 4, 2000, 20),
            ],
        )
        .unwrap();
        let out = Pasm::new(5).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 3);
        let r1_pruned = out
            .stats
            .pruned_fraction
            .iter()
            .find(|(name, _)| name == "R1")
            .map(|(_, f)| *f)
            .unwrap();
        assert!(r1_pruned > 0.5, "expected heavy pruning, got {r1_pruned}");
        // And correctness under pruning:
        assert_eq!(out.assert_no_duplicates(), oracle_join(&q, &input));
    }

    #[test]
    fn pasm_shuffles_fewer_pairs_than_asm_when_pruning() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 300, 3000, 20),
                random_rel(&mut rng, 50, 3000, 20),
                random_rel(&mut rng, 3, 3000, 20),
            ],
        )
        .unwrap();
        let pasm = Pasm::new(5).run(&q, &input, &engine()).unwrap();
        let asm = AllSeqMatrix::new(5).run(&q, &input, &engine()).unwrap();
        assert_eq!(pasm.assert_no_duplicates(), asm.assert_no_duplicates());
        // PASM's final join cycle must shuffle fewer pairs than ASM's.
        let pasm_join_pairs = pasm.chain.cycles.last().unwrap().intermediate_pairs;
        let asm_join_pairs = asm.chain.cycles.last().unwrap().intermediate_pairs;
        assert!(
            pasm_join_pairs < asm_join_pairs,
            "pasm {pasm_join_pairs} vs asm {asm_join_pairs}"
        );
    }
}
