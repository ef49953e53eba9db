//! Plans as data: every family's MR cycles as one ordered list of steps,
//! run by one loop (DESIGN.md §5).
//!
//! A family's `Algorithm::run` checks the query, builds its [`Plan`] and
//! runs it. The steps hand their results on in a fixed way: a join reads
//! the *sides* the steps before it added — base tuples, or the rows of a
//! sub-plan — and the flags of a mark step, and it either hands its rows
//! on as the next join's side 0 or writes the plan's output.
//!
//! **Elision.** A join with a contradictory start order (Section 9) or an
//! empty relation is provably empty, so its plan has no steps: it runs no
//! cycle and returns no rows. The rule applies when the plan is built,
//! after every step has been built and checked, so a family refuses the
//! same queries on every input.

use crate::algorithm::AlgoError;
use crate::component_matrix::{Flags, JoinStage, Stages};
use crate::input::JoinInput;
use crate::kernel::composite::{composites, CompositeJoin};
use crate::kernel::KernelConfig;
use crate::one_bucket::OneBucketTheta;
use crate::output::{JoinOutput, OutputMode, RunStats};
use crate::records::{CompRec, OutRec};
use ij_interval::RelId;
use ij_mapreduce::{Engine, JobChain};
use ij_query::{AttrRef, JoinQuery};

/// Which of the statistics its steps produce a plan reports — replicated
/// intervals, consistent cells — as the paper's tables do: Table 1
/// reports RCCIS's replication and no cell count, a matrix family its
/// consistent cells.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    Neither,
    Replicated,
    Cells,
    Both,
}

/// One step of a [`Plan`].
pub(crate) enum Step<'a> {
    /// The component-matrix pipeline over the input's intervals — mark,
    /// prune, shares, join — whose rows are the plan's output.
    Matrix(Stages<'a>),
    /// Side `side` of the next join: relation `rel`'s tuples, attribute 0
    /// or (`attrs`) all of them as the slots.
    Base {
        side: usize,
        rel: RelId,
        attrs: bool,
    },
    /// Side `side` of the next join: the rows of `plan` run on `input`,
    /// the input restricted to the relations `rels`, slot `i` holding
    /// relation `rels[i]`.
    Sub {
        side: usize,
        rels: Vec<RelId>,
        input: JoinInput,
        plan: Plan<'a>,
    },
    /// The mark stage alone, relation `v` of its setting the attribute
    /// `vertices[v]` of the input, whose flags the next join reads.
    Mark(Stages<'a>, Vec<AttrRef>),
    /// A composite join cycle over the sides. With `then`, its rows are
    /// side 0 of the next join, slot `i` holding relation `then[i]`;
    /// without, they are the plan's output.
    Join(JoinStage<CompositeJoin<'a>>, Option<Vec<RelId>>),
    /// The composite join of the sides, in place: no cycle.
    Filter(CompositeJoin<'a>),
    /// 1-Bucket-Theta's cycle, whose routes hash tuple ids.
    OneBucket(&'a OneBucketTheta, &'a JoinQuery),
}

/// A family's cycles over one input: no steps when elided.
pub(crate) struct Plan<'a> {
    mode: OutputMode,
    report: Report,
    steps: Vec<Step<'a>>,
}

impl<'a> Plan<'a> {
    /// The plan of `steps` for `query` over `input`, elided when the join
    /// is provably empty.
    pub(crate) fn new(
        query: &JoinQuery,
        input: &JoinInput,
        mode: OutputMode,
        report: Report,
        steps: Vec<Step<'a>>,
    ) -> Self {
        let empty = input.relations().iter().any(|rel| rel.is_empty());
        let elided = empty || query.start_order().contradictory();
        let steps = if elided { Vec::new() } else { steps };
        Plan {
            mode,
            report,
            steps,
        }
    }

    /// Runs the steps in order; the output carries every cycle's metrics
    /// and the statistics the plan reports.
    pub(crate) fn run(&self, input: &JoinInput, engine: &Engine) -> Result<JoinOutput, AlgoError> {
        let (mut chain, mut stats) = (JobChain::new(), RunStats::default());
        let mut sides: Vec<CompRec> = Vec::new();
        let (mut flags, mut rows): (Flags, Vec<OutRec>) = (Vec::new(), Vec::new());
        for step in &self.steps {
            match step {
                Step::Matrix(stages) => (rows, stats) = stages.run(input, engine, &mut chain)?,
                Step::Base { side, rel, attrs } => {
                    let rel = input.relation(*rel);
                    let arity = if *attrs { rel.n_attrs } else { 1 };
                    sides.extend(rel.tuples().map(|t| CompRec {
                        side: *side as u16,
                        tids: vec![t.id],
                        ivs: (0..arity).map(|a| t.attr(a)).collect(),
                    }));
                }
                Step::Sub {
                    side,
                    rels,
                    input: sub,
                    plan,
                } => {
                    let out = plan.run(sub, engine)?;
                    sides.extend(composites(*side, rels, &out.tuples, input));
                    chain.extend(out.chain);
                }
                Step::Mark(stages, vertices) => {
                    let (marked, metrics) = stages.mark_alone(input, vertices, engine)?;
                    chain.cycles.extend(metrics);
                    let replicated = marked.iter().flatten().filter(|&&f| f).count();
                    stats.replicated_intervals = Some(replicated as u64);
                    flags = marked;
                }
                Step::Join(stage, then) => {
                    let out = stage.run(engine, &std::mem::take(&mut sides)[..], (&flags, None))?;
                    chain.push(out.metrics);
                    let cells = stage.space.consistent_cells().len() as u64;
                    stats.consistent_cells = Some((cells, stage.space.total_cells()));
                    match then {
                        Some(rels) => {
                            let found =
                                JoinOutput::from_records(self.mode, out.outputs, <_>::default());
                            sides = composites(0, rels, &found.tuples, input);
                        }
                        None => rows = out.outputs,
                    }
                }
                Step::Filter(join) => {
                    let mut found = OutRec::new(join.mode, join.gather.len());
                    join.join_into(&sides, &KernelConfig::serial(), &[], &mut found);
                    rows = vec![found];
                }
                Step::OneBucket(theta, query) => {
                    let out = theta.cycle(query, input, engine)?;
                    chain.push(out.metrics);
                    let cells = (theta.rows * theta.cols) as u64;
                    stats.consistent_cells = Some((cells, cells));
                    rows = out.outputs;
                }
            }
        }
        let mut out = JoinOutput::from_records(self.mode, rows, chain);
        let reports = |r: Report| self.report == r || self.report == Report::Both;
        out.stats = RunStats {
            replicated_intervals: (stats.replicated_intervals)
                .filter(|_| reports(Report::Replicated)),
            consistent_cells: stats.consistent_cells.filter(|_| reports(Report::Cells)),
            ..stats
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{plan_stages, TwoWayCascade};
    use crate::rccis::Rccis;
    use ij_interval::AllenPredicate::{Before, Overlaps};
    use ij_interval::{Interval, Relation};
    use ij_query::Condition;

    /// `sizes[r]` unit intervals for each relation `r` of `q`.
    fn input(q: &JoinQuery, sizes: &[usize]) -> JoinInput {
        let rel = |n: usize| {
            Relation::from_intervals("R", (0..n as i64).map(|s| Interval::new(s, s + 1).unwrap()))
        };
        JoinInput::bind_owned(q, sizes.iter().map(|&n| rel(n)).collect()).unwrap()
    }

    /// One line per step: its kind, its side and its relations.
    fn shape(steps: &[Step]) -> Vec<String> {
        let rels = |rels: &[RelId]| {
            rels.iter()
                .map(|r| r.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        (steps.iter())
            .map(|step| match step {
                Step::Matrix(_) => "matrix".into(),
                Step::Base { side, rel, attrs } => format!("base {side} R{} attrs={attrs}", rel.0),
                Step::Sub { side, rels: r, .. } => format!("sub {side} R{}", rels(r)),
                Step::Mark(_, vertices) => format!("mark {}", vertices.len()),
                Step::Join(stage, then) => {
                    let then = then.as_deref().map_or("out".into(), rels);
                    format!("join {} -> {then}", stage.name)
                }
                Step::Filter(_) => "filter".into(),
                Step::OneBucket(..) => "one-bucket".into(),
            })
            .collect()
    }

    #[test]
    fn provably_empty_joins_plan_no_step() {
        let steps = |q: &JoinQuery, sizes: &[usize]| {
            let input = input(q, sizes);
            shape(&Rccis::new(4).plan(q, &input).unwrap().steps)
        };
        let chain = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        assert_eq!(steps(&chain, &[3, 3, 3]), ["matrix"]);
        assert!(steps(&chain, &[3, 0, 3]).is_empty());
        // Overlaps orders starts strictly, so each relation starts first.
        let both = vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Overlaps, 0),
        ];
        let contradictory = JoinQuery::new(2, both).unwrap();
        assert!(steps(&contradictory, &[3, 3]).is_empty());
    }

    /// The cascade's plan: each stage puts its new relation on side 1 and
    /// joins; every join but the last hands its rows on as side 0.
    #[test]
    fn cascade_stages_add_a_side_then_join() {
        let q = JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap();
        let seed = vec![RelId(0)];
        let stages = plan_stages(seed.clone(), q.conditions()).unwrap();
        let input = input(&q, &[2, 2, 2, 2]);
        let steps = TwoWayCascade::new(4).steps(&input, seed, &stages).unwrap();
        assert_eq!(
            shape(&steps),
            [
                "base 1 R1 attrs=false",
                "join cascade-1 -> 0,1",
                "base 1 R2 attrs=false",
                "join cascade-2 -> 0,1,2",
                "base 1 R3 attrs=false",
                "join cascade-3 -> out",
            ]
        );
    }
}
