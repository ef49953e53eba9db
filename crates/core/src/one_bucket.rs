//! 1-Bucket-Theta (Okcan & Riedewald, SIGMOD 2011) — the related work the
//! paper's All-Matrix extends (Section 7.2: "The idea of theta-join output
//! space as a cross-product of relations was first used in Okcan et al.").
//!
//! The 2-way join's output space is the |R1| × |R2| cross-product matrix,
//! tiled into `rows × cols` cells. Each left tuple is assigned a *random*
//! row and sent to every cell of that row; each right tuple a random column
//! and sent to every cell of that column — so every (left, right) pair
//! meets in exactly one cell. Unlike All-Matrix the assignment ignores the
//! data entirely: load balance is perfect by construction for any
//! distribution and any theta predicate, at the price of replicating every
//! left tuple `cols` times and every right tuple `rows` times, with no
//! inconsistent-cell pruning possible.
//!
//! Included as a baseline: the paper's contribution is precisely that for
//! *interval* predicates the start-point order makes the partitioned
//! matrix (fewer copies, pruned cells) possible.
//!
//! The family builds a plan (`crate::plan`) of one step of its own: a
//! hashed route reads no partitioning, so it is not a route table of the
//! component-matrix join stage.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm};
use crate::input::JoinInput;
use crate::kernel::{BucketJoin, OneSlot};
use crate::output::{JoinOutput, OutputMode};
use crate::plan::{Plan, Report, Step};
use crate::records::{Columns, IvRec, OutRec};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Emitter, Engine, EngineError, JobOutput, ReduceCtx, ValueStream};
use ij_query::JoinQuery;

/// The 1-Bucket-Theta 2-way join.
#[derive(Debug, Clone)]
pub struct OneBucketTheta {
    /// Matrix rows (left-relation side).
    pub rows: usize,
    /// Matrix columns (right-relation side).
    pub cols: usize,
    /// Materialize or count.
    pub mode: OutputMode,
    /// Seed for the (deterministic) tuple-to-row/column assignment.
    pub seed: u64,
}

impl OneBucketTheta {
    /// A `rows × cols` bucket matrix, materializing output.
    pub fn new(rows: usize, cols: usize) -> Self {
        OneBucketTheta {
            rows,
            cols,
            mode: OutputMode::Materialize,
            seed: 0,
        }
    }

    /// The cycle: each left tuple to every cell of its hashed row, each
    /// right tuple to every cell of its hashed column.
    pub(crate) fn cycle(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JobOutput<OutRec>, EngineError> {
        let (rows, cols, seed) = (self.rows as u64, self.cols as u64, self.seed);
        let join = OneSlot::new(query, self.mode);
        engine.run_job(
            "one-bucket-theta",
            &Columns::of(input),
            move |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let h = mix(seed, ((rec.rel.0 as u64) << 32) | rec.tid as u64);
                if rec.rel.idx() == 0 {
                    let row = h % rows;
                    for col in 0..cols {
                        em.emit(row * cols + col, *rec);
                    }
                    em.inc(names::ONEBUCKET_ROW_COPIES, cols);
                } else {
                    let col = h % cols;
                    for row in 0..rows {
                        em.emit(row * cols + col, *rec);
                    }
                    em.inc(names::ONEBUCKET_COL_COPIES, rows);
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
                join.reduce(ctx, values, &[], out)
            },
        )
    }
}

/// SplitMix64 — a tiny, high-quality deterministic mixer; the "random"
/// row/column assignment must be reproducible across mapper threads.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Algorithm for OneBucketTheta {
    fn name(&self) -> &'static str {
        "1-Bucket-Theta"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        if query.num_relations() != 2 {
            return Err(AlgoError::Unsupported {
                algorithm: self.name(),
                reason: "1-Bucket-Theta is a 2-way join".into(),
            });
        }
        if self.rows == 0 || self.cols == 0 {
            return Err(AlgoError::BadConfig("rows and cols must be >= 1".into()));
        }
        let steps = vec![Step::OneBucket(self, query)];
        Plan::new(query, input, self.mode, Report::Cells, steps).run(input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_matrix::AllMatrix;
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
                Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap()
            }),
        )
    }

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    fn check(pred: AllenPredicate, seed: u64) {
        let q = JoinQuery::chain(&[pred]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 100, 300, 40),
                random_rel(&mut rng, 100, 300, 40),
            ],
        )
        .unwrap();
        let got = OneBucketTheta::new(3, 4)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "{pred}");
    }

    #[test]
    fn matches_oracle_on_every_predicate() {
        for (i, pred) in AllenPredicate::ALL.into_iter().enumerate() {
            check(pred, 700 + i as u64);
        }
    }

    #[test]
    fn load_is_balanced_even_under_extreme_skew() {
        // Every interval identical: start-partitioned schemes collapse onto
        // one reducer; the random bucket matrix stays flat.
        let q = JoinQuery::chain(&[Before]).unwrap();
        let left = Relation::from_intervals("L", vec![Interval::new(0, 1).unwrap(); 400]);
        let right = Relation::from_intervals("R", vec![Interval::new(5, 6).unwrap(); 400]);
        let input = JoinInput::bind_owned(&q, vec![left, right]).unwrap();
        let obt = OneBucketTheta::new(4, 4)
            .run(&q, &input, &engine())
            .unwrap();
        let obt_skew = obt.chain.cycles[0].skew();
        assert!(obt_skew < 1.3, "skew {obt_skew}");
        // All-Matrix under the same degenerate data concentrates both
        // relations onto the coordinate-0 cells and skews accordingly.
        let am = AllMatrix::new(4).run(&q, &input, &engine()).unwrap();
        let am_skew = am.chain.cycles[0].skew();
        assert!(
            am_skew > obt_skew + 0.2,
            "All-Matrix skew {am_skew} should exceed bucket skew {obt_skew}"
        );
        assert_eq!(obt.count, am.count);
    }

    #[test]
    fn replicates_more_than_all_matrix_on_uniform_data() {
        // The trade-off the paper's Section 7.2 describes: the bucket matrix
        // ships rows+cols copies per tuple; All-Matrix's start-partitioned
        // cells ship fewer on well-spread data.
        let q = JoinQuery::chain(&[Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 300, 1000, 20),
                random_rel(&mut rng, 300, 1000, 20),
            ],
        )
        .unwrap();
        let obt = OneBucketTheta::new(4, 4)
            .run(&q, &input, &engine())
            .unwrap();
        let am = AllMatrix::new(4).run(&q, &input, &engine()).unwrap();
        assert_eq!(obt.count, am.count);
        assert!(
            obt.chain.total_pairs() > am.chain.total_pairs(),
            "bucket {} vs matrix {}",
            obt.chain.total_pairs(),
            am.chain.total_pairs()
        );
    }

    #[test]
    fn counters_count_matrix_copies() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 50, 300, 40),
                random_rel(&mut rng, 70, 300, 40),
            ],
        )
        .unwrap();
        let out = OneBucketTheta::new(3, 4)
            .run(&q, &input, &engine())
            .unwrap();
        let c = out.chain.total_counters();
        // Every left tuple is copied to all 4 columns, every right tuple to
        // all 3 rows — exactly, by construction.
        assert_eq!(c.get("onebucket.row_copies"), 50 * 4);
        assert_eq!(c.get("onebucket.col_copies"), 70 * 3);
        assert_eq!(
            c.get("onebucket.row_copies") + c.get("onebucket.col_copies"),
            out.chain.total_pairs()
        );
        assert!(c.get("join.candidates") >= c.get("join.emitted"));
    }

    #[test]
    fn rejects_multiway() {
        let q = JoinQuery::chain(&[Before, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rels = (0..3).map(|_| random_rel(&mut rng, 5, 50, 5)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        assert!(matches!(
            OneBucketTheta::new(2, 2).run(&q, &input, &engine()),
            Err(AlgoError::Unsupported { .. })
        ));
    }
}
