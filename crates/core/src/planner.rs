//! Choosing an algorithm for a query — the paper's Sections 6–9 as a
//! dispatch table.
//!
//! | Query class | Chosen algorithm |
//! |-------------|------------------|
//! | any 2-way single-attribute | [`TwoWayJoin`] (Section 4) |
//! | Colocation | [`Rccis`] (Section 6) |
//! | Sequence | [`AllMatrix`] (Section 7) |
//! | Hybrid | [`AllSeqMatrix`] or [`Pasm`] (Section 8) |
//! | General | [`GenMatrix`] (Section 9) |
//!
//! The marking behind RCCIS, All-Seq-Matrix and PASM enumerates subsets of
//! at most 16 relations; a colocation or hybrid query with a larger
//! colocation group goes to [`AllReplicate`], which marks nothing.
//!
//! [`auto_tune`] picks the partition counts for a cluster's slots.

use crate::algorithm::Algorithm;
use crate::all_matrix::{AllMatrix, CellSpace};
use crate::all_replicate::AllReplicate;
use crate::gen_matrix::GenMatrix;
use crate::hybrid::{AllSeqMatrix, Pasm};
use crate::output::OutputMode;
use crate::rccis::marking::MAX_RELATIONS;
use crate::rccis::Rccis;
use crate::two_way::TwoWayJoin;
use ij_interval::{Partitioning, Time};
use ij_query::{JoinQuery, QueryClass};

/// Tuning knobs for the planner.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Partitions for 1-D algorithms (2-way, RCCIS).
    pub partitions: usize,
    /// The paper's `o` for the matrix algorithms: the grid — `o` partitions
    /// in every dimension, which a setting of two or three dimensions may
    /// reshape per dimension by an exact count — and the cell budget
    /// `o^D` any reshaped grid stays within.
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
    /// Prefer PASM over All-Seq-Matrix for hybrid queries (pays one extra
    /// cycle to prune; wins when component joins are selective). The extra
    /// cycle is cheap when a component has a small member: its prune then
    /// ships only the small side, once per task, not the whole component.
    pub prune_hybrid: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            partitions: 16,
            per_dim: 6,
            mode: OutputMode::Materialize,
            prune_hybrid: false,
        }
    }
}

/// Chooses partition counts so the number of reducers tracks the slot
/// count: 1-D algorithms get one partition per slot; matrix algorithms get
/// the smallest `o` whose *consistent* cell count reaches the slot count.
pub fn auto_tune(q: &JoinQuery, slots: usize) -> PlanConfig {
    let comps = q.components();
    let dims = comps.len().max(1);
    let order = q.start_order();
    let constraints = order.component_constraints(&comps);
    let target = slots.max(1) as u64;
    let mut per_dim = 2;
    for o in 2..=32usize {
        per_dim = o;
        // `o` one-tick partitions: only the partition count matters here.
        let Ok(grid) = Partitioning::equi_width(0, o as Time, o) else {
            break;
        };
        if let Ok(space) = CellSpace::new(&vec![&grid; dims], constraints.clone()) {
            if space.consistent_cells().len() as u64 >= target {
                break;
            }
        } else {
            // Matrix too large to enumerate — back off one step.
            per_dim = o.saturating_sub(1).max(2);
            break;
        }
    }
    PlanConfig {
        partitions: slots.max(1),
        per_dim,
        ..PlanConfig::default()
    }
}

/// Whether the group a marking family would mark — RCCIS's every relation,
/// a hybrid query's colocation components — is beyond the marking's limit.
fn marks_too_many(query: &JoinQuery) -> bool {
    let widest = || {
        query
            .components()
            .components
            .iter()
            .map(|c| c.vertices.len())
            .max()
    };
    match query.class() {
        QueryClass::Colocation => query.num_relations() as usize > MAX_RELATIONS,
        QueryClass::Hybrid => widest().unwrap_or(0) > MAX_RELATIONS,
        QueryClass::Sequence | QueryClass::General => false,
    }
}

/// Picks the paper's algorithm for the query's class.
pub fn plan(query: &JoinQuery, cfg: PlanConfig) -> Box<dyn Algorithm> {
    if query.num_relations() == 2 && query.class() != QueryClass::General {
        return Box::new(TwoWayJoin {
            partitions: cfg.partitions,
            mode: cfg.mode,
        });
    }
    if marks_too_many(query) {
        return Box::new(AllReplicate {
            partitions: cfg.partitions,
            mode: cfg.mode,
        });
    }
    match query.class() {
        QueryClass::Colocation => Box::new(Rccis {
            partitions: cfg.partitions,
            mode: cfg.mode,
            mark_options: Default::default(),
            partition_strategy: Default::default(),
        }),
        QueryClass::Sequence => Box::new(AllMatrix {
            per_dim: cfg.per_dim,
            mode: cfg.mode,
            prune_inconsistent: true,
        }),
        QueryClass::Hybrid => {
            if cfg.prune_hybrid {
                Box::new(Pasm {
                    per_dim: cfg.per_dim,
                    mode: cfg.mode,
                })
            } else {
                Box::new(AllSeqMatrix {
                    per_dim: cfg.per_dim,
                    mode: cfg.mode,
                })
            }
        }
        QueryClass::General => Box::new(GenMatrix {
            per_dim: cfg.per_dim,
            mode: cfg.mode,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_query::parse_query;

    fn plan_name(q: &str) -> &'static str {
        plan(&parse_query(q).unwrap(), PlanConfig::default()).name()
    }

    #[test]
    fn dispatch_matches_paper_sections() {
        assert_eq!(plan_name("R1 overlaps R2"), "2-way");
        assert_eq!(plan_name("R1 before R2"), "2-way");
        assert_eq!(plan_name("R1 overlaps R2 and R2 contains R3"), "RCCIS");
        assert_eq!(plan_name("R1 before R2 and R2 before R3"), "All-Matrix");
        assert_eq!(
            plan_name("R1 overlaps R2 and R2 before R3"),
            "All-Seq-Matrix"
        );
        assert_eq!(
            plan_name("R1.I overlaps R2.I and R1.A = R2.A"),
            "Gen-Matrix"
        );
    }

    #[test]
    fn colocation_groups_beyond_the_marking_limit_replicate() {
        let chain = |n: usize| ij_query::JoinQuery::chain(&vec![Overlaps; n]).unwrap();
        let cfg = PlanConfig::default();
        assert_eq!(plan(&chain(MAX_RELATIONS - 1), cfg).name(), "RCCIS");
        assert_eq!(plan(&chain(MAX_RELATIONS), cfg).name(), "All-Rep");
        let mut preds = vec![Overlaps; MAX_RELATIONS];
        preds.push(Before);
        assert_eq!(
            plan(&ij_query::JoinQuery::chain(&preds).unwrap(), cfg).name(),
            "All-Rep"
        );
        preds.remove(0);
        assert_eq!(
            plan(&ij_query::JoinQuery::chain(&preds).unwrap(), cfg).name(),
            "All-Seq-Matrix"
        );
    }

    #[test]
    fn auto_tune_tracks_slots() {
        // Pure sequence 3-way: consistent cells grow ~ o^3/6 and the tuner
        // lands around o = 4-5 (C(o+2,3) >= 16).
        let q = JoinQuery::chain(&[Before, Before]).unwrap();
        let cfg = auto_tune(&q, 16);
        assert_eq!(cfg.partitions, 16);
        assert!((4..=8).contains(&cfg.per_dim), "per_dim = {}", cfg.per_dim);
        // Hybrid Q4: two dims, one constraint -> o(o+1)/2 >= 16 at o = 6.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Before, 1),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let cfg = auto_tune(&q, 16);
        assert!((6..=10).contains(&cfg.per_dim), "per_dim = {}", cfg.per_dim);
    }

    #[test]
    fn prune_hybrid_selects_pasm() {
        let q = ij_query::JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let cfg = PlanConfig {
            prune_hybrid: true,
            ..PlanConfig::default()
        };
        assert_eq!(plan(&q, cfg).name(), "PASM");
    }

    #[test]
    fn planned_algorithms_run() {
        use crate::input::JoinInput;
        use crate::oracle::oracle_join;
        use ij_interval::{Interval, Relation};
        use ij_mapreduce::{ClusterConfig, Engine};
        let engine = Engine::new(ClusterConfig::with_slots(4));
        for qs in [
            "R1 overlaps R2",
            "R1 overlaps R2 and R2 contains R3",
            "R1 before R2 and R2 before R3",
            "R1 overlaps R2 and R2 before R3",
        ] {
            let q = parse_query(qs).unwrap();
            let rels = (0..q.num_relations())
                .map(|r| {
                    Relation::from_intervals(
                        format!("R{r}"),
                        (0..30).map(|i| {
                            let s = (i * 37 + r as i64 * 11) % 200;
                            Interval::new(s, s + 25).unwrap()
                        }),
                    )
                })
                .collect();
            let input = JoinInput::bind_owned(&q, rels).unwrap();
            let alg = plan(&q, PlanConfig::default());
            let got = alg.run(&q, &input, &engine).unwrap().assert_no_duplicates();
            assert_eq!(got, oracle_join(&q, &input), "{qs}");
        }
    }
}
