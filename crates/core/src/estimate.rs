//! Cardinality and communication estimation — the paper's stated future
//! work ("We can further improve All-Matrix by using the cost models …
//! presented in Zhang et al.", Section 7.2; "the cost model … will need to
//! be updated by taking the distribution of interval lengths into
//! account").
//!
//! [`RelationStats`] summarizes a relation with a start-point histogram and
//! the length moments; [`estimate_output`] predicts a query's output
//! cardinality from them; [`auto_tune`] picks partition counts for the
//! planner so the number of *consistent* reducers tracks the cluster's
//! slots. Estimates are order-of-magnitude planning aids (validated within
//! small factors on uniform data in the tests), not exact counts.

use crate::all_matrix::CellSpace;
use crate::planner::PlanConfig;
use ij_interval::{AllenPredicate, Partitioning, Relation, Time};
use ij_query::JoinQuery;

/// Histogram buckets used by [`RelationStats::collect`].
const BUCKETS: usize = 64;

/// Summary statistics of one relation's (attribute-0) intervals.
#[derive(Debug, Clone)]
pub struct RelationStats {
    /// Number of tuples.
    pub n: u64,
    /// Minimum start point.
    pub t_min: i64,
    /// Maximum end point.
    pub t_max: i64,
    /// Mean interval length.
    pub mean_len: f64,
    /// Start-point counts over 64 equi-width buckets of `[t_min, t_max]`.
    pub start_hist: Vec<u64>,
}

impl RelationStats {
    /// Collects statistics from a relation. Empty relations produce a
    /// degenerate-but-safe summary.
    pub fn collect(rel: &Relation) -> RelationStats {
        if rel.is_empty() {
            return RelationStats {
                n: 0,
                t_min: 0,
                t_max: 1,
                mean_len: 0.0,
                start_hist: vec![0; BUCKETS],
            };
        }
        let span = rel.attr_span(0).expect("non-empty");
        let (t_min, t_max) = (span.start(), span.end());
        let width = ((t_max - t_min) as f64 / BUCKETS as f64).max(1e-9);
        let mut hist = vec![0u64; BUCKETS];
        let mut total_len = 0i64;
        for t in rel.tuples() {
            let iv = t.attr(0);
            total_len += iv.len();
            let b = (((iv.start() - t_min) as f64 / width) as usize).min(BUCKETS - 1);
            hist[b] += 1;
        }
        RelationStats {
            n: rel.len() as u64,
            t_min,
            t_max,
            mean_len: total_len as f64 / rel.len() as f64,
            start_hist: hist,
        }
    }

    /// The covered span length (at least 1).
    pub fn span(&self) -> f64 {
        ((self.t_max - self.t_min) as f64).max(1.0)
    }

    /// Average start density: tuples per time unit.
    pub fn density(&self) -> f64 {
        self.n as f64 / self.span()
    }

    /// Expected number of starts in a window of length `w` placed at a
    /// typical location (histogram-weighted density times `w`).
    fn starts_in_window(&self, w: f64) -> f64 {
        self.density() * w.max(0.0)
    }

    /// Fraction of this relation's starts lying after a typical point of
    /// another relation's interval ends — used for *before* estimates.
    /// Computed from the start histogram against a uniform reference point.
    fn fraction_after_typical_point(&self) -> f64 {
        // For a uniformly chosen reference point over the span, the
        // expected fraction of starts after it is the mean normalized rank
        // of the histogram mass: sum_b hist[b] * (1 - (b+0.5)/B) / n.
        if self.n == 0 {
            return 0.0;
        }
        let b = self.start_hist.len() as f64;
        let mass: f64 = self
            .start_hist
            .iter()
            .enumerate()
            .map(|(i, &h)| h as f64 * (1.0 - (i as f64 + 0.5) / b))
            .sum();
        mass / self.n as f64
    }
}

/// Expected number of `right` tuples matching one typical `left` tuple
/// under `pred` (`left pred right`).
pub fn expected_matches(pred: AllenPredicate, left: &RelationStats, right: &RelationStats) -> f64 {
    use AllenPredicate::*;
    match pred {
        // Sequence: roughly the mass of right starts after (before) a
        // typical left end (start).
        Before => right.n as f64 * right.fraction_after_typical_point(),
        After => right.n as f64 * (1.0 - right.fraction_after_typical_point()),
        // Colocation with the partner's start inside the left interval:
        // density × window, halved for the end-point order requirement.
        Overlaps | Contains => 0.5 * right.starts_in_window(left.mean_len),
        // Converse forms: partner starts inside the *right* interval; per
        // left tuple that is density-of-right × right mean length, halved.
        OverlappedBy | ContainedBy => 0.5 * right.starts_in_window(right.mean_len),
        // Endpoint-coincidence predicates: about one tick of start density
        // (meets: start == left end; starts/equals: start == left start).
        Meets | MetBy | Starts | StartedBy | Equals => right.density().min(right.n as f64),
        // End-coincidence: one tick of *end* density ≈ start density.
        Finishes | FinishedBy => right.density().min(right.n as f64),
    }
}

/// Estimated output cardinality of a query: the size of the first bound
/// relation times the expected fan-out along a spanning tree of the join
/// graph (extra edges contribute a crude independence filter).
pub fn estimate_output(q: &JoinQuery, stats: &[RelationStats]) -> f64 {
    let m = q.num_relations() as usize;
    debug_assert_eq!(stats.len(), m);
    let mut bound = vec![false; m];
    // Bind in condition order, like the cascade plan.
    let first = q.conditions()[0].left.rel.idx();
    bound[first] = true;
    let mut est = stats[first].n as f64;
    let mut remaining: Vec<_> = q.conditions().to_vec();
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|c| bound[c.left.rel.idx()] || bound[c.right.rel.idx()]);
        let Some(pos) = pos else { break };
        let c = remaining.remove(pos);
        let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
        match (bound[l], bound[r]) {
            (true, false) => {
                est *= expected_matches(c.pred, &stats[l], &stats[r]).max(0.0);
                bound[r] = true;
            }
            (false, true) => {
                est *= expected_matches(c.pred.inverse(), &stats[r], &stats[l]).max(0.0);
                bound[l] = true;
            }
            // Both bound: treat as a filter — the fraction of pairs
            // satisfying the predicate among all pairs.
            (true, true) => {
                let per_left = expected_matches(c.pred, &stats[l], &stats[r]);
                let frac = (per_left / stats[r].n.max(1) as f64).clamp(0.0, 1.0);
                est *= frac;
            }
            (false, false) => unreachable!("pos guarantees one endpoint bound"),
        }
    }
    est
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::JoinInput;
    use crate::oracle::oracle_join;
    use ij_datagen::SynthConfig;
    use ij_interval::AllenPredicate::*;

    fn stats_for(n: usize, seed: u64) -> (Relation, RelationStats) {
        let rel = SynthConfig::table1(n, seed).generate("R");
        let st = RelationStats::collect(&rel);
        (rel, st)
    }

    #[test]
    fn stats_reflect_generation_parameters() {
        let (_, st) = stats_for(10_000, 1);
        assert_eq!(st.n, 10_000);
        // Table 1 config: lengths uniform in 1..=100 -> mean ~ 50.5.
        assert!(
            (st.mean_len - 50.5).abs() < 3.0,
            "mean_len = {}",
            st.mean_len
        );
        // Uniform starts: histogram buckets within 3x of each other.
        let max = *st.start_hist.iter().max().unwrap() as f64;
        let min = *st.start_hist.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 3.0);
    }

    #[test]
    fn output_estimate_within_small_factor_on_uniform_data() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let rels: Vec<Relation> = (0..3)
            .map(|r| SynthConfig::table1(4_000, 10 + r).generate("R"))
            .collect();
        let stats: Vec<RelationStats> = rels.iter().map(RelationStats::collect).collect();
        let est = estimate_output(&q, &stats);
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let actual = oracle_join(&q, &input).len() as f64;
        assert!(actual > 0.0);
        let ratio = est / actual;
        assert!(
            (0.25..4.0).contains(&ratio),
            "estimate {est}, actual {actual}, ratio {ratio}"
        );
    }

    #[test]
    fn before_estimate_tracks_half_of_pairs() {
        let q = JoinQuery::chain(&[Before]).unwrap();
        let rels: Vec<Relation> = (0..2)
            .map(|r| SynthConfig::fig5a(800, 20 + r).generate("R"))
            .collect();
        let stats: Vec<RelationStats> = rels.iter().map(RelationStats::collect).collect();
        let est = estimate_output(&q, &stats);
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let actual = oracle_join(&q, &input).len() as f64;
        let ratio = est / actual;
        assert!(
            (0.3..3.0).contains(&ratio),
            "estimate {est}, actual {actual}"
        );
    }

    #[test]
    fn auto_tune_tracks_slots() {
        // Pure sequence 3-way: the window-scan multiplier 0.35 floors at
        // 0.5, so the cell target is 16; consistent cells grow ~ o^3/6 and the
        // tuner lands around o = 4-5 (C(o+2,3) >= 16).
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
    fn empty_relation_stats_are_safe() {
        let st = RelationStats::collect(&Relation::new("E", 1));
        assert_eq!(st.n, 0);
        assert_eq!(st.density(), 0.0);
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let other = stats_for(100, 50).1;
        assert_eq!(estimate_output(&q, &[st, other]), 0.0);
    }
}
