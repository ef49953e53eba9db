//! Reconstruction of the paper's Figure 3 worked example (Sections 5–6).
//!
//! The paper's running query is Q0 = `R1 overlaps R2 and R2 contains R3 and
//! R3 overlaps R4` over intervals u* ∈ R1, v* ∈ R2, w* ∈ R3, x* ∈ R4 laid
//! out across four partition-intervals. Figure 3 itself prints no
//! coordinates, so we reconstruct a layout satisfying the paper's stated
//! facts:
//!
//! * the output consists of exactly the six tuples V1–V6 of Section 6.1;
//! * reducer p2 (our index 1) receives
//!   `U_p2 = {u1,u2,u3,v1,v2,v3,w1,w2,x1,x3}` from splitting;
//! * `{u3,v1,w2}` and `{v3,w2}` are consistent sets crossing p2, and
//!   reducer p2 selects `{u3,v1,w2}` for replication;
//! * V1 = {u3,v1,w2,x2} is computed by reducer p3 (our index 2).
//!
//! (The paper's prose also claims `U2 = {u2,v1,w1,x3}` is consistent and
//! that v3 is replicated *by reducer p2* — claims inconsistent with its own
//! output list and replication rule; see DESIGN.md §5. We follow the
//! algorithm's definitions.)

use ij_core::oracle::oracle_join;
use ij_core::rccis::marking::mark;
use ij_core::rccis::Rccis;
use ij_core::{Algorithm, JoinInput};
use ij_interval::AllenPredicate::{Contains, Overlaps};
use ij_interval::{Interval, Partitioning, Relation};
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{crosses_partition, JoinQuery};

fn iv(s: i64, e: i64) -> Interval {
    Interval::new(s, e).unwrap()
}

/// The reconstructed Figure 3 layout. Tuple ids match the paper's
/// subscripts: R1 = [u0, u1, u2, u3], etc.
fn figure3_relations() -> Vec<Relation> {
    vec![
        Relation::from_intervals("R1", vec![iv(0, 8), iv(5, 13), iv(11, 12), iv(11, 22)]),
        Relation::from_intervals("R2", vec![iv(1, 9), iv(14, 33), iv(13, 24), iv(8, 31)]),
        Relation::from_intervals("R3", vec![iv(2, 5), iv(15, 19), iv(18, 27)]),
        Relation::from_intervals("R4", vec![iv(4, 9), iv(10, 12), iv(22, 29), iv(17, 35)]),
    ]
}

fn q0() -> JoinQuery {
    JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap()
}

fn partitioning() -> Partitioning {
    Partitioning::equi_width(0, 40, 4).unwrap()
}

/// The paper's six output tuples, as (u, v, w, x) id quadruples.
const PAPER_OUTPUT: [[u32; 4]; 6] = [
    [3, 1, 2, 2], // V1 = {u3, v1, w2, x2}
    [3, 1, 1, 3], // V2 = {u3, v1, w1, x3}
    [3, 2, 1, 3], // V3 = {u3, v2, w1, x3}
    [1, 3, 2, 2], // V4 = {u1, v3, w2, x2}
    [1, 3, 1, 3], // V5 = {u1, v3, w1, x3}
    [0, 0, 0, 0], // V6 = {u0, v0, w0, x0}
];

#[test]
fn oracle_finds_exactly_the_papers_six_tuples() {
    let q = q0();
    let input = JoinInput::bind_owned(&q, figure3_relations()).unwrap();
    let got = oracle_join(&q, &input);
    let mut want: Vec<Vec<u32>> = PAPER_OUTPUT.iter().map(|t| t.to_vec()).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn reducer_p2_input_matches_the_paper() {
    // Splitting routes to our partition 1 exactly the paper's U_p2.
    let part = partitioning();
    let rels = figure3_relations();
    let mut received: Vec<(usize, u32)> = Vec::new();
    for (r, rel) in rels.iter().enumerate() {
        for t in rel.tuples() {
            if ij_interval::ops::split(t.interval(), &part).contains(&1) {
                received.push((r, t.id));
            }
        }
    }
    let expected = vec![
        (0, 1), // u1
        (0, 2), // u2
        (0, 3), // u3
        (1, 1), // v1
        (1, 2), // v2
        (1, 3), // v3
        (2, 1), // w1
        (2, 2), // w2
        (3, 1), // x1
        (3, 3), // x3
    ];
    assert_eq!(received, expected);
}

#[test]
fn section53_crossing_sets() {
    let q = q0();
    let part = partitioning();
    let rels = figure3_relations();
    let get = |r: usize, t: u32| Some(rels[r].tuple(t).interval());

    // U4 = {u3, v1, w2} crosses p2 (our 1).
    assert!(crosses_partition(
        &q,
        &part,
        1,
        &[get(0, 3), get(1, 1), get(2, 2), None]
    ));
    // U5 = {v3, w2} crosses p2.
    assert!(crosses_partition(
        &q,
        &part,
        1,
        &[None, get(1, 3), get(2, 2), None]
    ));
    // U6 = {v3, w1} does not (w1 does not cross the right boundary).
    assert!(!crosses_partition(
        &q,
        &part,
        1,
        &[None, get(1, 3), get(2, 1), None]
    ));
}

#[test]
fn rccis_marking_at_p2_selects_the_papers_replication_set() {
    let q = q0();
    let part = partitioning();
    let rels = figure3_relations();
    let per_rel: Vec<Vec<(Interval, u32)>> = rels
        .iter()
        .map(|rel| {
            rel.tuples()
                .iter()
                .map(|t| (t.interval(), t.id))
                .filter(|(iv, _)| part.intersects_partition(*iv, 1))
                .collect()
        })
        .collect();
    let marking = mark(&q, &part, 1, per_rel);
    let flagged: Vec<(usize, u32)> = (marking.flagged.iter().enumerate())
        .flat_map(|(r, tids)| tids.iter().map(move |&tid| (r, tid)))
        .collect();
    // The paper's replication set {u3, v1, w2} is selected…
    for need in [(0usize, 3u32), (1, 1), (2, 2)] {
        assert!(flagged.contains(&need), "missing {need:?} in {flagged:?}");
    }
    // …and the paper's non-members u2, v3, x1 are not:
    for absent in [(0usize, 2u32), (1, 3), (3, 1)] {
        assert!(!flagged.contains(&absent), "extra {absent:?}");
    }
    // Our layout additionally justifies flagging w1 and x3 (via the
    // crossing set {v3, w1, x3}); see the module docs.
    assert!(flagged.contains(&(2, 1)));
    assert!(flagged.contains(&(3, 3)));
}

#[test]
fn u1_and_v3_are_replicated_by_reducer_p1() {
    // Section 6.1: "the interval u1 is replicated by reducer p1" (our 0).
    let q = q0();
    let part = partitioning();
    let rels = figure3_relations();
    let per_rel: Vec<Vec<(Interval, u32)>> = rels
        .iter()
        .map(|rel| {
            rel.tuples()
                .iter()
                .map(|t| (t.interval(), t.id))
                .filter(|(iv, _)| part.intersects_partition(*iv, 0))
                .collect()
        })
        .collect();
    let marking = mark(&q, &part, 0, per_rel);
    let flagged: Vec<(usize, u32)> = (marking.flagged.iter().enumerate())
        .flat_map(|(r, tids)| tids.iter().map(move |&tid| (r, tid)))
        .collect();
    assert_eq!(flagged, vec![(0, 1), (1, 3)]); // u1 and v3, nothing else
}

#[test]
fn v1_and_v4_are_owned_by_reducer_p3() {
    // Section 6.1: V1 (and V4) are computed by reducer p3 (our index 2) —
    // the partition where their right-most interval (x2) is projected.
    let part = partitioning();
    let rels = figure3_relations();
    for tuple in [[3u32, 1, 2, 2], [1, 3, 2, 2]] {
        let owner = tuple
            .iter()
            .enumerate()
            .map(|(r, &t)| part.index_of(rels[r].tuple(t).interval().start()))
            .max()
            .unwrap();
        assert_eq!(owner, 2);
    }
}

#[test]
fn rccis_reproduces_the_figure() {
    let q = q0();
    let input = JoinInput::bind_owned(&q, figure3_relations()).unwrap();
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let out = Rccis::new(4).run(&q, &input, &engine).unwrap();
    assert_eq!(out.assert_no_duplicates(), oracle_join(&q, &input));
    // Under the figure's partitioning ([0,40) in four), the flags are
    // {u1, v3} at p1, {u3, v1, v2, w1, w2, x3} at p2 and {x2} at p3 —
    // 9 in total (see the marking tests above). The algorithm partitions
    // the tight data span [0, 36) instead, which shifts two boundaries and
    // flags two more intervals.
    assert_eq!(out.stats.replicated_intervals, Some(11));
}
