//! The m-dimensional reducer matrix and its consistent cells.
//!
//! All-Matrix visualizes reducers as cells of the m-dimensional
//! cross-product space; a cell is identified by the m-tuple of its
//! per-dimension indices. The paper divides every dimension into the same
//! `o` partitions; here each dimension has a grid of its own (equal grids
//! are the paper's matrix), and the cell ids are mixed-radix. A cell is
//! *consistent* (Section 7.1) when it can hold a binding that respects every
//! less-than order between dimensions: a `dim_j <= dim_k` constraint keeps
//! the cells whose dimension-`j` window starts no later than their
//! dimension-`k` window ends. On equal grids that is `coord_j <= coord_k`.
//! Map functions never send anything to inconsistent cells — the
//! communication saving of the matrix algorithms.

use crate::algorithm::AlgoError;
use crate::component_matrix::start_window;
use ij_interval::{Partitioning, Time};
use ij_mapreduce::ReducerId;
use std::ops::Range;

/// Maximum cells we are willing to enumerate (`o^m` grows quickly).
const MAX_CELLS: u64 = 4_000_000;

/// Per dimension, the [`start_window`] of every partition of its grid: the
/// start points coordinate `i` of dimension `d` owns are `windows[d][i]`.
pub(crate) type Windows = Vec<Vec<(Time, Time)>>;

/// The windows of `grids`, one dimension per grid.
pub(crate) fn windows_of(grids: &[&Partitioning]) -> Windows {
    let windows = |part: &Partitioning| part.indices().map(|i| start_window(part, i)).collect();
    grids.iter().map(|&part| windows(part)).collect()
}

/// Whether the cell `coords` is consistent: for every `(j, k)` its
/// dimension-`j` window starts no later than its dimension-`k` window ends.
fn consistent<W: AsRef<[(Time, Time)]>>(
    windows: &[W],
    constraints: &[(usize, usize)],
    coords: &[usize],
) -> bool {
    let window = |d: usize| windows[d].as_ref()[coords[d]];
    (constraints.iter()).all(|&(j, k)| window(j).0 <= window(k).1)
}

/// Every coordinate of each dimension of `windows`.
pub(crate) fn every<W: AsRef<[(Time, Time)]>>(windows: &[W]) -> Vec<Range<usize>> {
    windows.iter().map(|w| 0..w.as_ref().len()).collect()
}

/// Calls `visit` with the coordinates of every consistent cell whose
/// dimension-`d` coordinate lies in `within[d]` ([`every`] for the whole
/// matrix), in ascending mixed-radix id order (dimension 0 least
/// significant).
pub(crate) fn for_each_consistent<W: AsRef<[(Time, Time)]>>(
    windows: &[W],
    constraints: &[(usize, usize)],
    within: &[Range<usize>],
    mut visit: impl FnMut(&[usize]),
) {
    if within.iter().any(Range::is_empty) {
        return;
    }
    let mut coords: Vec<usize> = within.iter().map(|r| r.start).collect();
    loop {
        if consistent(windows, constraints, &coords) {
            visit(&coords);
        }
        // Odometer, dimension 0 fastest.
        let mut d = 0;
        loop {
            coords[d] += 1;
            if coords[d] < within[d].end {
                break;
            }
            coords[d] = within[d].start;
            d += 1;
            if d == windows.len() {
                return;
            }
        }
    }
}

/// An m-dimensional reducer matrix with per-dimension ordering constraints.
#[derive(Debug, Clone)]
pub struct CellSpace {
    windows: Windows,
    constraints: Vec<(usize, usize)>,
    /// Consistent cells, encoded, ascending.
    consistent: Vec<ReducerId>,
    /// `by_eq[d][q]`: consistent cells with `coord[d] == q`.
    by_eq: Vec<Vec<Vec<ReducerId>>>,
    /// `by_ge[d][q]`: consistent cells with `coord[d] >= q`.
    by_ge: Vec<Vec<Vec<ReducerId>>>,
}

impl CellSpace {
    /// Builds the matrix of one dimension per grid, dimension `d` cut as
    /// `grids[d]`, with `constraints` of the form `(j, k)`: the start of a
    /// binding's dimension-`j` members is at most that of its dimension-`k`
    /// members.
    pub fn new(
        grids: &[&Partitioning],
        constraints: Vec<(usize, usize)>,
    ) -> Result<Self, AlgoError> {
        let dims = grids.len();
        if dims == 0 {
            return Err(AlgoError::BadConfig("cell space needs dims >= 1".into()));
        }
        let total = (grids.iter()).try_fold(1u64, |n, part| n.checked_mul(part.len() as u64));
        match total {
            Some(t) if t <= MAX_CELLS => {}
            _ => {
                let radix: Vec<usize> = grids.iter().map(|part| part.len()).collect();
                return Err(AlgoError::BadConfig(format!(
                    "cell matrix {radix:?} exceeds {MAX_CELLS} cells"
                )));
            }
        }
        for &(j, k) in &constraints {
            if j >= dims || k >= dims {
                return Err(AlgoError::BadConfig(format!(
                    "constraint ({j}, {k}) out of range for {dims} dims"
                )));
            }
        }
        let mut space = CellSpace {
            windows: windows_of(grids),
            constraints,
            consistent: Vec::new(),
            by_eq: Vec::new(),
            by_ge: Vec::new(),
        };
        let mut consistent = Vec::new();
        space.for_each_in(&every(&space.windows), |cell| consistent.push(cell));
        space.consistent = consistent;
        space.index();
        Ok(space)
    }

    fn index(&mut self) {
        self.by_eq = (self.windows.iter())
            .map(|w| vec![Vec::new(); w.len()])
            .collect();
        for &cell in &self.consistent {
            let coords = self.decode(cell);
            for (d, &coord) in coords.iter().enumerate() {
                self.by_eq[d][coord].push(cell);
            }
        }
        // by_ge[d][q] = cells with coord[d] >= q, built by suffix union.
        self.by_ge = self.by_eq.clone();
        for by_ge in &mut self.by_ge {
            let mut acc: Vec<ReducerId> = Vec::new();
            for cells in by_ge.iter_mut().rev() {
                acc.extend(cells.iter().copied());
                acc.sort_unstable();
                cells.clone_from(&acc);
            }
        }
    }

    /// Encodes cell coordinates into a [`ReducerId`]: mixed radix,
    /// dimension 0 least significant.
    pub fn encode(&self, coords: &[usize]) -> ReducerId {
        debug_assert_eq!(coords.len(), self.dims());
        debug_assert!((coords.iter().zip(&self.windows)).all(|(&c, w)| c < w.len()));
        (coords.iter().zip(&self.windows).rev())
            .fold(0u64, |acc, (&c, w)| acc * w.len() as u64 + c as u64)
    }

    /// Decodes a [`ReducerId`] back to coordinates.
    pub fn decode(&self, mut id: ReducerId) -> Vec<usize> {
        let coords = self.windows.iter().map(|w| {
            let c = (id % w.len() as u64) as usize;
            id /= w.len() as u64;
            c
        });
        coords.collect()
    }

    /// All consistent cells, ascending.
    pub fn consistent_cells(&self) -> &[ReducerId] {
        &self.consistent
    }

    /// Consistent cells whose dimension-`d` coordinate lies in `coords`: a
    /// map operation's partition range lifted to the matrix. A project's
    /// range is one coordinate — the cells of conditions D1 + D2 — and a
    /// replicate's every coordinate from its start on (condition E2's
    /// `i_k >= q` arm). A split's range may end early, which only one
    /// dimension can lift: there cell `c` is coordinate `c`, and the range
    /// is a prefix of the replicate's.
    pub(crate) fn cells_in(&self, d: usize, coords: Range<usize>) -> &[ReducerId] {
        let ge = &self.by_ge[d][coords.start];
        let radix = self.partitions(d);
        debug_assert!(self.dims() == 1 || coords.len() == 1 || coords.end == radix);
        match coords.len() {
            1 => &self.by_eq[d][coords.start],
            _ if coords.end == radix => ge,
            n => &ge[..n],
        }
    }

    /// Calls `visit` with every consistent cell whose dimension-`d`
    /// coordinate lies in `within[d]`, ascending: the routing set of a
    /// record constrained in several dimensions.
    pub(crate) fn for_each_in(&self, within: &[Range<usize>], mut visit: impl FnMut(ReducerId)) {
        for_each_consistent(&self.windows, &self.constraints, within, |coords| {
            visit(self.encode(coords))
        });
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.windows.len()
    }

    /// Partitions of dimension `d`, its radix `k_d`.
    pub fn partitions(&self, d: usize) -> usize {
        self.windows[d].len()
    }

    /// Total cells `Π k_d` (`o^m` on the paper's equal grids).
    pub fn total_cells(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two indices `cells_in` reads, and the consistency test.
    impl CellSpace {
        pub(crate) fn is_consistent(&self, coords: &[usize]) -> bool {
            consistent(&self.windows, &self.constraints, coords)
        }

        fn cells_eq(&self, d: usize, q: usize) -> &[ReducerId] {
            &self.by_eq[d][q]
        }

        fn cells_ge(&self, d: usize, q: usize) -> &[ReducerId] {
            &self.by_ge[d][q]
        }
    }

    /// `o` one-tick partitions per dimension: the paper's equal grids.
    fn grid(o: usize) -> Partitioning {
        Partitioning::equi_width(0, o as Time, o).unwrap()
    }

    /// The paper's matrix: `dims` dimensions of `o` partitions each.
    fn equal(dims: usize, o: usize, constraints: Vec<(usize, usize)>) -> CellSpace {
        let part = grid(o);
        CellSpace::new(&vec![&part; dims], constraints).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = equal(3, 5, vec![]);
        for cell in s.consistent_cells() {
            assert_eq!(s.encode(&s.decode(*cell)), *cell);
        }
        assert_eq!(s.consistent_cells().len(), 125);
    }

    #[test]
    fn mixed_radix_round_trip_and_total() {
        let (a, b, c) = (grid(2), grid(12), grid(3));
        let s = CellSpace::new(&[&a, &b, &c], vec![]).unwrap();
        assert_eq!(s.total_cells(), 2 * 12 * 3);
        assert_eq!(
            (s.partitions(0), s.partitions(1), s.partitions(2)),
            (2, 12, 3)
        );
        assert_eq!(s.consistent_cells().len(), 72);
        for (id, &cell) in s.consistent_cells().iter().enumerate() {
            assert_eq!(cell, id as ReducerId, "dense ids without constraints");
            let coords = s.decode(cell);
            assert_eq!(s.encode(&coords), cell);
            assert_eq!(
                cell,
                (coords[0] + 2 * coords[1] + 24 * coords[2]) as ReducerId
            );
        }
    }

    #[test]
    fn figure4_two_dims_before() {
        // R1 before R2 with o=3: consistent cells are i1 <= i2 — six of nine.
        let s = equal(2, 3, vec![(0, 1)]);
        assert_eq!(s.consistent_cells().len(), 6);
        assert!(s.is_consistent(&[0, 2]));
        assert!(!s.is_consistent(&[1, 0]));
    }

    /// The q4 shares grid: dimension 0 on twelve partitions, dimension 1 on
    /// two of six ticks each, `dim0 <= dim1`. A dimension-0 window is
    /// consistent with a dimension-1 window that ends at or after its
    /// start: every cell of the upper half, six of the lower.
    #[test]
    fn boundary_times_decide_across_unequal_grids() {
        let fine = grid(12);
        let coarse = fine.coarsen(6).unwrap();
        let s = CellSpace::new(&[&fine, &coarse], vec![(0, 1)]).unwrap();
        assert_eq!(s.total_cells(), 24);
        assert_eq!(s.consistent_cells().len(), 18);
        assert!(s.is_consistent(&[5, 0]));
        assert!(!s.is_consistent(&[6, 0]));
        assert_eq!(s.cells_eq(1, 0).len(), 6);
        assert_eq!(s.cells_eq(0, 11), &[s.encode(&[11, 1])]);
        assert_eq!(s.cells_ge(1, 0), s.consistent_cells());
    }

    #[test]
    fn q2_cell_count() {
        // Q2 = R1 before R2 before R3 with o=6: i1<=i2<=i3 (plus the
        // transitive i1<=i3) — C(6+2,3) = 56 cells. The paper reports 55;
        // see DESIGN.md §5 on the tie rule.
        let s = equal(3, 6, vec![(0, 1), (1, 2), (0, 2)]);
        assert_eq!(s.consistent_cells().len(), 56);
        assert_eq!(s.total_cells(), 216);
    }

    #[test]
    fn q5_cell_count_matches_paper() {
        // Q5 with o=5, 4 dims, single constraint C1 <= C2:
        // 15 ordered pairs × 25 free = 375 of 625 — exactly the paper.
        let s = equal(4, 5, vec![(0, 1)]);
        assert_eq!(s.consistent_cells().len(), 375);
        assert_eq!(s.total_cells(), 625);
    }

    #[test]
    fn cells_eq_partition_the_consistent_set() {
        let s = equal(2, 4, vec![(0, 1)]);
        let total: usize = (0..4).map(|q| s.cells_eq(0, q).len()).sum();
        assert_eq!(total, s.consistent_cells().len());
        // coord0 = 3 admits only (3,3).
        assert_eq!(s.cells_eq(0, 3), &[s.encode(&[3, 3])]);
    }

    #[test]
    fn cells_ge_nest() {
        let s = equal(2, 4, vec![(0, 1)]);
        for d in 0..2 {
            for q in 1..4 {
                let bigger = s.cells_ge(d, q - 1);
                let smaller = s.cells_ge(d, q);
                assert!(smaller.iter().all(|c| bigger.contains(c)), "dim {d} q {q}");
            }
            assert_eq!(s.cells_ge(d, 0).len(), s.consistent_cells().len());
        }
    }

    #[test]
    fn cells_in_lifts_a_partition_range() {
        // One dimension: cell `c` is coordinate `c`, so a split lifts too.
        let line = equal(1, 6, vec![]);
        assert_eq!(line.cells_in(0, 2..3), &[2]);
        assert_eq!(line.cells_in(0, 2..5), &[2, 3, 4]);
        assert_eq!(line.cells_in(0, 2..6), &[2, 3, 4, 5]);
        // More dimensions: a project is `cells_eq`, a replicate `cells_ge`.
        let s = equal(2, 4, vec![(0, 1)]);
        for d in 0..2 {
            for q in 0..4 {
                assert_eq!(s.cells_in(d, q..q + 1), s.cells_eq(d, q));
                assert_eq!(s.cells_in(d, q..4), s.cells_ge(d, q));
            }
        }
    }

    #[test]
    fn equality_constraints_both_ways() {
        // coord0 <= coord1 and coord1 <= coord0 forces the diagonal.
        let s = equal(2, 4, vec![(0, 1), (1, 0)]);
        assert_eq!(s.consistent_cells().len(), 4);
    }

    #[test]
    fn rejects_oversized_matrices() {
        let (big, small) = (grid(100), grid(3));
        assert!(CellSpace::new(&[&big; 10], vec![]).is_err());
        assert!(CellSpace::new(&[], vec![]).is_err());
        assert!(CellSpace::new(&[&small; 2], vec![(0, 5)]).is_err());
    }

    /// Cells per dimension and coordinate.
    type ByCoord = Vec<Vec<Vec<ReducerId>>>;

    /// The index-test matrix the paper defines, built without windows:
    /// `(consistent ids, by_eq, by_ge)` with `coord_j <= coord_k` per
    /// constraint and ids `Σ c_d · o^d`.
    fn index_matrix(
        dims: usize,
        o: usize,
        constraints: &[(usize, usize)],
    ) -> (Vec<ReducerId>, ByCoord, ByCoord) {
        let (mut ids, mut eq, mut ge) = (
            Vec::new(),
            vec![vec![Vec::new(); o]; dims],
            vec![vec![Vec::new(); o]; dims],
        );
        for id in 0..(o as u64).pow(dims as u32) {
            let coords: Vec<usize> = (0..dims)
                .map(|d| (id / (o as u64).pow(d as u32)) as usize % o)
                .collect();
            if constraints.iter().all(|&(j, k)| coords[j] <= coords[k]) {
                ids.push(id);
                for (d, &c) in coords.iter().enumerate() {
                    eq[d][c].push(id);
                    ge[d][..=c].iter_mut().for_each(|cells| cells.push(id));
                }
            }
        }
        (ids, eq, ge)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On equal grids — equi-width or explicit boundaries anywhere in
        /// the `i64` domain — the boundary-time test is the index test:
        /// cell ids, `cells_eq`, `cells_ge` and `cells_in` are bit-equal.
        #[test]
        fn equal_grids_reproduce_the_index_matrix(
            dims in 1usize..4,
            raw in proptest::collection::vec(-1000i64..1000, 1..7usize),
            extremes in 0usize..4,
            pairs in proptest::collection::vec((0usize..3, 0usize..3), 0..4usize),
        ) {
            let mut boundaries = raw;
            if extremes & 1 == 1 {
                boundaries.push(Time::MIN);
            }
            if extremes & 2 == 2 {
                boundaries.push(Time::MAX);
            }
            boundaries.sort_unstable();
            boundaries.dedup();
            if boundaries.len() < 2 {
                boundaries = vec![Time::MIN, Time::MAX];
            }
            let part = Partitioning::from_boundaries(boundaries).unwrap();
            let o = part.len();
            let constraints: Vec<(usize, usize)> = (pairs.into_iter())
                .filter(|&(j, k)| j < dims && k < dims && j != k)
                .collect();
            let s = CellSpace::new(&vec![&part; dims], constraints.clone()).unwrap();
            let (ids, eq, ge) = index_matrix(dims, o, &constraints);
            prop_assert_eq!(s.consistent_cells(), ids.as_slice());
            prop_assert_eq!(s.total_cells(), (o as u64).pow(dims as u32));
            for d in 0..dims {
                for q in 0..o {
                    prop_assert_eq!(s.cells_eq(d, q), eq[d][q].as_slice());
                    prop_assert_eq!(s.cells_ge(d, q), ge[d][q].as_slice());
                    prop_assert_eq!(s.cells_in(d, q..q + 1), eq[d][q].as_slice());
                    prop_assert_eq!(s.cells_in(d, q..o), ge[d][q].as_slice());
                }
            }
        }
    }
}
