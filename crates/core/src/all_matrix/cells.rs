//! The m-dimensional reducer matrix and its consistent cells.
//!
//! All-Matrix visualizes reducers as cells of the m-dimensional
//! cross-product space, each dimension divided into `o` partitions; a cell
//! is identified by the m-tuple of its per-dimension indices. A cell is
//! *consistent* (Section 7.1) when its indices respect every less-than
//! order between dimensions: `dim_j <= dim_k` constraints force
//! `coord_j <= coord_k`. Map functions never send anything to inconsistent
//! cells — the communication saving of the matrix algorithms.

use crate::algorithm::AlgoError;
use ij_mapreduce::ReducerId;
use std::ops::Range;

/// Maximum cells we are willing to enumerate (`o^m` grows quickly).
const MAX_CELLS: u64 = 4_000_000;

/// An m-dimensional reducer matrix with per-dimension ordering constraints.
#[derive(Debug, Clone)]
pub struct CellSpace {
    dims: usize,
    per_dim: usize,
    constraints: Vec<(usize, usize)>,
    /// Consistent cells, encoded, ascending.
    consistent: Vec<ReducerId>,
    /// `by_eq[d][q]`: consistent cells with `coord[d] == q`.
    by_eq: Vec<Vec<Vec<ReducerId>>>,
    /// `by_ge[d][q]`: consistent cells with `coord[d] >= q`.
    by_ge: Vec<Vec<Vec<ReducerId>>>,
}

impl CellSpace {
    /// Builds the matrix: `dims` dimensions of `per_dim` partitions each,
    /// with `constraints` of the form `(j, k)` meaning `coord_j <= coord_k`.
    pub fn new(
        dims: usize,
        per_dim: usize,
        constraints: Vec<(usize, usize)>,
    ) -> Result<Self, AlgoError> {
        if dims == 0 || per_dim == 0 {
            return Err(AlgoError::BadConfig(
                "cell space needs dims, per_dim >= 1".into(),
            ));
        }
        let total = (per_dim as u64).checked_pow(dims as u32);
        match total {
            Some(t) if t <= MAX_CELLS => {}
            _ => {
                return Err(AlgoError::BadConfig(format!(
                    "cell matrix {per_dim}^{dims} exceeds {MAX_CELLS} cells"
                )))
            }
        }
        for &(j, k) in &constraints {
            if j >= dims || k >= dims {
                return Err(AlgoError::BadConfig(format!(
                    "constraint ({j}, {k}) out of range for {dims} dims"
                )));
            }
        }
        let mut consistent = Vec::new();
        let mut coords = vec![0usize; dims];
        loop {
            if constraints.iter().all(|&(j, k)| coords[j] <= coords[k]) {
                consistent.push(Self::encode_raw(&coords, per_dim));
            }
            // Odometer.
            let mut d = 0;
            loop {
                coords[d] += 1;
                if coords[d] < per_dim {
                    break;
                }
                coords[d] = 0;
                d += 1;
                if d == dims {
                    consistent.sort_unstable();
                    let mut space = CellSpace {
                        dims,
                        per_dim,
                        constraints,
                        consistent,
                        by_eq: Vec::new(),
                        by_ge: Vec::new(),
                    };
                    space.index();
                    return Ok(space);
                }
            }
        }
    }

    fn index(&mut self) {
        self.by_eq = vec![vec![Vec::new(); self.per_dim]; self.dims];
        for &cell in &self.consistent {
            let coords = self.decode(cell);
            for (d, &coord) in coords.iter().enumerate() {
                self.by_eq[d][coord].push(cell);
            }
        }
        // by_ge[d][q] = cells with coord[d] >= q, built by suffix union.
        self.by_ge = vec![vec![Vec::new(); self.per_dim]; self.dims];
        for d in 0..self.dims {
            let mut acc: Vec<ReducerId> = Vec::new();
            for q in (0..self.per_dim).rev() {
                acc.extend(self.by_eq[d][q].iter().copied());
                let mut sorted = acc.clone();
                sorted.sort_unstable();
                self.by_ge[d][q] = sorted;
            }
        }
    }

    fn encode_raw(coords: &[usize], per_dim: usize) -> ReducerId {
        coords
            .iter()
            .rev()
            .fold(0u64, |acc, &c| acc * per_dim as u64 + c as u64)
    }

    /// Encodes cell coordinates into a [`ReducerId`].
    pub fn encode(&self, coords: &[usize]) -> ReducerId {
        debug_assert_eq!(coords.len(), self.dims);
        debug_assert!(coords.iter().all(|&c| c < self.per_dim));
        Self::encode_raw(coords, self.per_dim)
    }

    /// Decodes a [`ReducerId`] back to coordinates.
    pub fn decode(&self, mut id: ReducerId) -> Vec<usize> {
        let mut coords = vec![0usize; self.dims];
        for c in coords.iter_mut() {
            *c = (id % self.per_dim as u64) as usize;
            id /= self.per_dim as u64;
        }
        coords
    }

    /// Whether a cell satisfies all ordering constraints.
    pub fn is_consistent(&self, coords: &[usize]) -> bool {
        self.constraints
            .iter()
            .all(|&(j, k)| coords[j] <= coords[k])
    }

    /// All consistent cells, ascending.
    pub fn consistent_cells(&self) -> &[ReducerId] {
        &self.consistent
    }

    /// Consistent cells whose dimension-`d` coordinate equals `q` — the
    /// routing set for an unreplicated interval (conditions D1 + D2).
    pub fn cells_eq(&self, d: usize, q: usize) -> &[ReducerId] {
        &self.by_eq[d][q]
    }

    /// Consistent cells whose dimension-`d` coordinate is `>= q` — the
    /// routing set for an RCCIS-replicated interval in All-Seq-Matrix
    /// (condition E2's `i_k >= q` arm).
    pub fn cells_ge(&self, d: usize, q: usize) -> &[ReducerId] {
        &self.by_ge[d][q]
    }

    /// Consistent cells whose dimension-`d` coordinate lies in `coords`: a
    /// map operation's partition range lifted to the matrix. A split's range
    /// may end early, which only one dimension can lift: there cell `c` is
    /// coordinate `c`, and the range is a prefix of [`Self::cells_ge`].
    pub(crate) fn cells_in(&self, d: usize, coords: Range<usize>) -> &[ReducerId] {
        let ge = &self.by_ge[d][coords.start];
        debug_assert!(self.dims == 1 || coords.len() == 1 || coords.end == self.per_dim);
        match coords.len() {
            1 => &self.by_eq[d][coords.start],
            _ if coords.end == self.per_dim => ge,
            n => &ge[..n],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Partitions per dimension `o`.
    pub fn per_dim(&self) -> usize {
        self.per_dim
    }

    /// Total cells `o^m`.
    pub fn total_cells(&self) -> u64 {
        (self.per_dim as u64).pow(self.dims as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let s = CellSpace::new(3, 5, vec![]).unwrap();
        for cell in s.consistent_cells() {
            assert_eq!(s.encode(&s.decode(*cell)), *cell);
        }
        assert_eq!(s.consistent_cells().len(), 125);
    }

    #[test]
    fn figure4_two_dims_before() {
        // R1 before R2 with o=3: consistent cells are i1 <= i2 — six of nine.
        let s = CellSpace::new(2, 3, vec![(0, 1)]).unwrap();
        assert_eq!(s.consistent_cells().len(), 6);
        assert!(s.is_consistent(&[0, 2]));
        assert!(!s.is_consistent(&[1, 0]));
    }

    #[test]
    fn q2_cell_count() {
        // Q2 = R1 before R2 before R3 with o=6: i1<=i2<=i3 (plus the
        // transitive i1<=i3) — C(6+2,3) = 56 cells. The paper reports 55;
        // see DESIGN.md §5 on the tie rule.
        let s = CellSpace::new(3, 6, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(s.consistent_cells().len(), 56);
        assert_eq!(s.total_cells(), 216);
    }

    #[test]
    fn q5_cell_count_matches_paper() {
        // Q5 with o=5, 4 dims, single constraint C1 <= C2:
        // 15 ordered pairs × 25 free = 375 of 625 — exactly the paper.
        let s = CellSpace::new(4, 5, vec![(0, 1)]).unwrap();
        assert_eq!(s.consistent_cells().len(), 375);
        assert_eq!(s.total_cells(), 625);
    }

    #[test]
    fn cells_eq_partition_the_consistent_set() {
        let s = CellSpace::new(2, 4, vec![(0, 1)]).unwrap();
        let total: usize = (0..4).map(|q| s.cells_eq(0, q).len()).sum();
        assert_eq!(total, s.consistent_cells().len());
        // coord0 = 3 admits only (3,3).
        assert_eq!(s.cells_eq(0, 3), &[s.encode(&[3, 3])]);
    }

    #[test]
    fn cells_ge_nest() {
        let s = CellSpace::new(2, 4, vec![(0, 1)]).unwrap();
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
        let line = CellSpace::new(1, 6, vec![]).unwrap();
        assert_eq!(line.cells_in(0, 2..3), &[2]);
        assert_eq!(line.cells_in(0, 2..5), &[2, 3, 4]);
        assert_eq!(line.cells_in(0, 2..6), &[2, 3, 4, 5]);
        // More dimensions: a project is `cells_eq`, a replicate `cells_ge`.
        let s = CellSpace::new(2, 4, vec![(0, 1)]).unwrap();
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
        let s = CellSpace::new(2, 4, vec![(0, 1), (1, 0)]).unwrap();
        assert_eq!(s.consistent_cells().len(), 4);
    }

    #[test]
    fn rejects_oversized_matrices() {
        assert!(CellSpace::new(10, 100, vec![]).is_err());
        assert!(CellSpace::new(0, 5, vec![]).is_err());
        assert!(CellSpace::new(2, 3, vec![(0, 5)]).is_err());
    }
}
