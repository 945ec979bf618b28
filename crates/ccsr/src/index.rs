//! The row index of one cluster direction: the paper's `(I_R, I_C)` pair,
//! stored so that a query reads rows in place.
//!
//! A standard CSR spends `n + 1` offsets on `I_R` per cluster; with `c`
//! clusters that is `c (n + 1)` although most rows are empty in most
//! clusters. The paper run-length encodes `I_R` as `(value, repeat)` runs
//! instead, which bounds the total `I_R` length by `4|E|` (§IV). Only the
//! last offset of a run starts a non-empty row, so a [`RowIndex`] keeps
//! exactly those rows and their start offsets — the information of the
//! runs, addressed by binary search and never expanded.
//!
//! The form is chosen by size alone: when the dense `n + 1` offsets are no
//! longer than the sparse `2 · rows + 1` (at least half of the vertices
//! have arcs), the index stores the dense offsets and a row lookup is one
//! array access. Either way the index holds at most `2 · arcs + 1`
//! integers, within the paper's bound. The on-disk format keeps the runs;
//! [`RowIndex::from_runs`] and [`RowIndex::runs`] convert in O(runs).

use crate::CcsrError;
use csce_graph::VertexId;

/// One direction of a cluster: sorted neighbor rows with their index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RowIndex {
    /// Sparse form: the non-empty rows, ascending. Dense form: empty.
    rows: Vec<VertexId>,
    /// Offsets into `neighbors`. Sparse form: the start of each row of
    /// `rows`, then the end (`rows.len() + 1` entries). Dense form: the
    /// start of every vertex's row, then the end (`n + 1` entries).
    starts: Vec<u32>,
    /// `I_C`: the rows' neighbors, each row strictly increasing.
    neighbors: Vec<VertexId>,
}

impl RowIndex {
    /// Build from `(row, neighbor)` arcs over `n` vertices, in any order:
    /// a sort, then one pass. Fails with [`CcsrError::Overflow`] when the
    /// direction holds more than `u32::MAX` arcs.
    pub(crate) fn from_arcs(
        n: usize,
        mut arcs: Vec<(VertexId, VertexId)>,
    ) -> Result<RowIndex, CcsrError> {
        let offset = |i: usize| {
            u32::try_from(i).map_err(|_| CcsrError::Overflow { what: "cluster arc count" })
        };
        arcs.sort_unstable();
        let mut rows: Vec<VertexId> = Vec::new();
        let mut starts = Vec::new();
        for (i, &(v, _)) in arcs.iter().enumerate() {
            if rows.last() != Some(&v) {
                rows.push(v);
                starts.push(offset(i)?);
            }
        }
        starts.push(offset(arcs.len())?);
        // Collected from a borrow: collecting the owned pairs would reuse
        // their buffer and keep twice the capacity `I_C` needs.
        let neighbors = arcs.iter().map(|&(_, w)| w).collect();
        Ok(RowIndex::new(n, rows, starts, neighbors))
    }

    /// Convert the on-disk `(value, repeat)` runs of the `n + 1` offsets
    /// in O(runs). A run after the first begins one past the row that the
    /// previous run's last offset starts. Fails with the broken rule:
    /// `rle-index` (first value 0, values strictly increasing, counts
    /// non-zero, the last value closing over `neighbors`) or
    /// `rle-coverage` (the counts summing to `n + 1`).
    pub(crate) fn from_runs(
        n: u32,
        runs: &[(u32, u32)],
        neighbors: Vec<VertexId>,
    ) -> Result<RowIndex, &'static str> {
        let mut rows = Vec::with_capacity(runs.len().saturating_sub(1));
        let mut starts: Vec<u32> = Vec::with_capacity(runs.len());
        let mut covered = 0u64;
        for &(value, count) in runs {
            if count == 0 || starts.last().map_or(value != 0, |&prev| value <= prev) {
                return Err("rle-index");
            }
            if covered > 0 {
                rows.push(VertexId::try_from(covered - 1).map_err(|_| "rle-coverage")?);
            }
            starts.push(value);
            covered += u64::from(count);
        }
        if starts.last().map(|&end| end as usize) != Some(neighbors.len()) {
            return Err("rle-index");
        }
        if covered != u64::from(n) + 1 {
            return Err("rle-coverage");
        }
        Ok(RowIndex::new(n as usize, rows, starts, neighbors))
    }

    /// The one place the form is chosen: dense when `n + 1 ≤ 2 · rows + 1`.
    /// `rows` must be strictly increasing and below `n`.
    fn new(
        n: usize,
        mut rows: Vec<VertexId>,
        mut starts: Vec<u32>,
        neighbors: Vec<VertexId>,
    ) -> RowIndex {
        if n > 2 * rows.len() {
            rows.shrink_to_fit();
            starts.shrink_to_fit();
            return RowIndex { rows, starts, neighbors };
        }
        let mut offsets = Vec::with_capacity(n + 1);
        for (&v, &start) in rows.iter().zip(&starts) {
            offsets.resize(v as usize + 1, start);
        }
        offsets.resize(n + 1, starts.last().copied().unwrap_or(0));
        RowIndex { rows: Vec::new(), starts: offsets, neighbors }
    }

    /// The on-disk `(value, repeat)` runs of the `n + 1` offsets, in
    /// O(rows): each non-empty row closes the run holding its start.
    pub(crate) fn runs(&self, n: u32) -> Result<Vec<(u32, u32)>, CcsrError> {
        let mut runs = Vec::new();
        let (mut value, mut first) = (0u32, 0u32);
        for (v, row) in self.nonempty() {
            runs.push((value, v + 1 - first));
            value += u32::try_from(row.len()).unwrap_or(u32::MAX);
            first = v + 1;
        }
        let last = (n - first).checked_add(1).ok_or(CcsrError::Overflow { what: "run count" })?;
        runs.push((value, last));
        Ok(runs)
    }

    /// The sorted neighbor row of `v`; empty when `v` has no arcs here.
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> &[VertexId] {
        let i = if self.rows.is_empty() {
            v as usize
        } else {
            match self.rows.binary_search(&v) {
                Ok(i) => i,
                Err(_) => return &[],
            }
        };
        match self.starts.get(i..=i + 1) {
            Some(&[lo, hi]) => self.neighbors.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The non-empty rows, ascending, each with its neighbors.
    pub(crate) fn nonempty(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        let dense = self.rows.is_empty();
        self.starts.windows(2).enumerate().filter_map(move |(i, w)| {
            let v = if dense { VertexId::try_from(i).ok()? } else { *self.rows.get(i)? };
            let &[lo, hi] = w else { return None };
            let row = self.neighbors.get(lo as usize..hi as usize)?;
            (!row.is_empty()).then_some((v, row))
        })
    }

    /// `|I_C|`: the number of stored arcs.
    #[inline]
    pub(crate) fn arc_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The raw `I_C` array.
    pub(crate) fn neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Rows the index addresses: the non-empty ones (sparse) or all `n`
    /// (dense).
    pub(crate) fn indexed_rows(&self) -> usize {
        if self.rows.is_empty() {
            self.starts.len().saturating_sub(1)
        } else {
            self.rows.len()
        }
    }

    /// The index length in integers: `2 · rows + 1` sparse, `n + 1`
    /// dense. The paper's bound: at most `4 · arcs`.
    pub(crate) fn ir_len(&self) -> usize {
        self.rows.len() + self.starts.len()
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.rows.capacity() + self.starts.capacity() + self.neighbors.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(index: &RowIndex) -> Vec<(VertexId, Vec<VertexId>)> {
        index.nonempty().map(|(v, row)| (v, row.to_vec())).collect()
    }

    #[test]
    fn fig4_left_cluster() {
        // Paper Fig. 4 left: the (A,B,NULL) outgoing CSR of G in Fig. 1:
        // v1 -> v2, v6; v4 -> v5, 0-based, out of order.
        let index = RowIndex::from_arcs(10, vec![(3, 4), (0, 5), (0, 1)]).unwrap();
        assert_eq!(index.row(0), &[1, 5]);
        assert_eq!(index.row(3), &[4]);
        assert_eq!(index.row(1), &[] as &[u32]);
        assert_eq!(index.row(9), &[] as &[u32]);
        assert_eq!(index.arc_count(), 3);
        assert_eq!(rows_of(&index), vec![(0, vec![1, 5]), (3, vec![4])]);
        // Sparse: 2 rows, 3 offsets, against 11 dense offsets.
        assert_eq!((index.indexed_rows(), index.ir_len()), (2, 5));
        assert_eq!(index.runs(10).unwrap(), vec![(0, 1), (2, 3), (3, 7)]);
    }

    #[test]
    fn form_follows_the_size_rule() {
        // n = 2 · rows: dense; one more vertex: sparse. Same rows either way.
        let arcs = vec![(1, 0), (3, 0)];
        let dense = RowIndex::from_arcs(4, arcs.clone()).unwrap();
        let sparse = RowIndex::from_arcs(5, arcs).unwrap();
        assert!(dense.rows.is_empty() && dense.starts.len() == 5);
        assert_eq!(sparse.rows, vec![1, 3]);
        assert_eq!((dense.indexed_rows(), sparse.indexed_rows()), (4, 2));
        for v in 0..5 {
            assert_eq!(dense.row(v), sparse.row(v), "row {v}");
        }
        assert_eq!(rows_of(&dense), rows_of(&sparse));
    }

    #[test]
    fn runs_roundtrip_in_both_forms() {
        for n in [4u32, 5, 40] {
            let index = RowIndex::from_arcs(n as usize, vec![(0, 1), (0, 2), (3, 0)]).unwrap();
            let runs = index.runs(n).unwrap();
            assert_eq!(runs.iter().map(|&(_, c)| u64::from(c)).sum::<u64>(), u64::from(n) + 1);
            assert_eq!(RowIndex::from_runs(n, &runs, index.neighbors.clone()), Ok(index));
        }
    }

    #[test]
    fn empty_index() {
        let index = RowIndex::from_arcs(3, vec![]).unwrap();
        assert_eq!(index.arc_count(), 0);
        assert_eq!(index.nonempty().count(), 0);
        assert_eq!(index.row(2), &[] as &[u32]);
        assert_eq!(index.runs(3).unwrap(), vec![(0, 4)]);
        assert_eq!(RowIndex::from_runs(3, &[(0, 4)], vec![]), Ok(index));
    }

    #[test]
    fn from_runs_validates() {
        // Offsets [0,0,2,2] with 2 neighbors: row 1 is [1, 2].
        let ok = RowIndex::from_runs(3, &[(0, 2), (2, 2)], vec![1, 2]).unwrap();
        assert_eq!(ok.row(1), &[1, 2]);
        let err = |runs: &[(u32, u32)], nbrs: Vec<u32>| RowIndex::from_runs(3, runs, nbrs);
        assert_eq!(err(&[], vec![]), Err("rle-index"), "no runs");
        assert_eq!(err(&[(1, 4)], vec![1]), Err("rle-index"), "first offset not 0");
        assert_eq!(err(&[(0, 0), (0, 4)], vec![]), Err("rle-index"), "zero count");
        assert_eq!(err(&[(0, 2), (0, 2)], vec![]), Err("rle-index"), "non-increasing");
        assert_eq!(err(&[(0, 4)], vec![5]), Err("rle-index"), "does not close");
        assert_eq!(err(&[(0, 2), (2, 1)], vec![1, 2]), Err("rle-coverage"), "3 offsets");
        assert_eq!(err(&[(0, 2), (2, 3)], vec![1, 2]), Err("rle-coverage"), "5 offsets");
    }

    #[test]
    fn paper_bound_each_arc_at_most_two_ir_integers() {
        // Adversarial: every vertex has exactly one arc, so no run has a
        // repeat. The dense form stores n + 1 = arcs + 1 offsets.
        let arcs: Vec<(u32, u32)> = (0..100u32).map(|r| (r, (r + 1) % 100)).collect();
        let index = RowIndex::from_arcs(100, arcs).unwrap();
        assert!(index.rows.is_empty(), "every row non-empty: dense");
        assert_eq!(index.ir_len(), 101);
        assert!(index.ir_len() <= 4 * index.arc_count());
        assert_eq!(index.row(42), &[43]);
    }
}
