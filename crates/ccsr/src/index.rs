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
//! integers, within the paper's bound.
//!
//! Each index is one exact-size allocation laid out as
//! `rows | starts | neighbors` (the dense form has no `rows`), plus two
//! `u32` lengths: on a graph with many labels most clusters hold one or two
//! edges, and three separately allocated arrays would cost more than the
//! arcs. [`RowIndex::from_sorted`] writes that buffer once from a slice of
//! arcs. The on-disk format keeps the runs; [`RowIndex::from_runs`] and
//! [`RowIndex::runs`] convert in O(runs).

use crate::CcsrError;
use csce_graph::VertexId;

/// One direction of a cluster: sorted neighbor rows with their index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RowIndex {
    /// `rows | starts | neighbors`. `rows`: the non-empty rows, ascending
    /// (sparse form; absent in the dense form). `starts`: offsets into
    /// `neighbors`, the start of each row of `rows` then the end (sparse),
    /// or the start of every vertex's row then the end (dense, `n + 1`
    /// entries). `neighbors`: `I_C`, each row strictly increasing.
    data: Box<[u32]>,
    /// Length of `rows`; 0 marks the dense form.
    rows: u32,
    /// Length of `neighbors`: the stored arcs.
    arcs: u32,
}

impl RowIndex {
    /// Build from `(row, neighbor)` arcs over `n` vertices, in any order:
    /// sorts `arcs` in place, then writes the index in one pass. Fails with
    /// [`CcsrError::Overflow`] when the direction holds more than
    /// `u32::MAX` arcs.
    pub(crate) fn from_sorted(
        n: usize,
        arcs: &mut [(VertexId, VertexId)],
    ) -> Result<RowIndex, CcsrError> {
        let count = |i: usize| {
            u32::try_from(i).map_err(|_| CcsrError::Overflow { what: "cluster arc count" })
        };
        let arc_count = count(arcs.len())?;
        // One integer comparison per step instead of a tuple's two.
        arcs.sort_unstable_by_key(|&(v, w)| u64::from(v) << 32 | u64::from(w));
        let runs = arcs.chunk_by(|a, b| a.0 == b.0);
        let row_count = count(runs.clone().count())?;
        let rows = runs.clone().filter_map(<[_]>::first).map(|&(v, _)| v);
        // Every partial sum fits: the total does.
        let ends = runs.scan(0u32, |end, run| {
            *end = end.checked_add(u32::try_from(run.len()).ok()?)?;
            Some(*end)
        });
        let starts = std::iter::once(0).chain(ends);
        Ok(RowIndex::pack(n, row_count, rows, starts, arcs.iter().map(|&(_, w)| w), arc_count))
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
        neighbors: &[VertexId],
    ) -> Result<RowIndex, &'static str> {
        let mut rows = Vec::with_capacity(runs.len().saturating_sub(1));
        let mut last: Option<u32> = None;
        let mut covered = 0u64;
        for &(value, count) in runs {
            if count == 0 || last.map_or(value != 0, |prev| value <= prev) {
                return Err("rle-index");
            }
            if covered > 0 {
                rows.push(VertexId::try_from(covered - 1).map_err(|_| "rle-coverage")?);
            }
            last = Some(value);
            covered += u64::from(count);
        }
        let arcs = u32::try_from(neighbors.len()).map_err(|_| "rle-index")?;
        if last != Some(arcs) {
            return Err("rle-index");
        }
        if covered != u64::from(n) + 1 {
            return Err("rle-coverage");
        }
        let row_count = u32::try_from(rows.len()).map_err(|_| "rle-index")?;
        let starts = runs.iter().map(|&(value, _)| value);
        Ok(RowIndex::pack(n as usize, row_count, rows, starts, neighbors.iter().copied(), arcs))
    }

    /// Write the one buffer, choosing the form: dense when
    /// `n + 1 ≤ 2 · rows + 1`. `rows` yields the `row_count` non-empty rows,
    /// strictly increasing and below `n`; `starts` their start offsets and
    /// then the end; `neighbors` the `arcs` neighbor ids.
    fn pack(
        n: usize,
        row_count: u32,
        rows: impl IntoIterator<Item = VertexId>,
        mut starts: impl Iterator<Item = u32>,
        neighbors: impl Iterator<Item = VertexId>,
        arcs: u32,
    ) -> RowIndex {
        let (rows_len, arcs_len) = (row_count as usize, arcs as usize);
        if n > 2 * rows_len {
            let mut data = Vec::with_capacity(2 * rows_len + 1 + arcs_len);
            data.extend(rows);
            data.extend(starts);
            data.extend(neighbors);
            return RowIndex { data: data.into_boxed_slice(), rows: row_count, arcs };
        }
        let mut data = Vec::with_capacity(n + 1 + arcs_len);
        for (v, start) in rows.into_iter().zip(&mut starts) {
            data.resize(v as usize + 1, start);
        }
        data.resize(n + 1, starts.next().unwrap_or(0));
        data.extend(neighbors);
        RowIndex { data: data.into_boxed_slice(), rows: 0, arcs }
    }

    /// The three sections of the buffer: `(rows, starts, neighbors)`.
    #[inline]
    fn parts(&self) -> (&[VertexId], &[u32], &[VertexId]) {
        let (rows, rest) = self.data.split_at_checked(self.rows as usize).unwrap_or_default();
        let mid = rest.len().saturating_sub(self.arcs as usize);
        let (starts, neighbors) = rest.split_at_checked(mid).unwrap_or_default();
        (rows, starts, neighbors)
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
        let (rows, starts, neighbors) = self.parts();
        let i = if rows.is_empty() {
            v as usize
        } else {
            match rows.binary_search(&v) {
                Ok(i) => i,
                Err(_) => return &[],
            }
        };
        match starts.get(i..=i + 1) {
            Some(&[lo, hi]) => neighbors.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The non-empty rows, ascending, each with its neighbors.
    pub(crate) fn nonempty(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        let (rows, starts, neighbors) = self.parts();
        let dense = rows.is_empty();
        starts.windows(2).enumerate().filter_map(move |(i, w)| {
            let v = if dense { VertexId::try_from(i).ok()? } else { *rows.get(i)? };
            let &[lo, hi] = w else { return None };
            let row = neighbors.get(lo as usize..hi as usize)?;
            (!row.is_empty()).then_some((v, row))
        })
    }

    /// `|I_C|`: the number of stored arcs.
    #[inline]
    pub(crate) fn arc_count(&self) -> usize {
        self.arcs as usize
    }

    /// The raw `I_C` array.
    pub(crate) fn neighbors(&self) -> &[VertexId] {
        self.parts().2
    }

    /// Rows the index addresses: the non-empty ones (sparse) or all `n`
    /// (dense).
    pub(crate) fn indexed_rows(&self) -> usize {
        let (rows, starts, _) = self.parts();
        if rows.is_empty() {
            starts.len().saturating_sub(1)
        } else {
            rows.len()
        }
    }

    /// The index length in integers: `2 · rows + 1` sparse, `n + 1`
    /// dense. The paper's bound: at most `4 · arcs`.
    pub(crate) fn ir_len(&self) -> usize {
        self.data.len().saturating_sub(self.arc_count())
    }

    /// Heap bytes: the one buffer, `4 · (ir_len + arcs)`.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
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
        let index = RowIndex::from_sorted(10, &mut [(3, 4), (0, 5), (0, 1)]).unwrap();
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
        let dense = RowIndex::from_sorted(4, &mut [(1, 0), (3, 0)]).unwrap();
        let sparse = RowIndex::from_sorted(5, &mut [(3, 0), (1, 0)]).unwrap();
        assert!(dense.parts().0.is_empty() && dense.parts().1.len() == 5);
        assert_eq!(sparse.parts().0, &[1, 3]);
        assert_eq!((dense.indexed_rows(), sparse.indexed_rows()), (4, 2));
        for v in 0..5 {
            assert_eq!(dense.row(v), sparse.row(v), "row {v}");
        }
        assert_eq!(rows_of(&dense), rows_of(&sparse));
    }

    #[test]
    fn runs_roundtrip_in_both_forms() {
        for n in [4u32, 5, 40] {
            let index = RowIndex::from_sorted(n as usize, &mut [(0, 1), (0, 2), (3, 0)]).unwrap();
            let runs = index.runs(n).unwrap();
            assert_eq!(runs.iter().map(|&(_, c)| u64::from(c)).sum::<u64>(), u64::from(n) + 1);
            assert_eq!(RowIndex::from_runs(n, &runs, index.neighbors()), Ok(index));
        }
    }

    #[test]
    fn empty_index() {
        let index = RowIndex::from_sorted(3, &mut []).unwrap();
        assert_eq!(index.arc_count(), 0);
        assert_eq!(index.nonempty().count(), 0);
        assert_eq!(index.row(2), &[] as &[u32]);
        assert_eq!(index.runs(3).unwrap(), vec![(0, 4)]);
        assert_eq!(RowIndex::from_runs(3, &[(0, 4)], &[]), Ok(index));
    }

    #[test]
    fn from_runs_validates() {
        // Offsets [0,0,2,2] with 2 neighbors: row 1 is [1, 2].
        let ok = RowIndex::from_runs(3, &[(0, 2), (2, 2)], &[1, 2]).unwrap();
        assert_eq!(ok.row(1), &[1, 2]);
        let err = |runs: &[(u32, u32)], nbrs: &[u32]| RowIndex::from_runs(3, runs, nbrs);
        assert_eq!(err(&[], &[]), Err("rle-index"), "no runs");
        assert_eq!(err(&[(1, 4)], &[1]), Err("rle-index"), "first offset not 0");
        assert_eq!(err(&[(0, 0), (0, 4)], &[]), Err("rle-index"), "zero count");
        assert_eq!(err(&[(0, 2), (0, 2)], &[]), Err("rle-index"), "non-increasing");
        assert_eq!(err(&[(0, 4)], &[5]), Err("rle-index"), "does not close");
        assert_eq!(err(&[(0, 2), (2, 1)], &[1, 2]), Err("rle-coverage"), "3 offsets");
        assert_eq!(err(&[(0, 2), (2, 3)], &[1, 2]), Err("rle-coverage"), "5 offsets");
    }

    #[test]
    fn paper_bound_each_arc_at_most_two_ir_integers() {
        // Adversarial: every vertex has exactly one arc, so no run has a
        // repeat. The dense form stores n + 1 = arcs + 1 offsets.
        let mut arcs: Vec<(u32, u32)> = (0..100u32).map(|r| (r, (r + 1) % 100)).collect();
        let index = RowIndex::from_sorted(100, &mut arcs).unwrap();
        assert_eq!(index.rows, 0, "every row non-empty: dense");
        assert_eq!(index.ir_len(), 101);
        assert!(index.ir_len() <= 4 * index.arc_count());
        assert_eq!(index.row(42), &[43]);
    }

    #[test]
    fn one_exact_buffer_per_index() {
        // Sparse, dense and empty: the buffer holds the index and the arcs
        // and nothing else.
        for (n, arcs) in
            [(10, vec![(3, 4), (0, 5), (0, 1)]), (4, vec![(1, 0), (3, 0)]), (3, vec![])]
        {
            let mut arcs = arcs;
            let index = RowIndex::from_sorted(n, &mut arcs).unwrap();
            assert_eq!(index.heap_bytes(), 4 * (index.ir_len() + index.arc_count()));
            let back =
                RowIndex::from_runs(n as u32, &index.runs(n as u32).unwrap(), index.neighbors());
            assert_eq!(back.map(|b| b.heap_bytes()), Ok(index.heap_bytes()));
        }
    }
}
