//! One row table in compressed sparse row form: an offsets array and one
//! item array, read row by row. Every per-vertex or per-label list of the
//! workspace that is built once and then read is a [`Csr`].

/// Rows of `T` in compressed sparse row form: row `i` is
/// `items[start[i]..start[i + 1]]`. Reading a row never panics: a row past
/// the end is empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr<T> {
    /// `rows + 1` offsets from 0, non-decreasing, the last `items.len()`.
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// `rows` rows built by counting: each `(row, item)` pair appends its
    /// item to its row, so every row keeps the input order. A pair naming
    /// a row at or past `rows` is dropped. `pairs` is walked twice, once to
    /// count and once to fill, and nothing is sorted. Both walks are
    /// `for_each`, so a `flat_map` input is iterated internally, as fast
    /// as nested loops.
    pub fn by_row<I>(rows: usize, pairs: I) -> Csr<T>
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let mut start = vec![0usize; rows + 1];
        pairs.clone().for_each(|(r, _)| {
            if let Some(count) = start.get_mut(r.saturating_add(1)) {
                *count += 1;
            }
        });
        let total = prefix_sums(&mut start);
        // Any kept item fills the buffer before the pairs overwrite it.
        let Some((_, filler)) = pairs.clone().find(|&(r, _)| r < rows) else {
            return Csr { start, items: Vec::new() };
        };
        // Each row's next free slot, none past the last row.
        let (mut cursor, mut items) = (start.clone(), vec![filler; total]);
        cursor.pop();
        pairs.for_each(|(r, x)| {
            if let Some(at) = cursor.get_mut(r) {
                if let Some(slot) = items.get_mut(*at) {
                    *slot = x;
                }
                *at += 1;
            }
        });
        Csr { start, items }
    }

    /// Row `i` of the result is row `order[i]` of `self`, copied as one
    /// block; a row `order` names past the end is empty.
    pub fn permuted(&self, order: &[usize]) -> Csr<T> {
        let mut start = Vec::with_capacity(order.len() + 1);
        let mut items = Vec::with_capacity(self.items.len());
        start.push(0);
        for &r in order {
            items.extend_from_slice(self.row(r));
            start.push(items.len());
        }
        Csr { start, items }
    }
}

impl<T> Csr<T> {
    /// Rows given by where each ends in `items`: row `i` is
    /// `items[ends[i - 1]..ends[i]]`, row 0 starting at 0. The ends must
    /// not decrease nor pass `items.len()`; a row that breaks this reads
    /// empty. `ends` becomes the offsets by one leading 0, in place, so a
    /// caller that reserves room for one more end allocates nothing here.
    pub fn from_ends(ends: Vec<usize>, items: Vec<T>) -> Csr<T> {
        let mut start = ends;
        start.insert(0, 0);
        debug_assert!(
            start.is_sorted() && start.last() <= Some(&items.len()),
            "row ends must ascend within the items"
        );
        Csr { start, items }
    }

    /// The transpose by counting: item `x` of row `i` puts `name(i)` in
    /// row `key(x)` of the result, so each result row lists its sources in
    /// row order, once per item. An item keyed at or past `rows` is
    /// dropped. The count walks [`Csr::items`] as one slice and the fill
    /// walks the rows by offset: no per-row iterator is chained.
    pub fn transpose<U: Copy>(
        &self,
        rows: usize,
        key: impl Fn(&T) -> usize,
        name: impl Fn(usize) -> U,
    ) -> Csr<U> {
        let mut start = vec![0usize; rows + 1];
        for x in &self.items {
            if let Some(count) = start.get_mut(key(x).saturating_add(1)) {
                *count += 1;
            }
        }
        let total = prefix_sums(&mut start);
        // Every slot is written below; `name(0)` only sizes the buffer.
        let mut items = vec![name(0); total];
        let mut cursor = start.clone();
        cursor.pop();
        for (i, row) in self.iter().enumerate() {
            let source = name(i);
            for x in row {
                if let Some(at) = cursor.get_mut(key(x)) {
                    if let Some(slot) = items.get_mut(*at) {
                        *slot = source;
                    }
                    *at += 1;
                }
            }
        }
        Csr { start, items }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Row `i`; empty past the last row.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        match (self.start.get(i), self.start.get(i.wrapping_add(1))) {
            (Some(&lo), Some(&hi)) => self.items.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Row `i`, mutable; empty past the last row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        match (self.start.get(i), self.start.get(i.wrapping_add(1))) {
            (Some(&lo), Some(&hi)) => self.items.get_mut(lo..hi).unwrap_or(&mut []),
            _ => &mut [],
        }
    }

    /// Where row `i` starts in [`Csr::items`]; `items().len()` past the
    /// last row.
    #[inline]
    pub fn row_start(&self, i: usize) -> usize {
        self.start.get(i).copied().unwrap_or(self.items.len())
    }

    /// Every item, row after row.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone + '_ {
        self.start.windows(2).map(|w| match *w {
            [lo, hi] => self.items.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        })
    }

    /// Heap bytes of the offsets and the items.
    pub fn heap_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<usize>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

/// Row counts, each stored one slot after its row, turned into offsets
/// in place; returns the total.
fn prefix_sums(start: &mut [usize]) -> usize {
    let mut total = 0;
    for s in start {
        total += *s;
        *s = total;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The counting constructor's oracle: a stable sort of the kept pairs
    /// by row, cut into rows.
    fn sorted_rows(rows: usize, pairs: &[(usize, u32)]) -> Vec<Vec<u32>> {
        let mut kept: Vec<(usize, u32)> =
            pairs.iter().copied().filter(|&(r, _)| r < rows).collect();
        kept.sort_by_key(|&(r, _)| r);
        (0..rows)
            .map(|i| kept.iter().filter(|&&(r, _)| r == i).map(|&(_, x)| x).collect())
            .collect()
    }

    fn rows_of(csr: &Csr<u32>) -> Vec<Vec<u32>> {
        csr.iter().map(<[u32]>::to_vec).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `by_row` is a stable sort by row with the rows past the end
        /// (`usize::MAX` among them) dropped; `from_ends` over the sorted
        /// items and their row ends is the same table; `permuted` moves
        /// whole rows as copying them by hand does; and every row past the
        /// end reads empty.
        #[test]
        fn counting_matches_a_stable_sort(
            rows in 0usize..6,
            raw in collection::vec((0usize..9, 0u32..5), 0..24),
            order in collection::vec(0usize..9, 0..8),
        ) {
            let pairs: Vec<(usize, u32)> =
                raw.iter().map(|&(r, x)| (if r == 8 { usize::MAX } else { r }, x)).collect();
            let csr = Csr::by_row(rows, pairs.iter().copied());
            let want = sorted_rows(rows, &pairs);
            prop_assert_eq!(rows_of(&csr), want.clone());
            prop_assert_eq!(csr.rows(), rows);
            prop_assert_eq!(csr.items(), &want.concat()[..]);
            let ends = want.iter().scan(0, |end, row| {
                *end += row.len();
                Some(*end)
            });
            prop_assert_eq!(&Csr::from_ends(ends.collect(), want.concat()), &csr);
            let moved: Vec<Vec<u32>> =
                order.iter().map(|&r| want.get(r).cloned().unwrap_or_default()).collect();
            let permuted = csr.permuted(&order);
            prop_assert_eq!(rows_of(&permuted), moved);
            prop_assert!(permuted.row(order.len()).is_empty());
            for (i, row) in want.iter().enumerate() {
                prop_assert_eq!(csr.row(i), &row[..]);
                prop_assert_eq!(csr.row_start(i), want[..i].iter().map(Vec::len).sum::<usize>());
            }
            for past in [rows, rows + 1, usize::MAX] {
                prop_assert!(csr.row(past).is_empty());
                prop_assert_eq!(csr.row_start(past), csr.items().len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `transpose` is `by_row` over the arcs walked row by row: empty
        /// rows, keys past the end (`usize::MAX` among them) and a result
        /// with more or fewer rows than the source all agree.
        #[test]
        fn transpose_matches_counting_by_row(
            lens in collection::vec(0usize..4, 0..7),
            keys in collection::vec(0usize..9, 0..28),
            rows in 0usize..8,
        ) {
            let ends: Vec<usize> = lens
                .iter()
                .scan(0, |end, &len| {
                    *end = (*end + len).min(keys.len());
                    Some(*end)
                })
                .collect();
            let used = ends.last().copied().unwrap_or(0);
            let items: Vec<usize> =
                keys[..used].iter().map(|&k| if k == 8 { usize::MAX } else { k }).collect();
            let csr = Csr::from_ends(ends, items);
            let name = |i: usize| 100 + i as u32;
            let arcs = (0..)
                .zip(csr.iter())
                .flat_map(|(i, row)| row.iter().map(move |&k| (k, name(i))));
            let want = Csr::by_row(rows, arcs);
            prop_assert_eq!(&csr.transpose(rows, |&k| k, name), &want);
        }
    }

    #[test]
    fn an_empty_table_has_no_rows() {
        let csr: Csr<u32> = Csr::by_row(0, []);
        assert_eq!(csr.rows(), 0);
        assert!(csr.items().is_empty() && csr.iter().next().is_none());
        assert!(csr.row(0).is_empty() && csr.row(usize::MAX).is_empty());
        assert_eq!(csr, Csr::from_ends(Vec::new(), Vec::new()));
        let blank: Csr<u32> = Csr::by_row(3, [(3, 7), (usize::MAX, 8)]);
        assert_eq!(rows_of(&blank), [[0u32; 0]; 3]);
        assert!(blank.permuted(&[]).iter().next().is_none());
        assert_eq!(blank.transpose(2, |&x| x as usize, |i| i), Csr::by_row(2, []));
        assert_eq!(csr.transpose(0, |&x| x as usize, |i| i).rows(), 0);
    }

    #[test]
    fn rows_read_and_sort_in_place() {
        let mut csr = Csr::by_row(3, [(2, 5u32), (0, 9), (2, 1), (0, 4)]);
        assert_eq!(rows_of(&csr), [vec![9, 4], vec![], vec![5, 1]]);
        for i in 0..csr.rows() {
            csr.row_mut(i).sort_unstable();
        }
        assert_eq!(rows_of(&csr), [vec![4, 9], vec![], vec![1, 5]]);
        assert!(csr.row_mut(3).is_empty() && csr.row_mut(usize::MAX).is_empty());
        assert_eq!(csr.row_start(2), 2);
        assert!(csr.heap_bytes() >= 4 * std::mem::size_of::<usize>() + 4 * 4);
    }
}
