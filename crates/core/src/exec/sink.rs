//! Match sinks: what happens to each complete embedding.
//!
//! The executor grows partial embeddings along `Φ*` and, at full depth,
//! hands the mapping array to a [`MatchSink`]. One recursion body serves
//! counting, enumeration, collection, first-`k` early stop, and arbitrary
//! callbacks — the sink decides, via [`std::ops::ControlFlow`], whether
//! the search continues.
//!
//! Every collected result goes through the crate-private [`KeyedSink`]:
//! each worker of a run owns one, sorts it on its own thread, and the
//! driver merges the sorted rows
//! ([`collect_parallel`](super::collect_parallel)). A first-`k` collect
//! gives the workers' sinks one shared admission counter; an unlimited
//! one gives them none, so `on_embedding` never synchronizes.

use super::stats::add_clamped;
use csce_graph::VertexId;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A consumer of complete embeddings.
///
/// `on_embedding` receives the mapping array (`f[i]` = data vertex
/// matched to pattern vertex `i`) and returns
/// [`ControlFlow::Break`] to stop the search — locally for a sequential
/// run, cooperatively across all workers for a parallel one.
pub trait MatchSink {
    /// Consume one embedding; `Break` stops the search.
    fn on_embedding(&mut self, f: &[VertexId]) -> ControlFlow<()>;
}

/// Counts embeddings. The count clamps at `u64::MAX` (a homomorphic count
/// can overflow `u64` long before it finishes enumerating) and then sets
/// `saturated`.
#[derive(Clone, Debug, Default)]
pub struct CountSink {
    pub count: u64,
    /// The count was clamped at `u64::MAX`: it is a lower bound.
    pub saturated: bool,
}

impl MatchSink for CountSink {
    #[inline]
    fn on_embedding(&mut self, _f: &[VertexId]) -> ControlFlow<()> {
        self.count = add_clamped(self.count, 1, &mut self.saturated);
        ControlFlow::Continue(())
    }
}

/// Collects every embedding as an owned mapping array.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    pub embeddings: Vec<Vec<VertexId>>,
}

impl MatchSink for CollectSink {
    #[inline]
    fn on_embedding(&mut self, f: &[VertexId]) -> ControlFlow<()> {
        self.embeddings.push(f.to_vec());
        ControlFlow::Continue(())
    }
}

/// Collects every embedding as `(prefix, row)`, ready to be sorted where
/// it was collected — the sink of [`collect_parallel`](super::collect_parallel).
///
/// `prefix` packs the leading values of the row, most significant first,
/// at `⌈log2 |V(G)|⌉` bits each, as many as fit in 64 bits. Entries
/// therefore compare as their rows do, and the row is read only when two
/// prefixes tie, which for distinct rows never happens once the whole row
/// fits. An entry is
/// 24 bytes, a `Vec` header's size, so [`KeyedSink::into_sorted`] strips
/// the prefixes in place.
///
/// With a quota `(k, admitted)`, shared by all the workers of one run, a
/// row is kept only if it wins one of the `k` slots `admitted` hands out,
/// so the run keeps *exactly* `min(k, total)` rows however the workers
/// interleave; the sink that hands out slot `k - 1` (or any later one)
/// stops the search.
#[derive(Debug)]
pub(crate) struct KeyedSink {
    /// Bits per packed value, in `1..=32`.
    bits: u32,
    /// How many leading values the prefix packs.
    columns: usize,
    entries: Vec<(u64, Box<[VertexId]>)>,
    /// The run's first-`k` quota; `None` keeps every row.
    quota: Option<(u64, Arc<AtomicU64>)>,
}

impl KeyedSink {
    /// A sink for embeddings into a data graph of `data_n` vertices: every
    /// value is below `data_n`, so `⌈log2 data_n⌉` bits hold it.
    pub(crate) fn new(data_n: usize, quota: Option<(u64, Arc<AtomicU64>)>) -> KeyedSink {
        let bits =
            (usize::BITS - data_n.saturating_sub(1).leading_zeros()).clamp(1, VertexId::BITS);
        let columns = u64::BITS.checked_div(bits).map_or(0, |c| c as usize);
        KeyedSink { bits, columns, entries: Vec::new(), quota }
    }

    /// The packed leading values of `f`.
    #[inline]
    fn prefix(&self, f: &[VertexId]) -> u64 {
        f.iter().take(self.columns).fold(0, |key, &v| (key << self.bits) | u64::from(v))
    }

    /// The rows, sorted ascending. The entries are sorted by `(prefix,
    /// row)` and then turned into rows in place: each boxed row becomes a
    /// `Vec` without a copy, in the entries' own buffer.
    pub(crate) fn into_sorted(self) -> Vec<Vec<VertexId>> {
        let mut entries = self.entries;
        entries.sort_unstable();
        entries.into_iter().map(|(_, row)| row.into_vec()).collect()
    }
}

impl MatchSink for KeyedSink {
    #[inline]
    fn on_embedding(&mut self, f: &[VertexId]) -> ControlFlow<()> {
        let Some((k, admitted)) = &self.quota else {
            self.entries.push((self.prefix(f), f.into()));
            return ControlFlow::Continue(());
        };
        let (k, slot) = (*k, admitted.fetch_add(1, Ordering::Relaxed));
        if slot < k {
            self.entries.push((self.prefix(f), f.into()));
        }
        // Stop once the run's quota is filled: this worker may hold fewer
        // than `k` rows, but no further slots exist.
        if slot >= k.saturating_sub(1) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Adapts a `FnMut(&[VertexId]) -> bool` callback (the pre-sink
/// `Executor::enumerate` contract: return `false` to stop) to the sink
/// interface. Callbacks carry caller state, so a `CallbackSink` serves
/// one sequential executor.
pub struct CallbackSink<F> {
    emit: F,
}

impl<F> CallbackSink<F>
where
    F: FnMut(&[VertexId]) -> bool,
{
    pub fn new(emit: F) -> CallbackSink<F> {
        CallbackSink { emit }
    }
}

impl<F> MatchSink for CallbackSink<F>
where
    F: FnMut(&[VertexId]) -> bool,
{
    #[inline]
    fn on_embedding(&mut self, f: &[VertexId]) -> ControlFlow<()> {
        if (self.emit)(f) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_saturates() {
        let mut s = CountSink { count: u64::MAX - 1, saturated: false };
        assert!(s.on_embedding(&[0]).is_continue());
        assert_eq!(s.count, u64::MAX);
        assert!(!s.saturated, "u64::MAX itself is exact");
        assert!(s.on_embedding(&[0]).is_continue());
        assert_eq!(s.count, u64::MAX);
        assert!(s.saturated);
    }

    /// Feed `rows` to a keyed sink over `data_n` vertices and sort them.
    fn keyed(data_n: usize, rows: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
        let mut sink = KeyedSink::new(data_n, None);
        for row in rows {
            assert!(sink.on_embedding(row).is_continue());
        }
        sink.into_sorted()
    }

    #[test]
    fn key_width_covers_every_vertex_id() {
        for (data_n, bits, columns) in [
            (0usize, 1u32, 64usize),
            (1, 1, 64),
            (2, 1, 64),
            (3, 2, 32),
            (4, 2, 32),
            (5, 3, 21),
            (1 << 20, 20, 3),
            ((1 << 20) + 1, 21, 3),
            (u32::MAX as usize, 32, 2),
            (u32::MAX as usize + 1, 32, 2),
        ] {
            let sink = KeyedSink::new(data_n, None);
            assert_eq!((sink.bits, sink.columns), (bits, columns), "data_n={data_n}");
        }
        // The largest id packs into the top of the key, the next column
        // below it.
        let sink = KeyedSink::new(5, None);
        assert_eq!(sink.prefix(&[4, 1]), (4 << 3) | 1);
        assert_eq!(
            KeyedSink::new(u32::MAX as usize, None).prefix(&[u32::MAX - 1, 7, 9]),
            (0xFFFF_FFFE << 32) | 7
        );
    }

    #[test]
    fn keyed_rows_sort_as_plain_rows() {
        // Near `u32::MAX` vertices only two columns fit in the prefix:
        // rows equal in those two must still order by the rest.
        let big = u32::MAX as usize;
        let top = u32::MAX - 1;
        let rows = vec![
            vec![top, 3, 9, 1],
            vec![top, 3, 2, 8],
            vec![0, top, 5, 5],
            vec![top, 3, 2, 7],
            vec![top, 2, top, 0],
            vec![0, top, 5, 4],
            vec![1, 0, 0, 0],
        ];
        let mut want = rows.clone();
        want.sort_unstable();
        assert_eq!(keyed(big, &rows), want);
        // Small graphs fit the whole row in the prefix.
        let small: Vec<Vec<VertexId>> =
            (0..60u32).map(|i| vec![(i * 7) % 5, (i * 3) % 5, i % 5]).collect();
        let mut want = small.clone();
        want.sort_unstable();
        assert_eq!(keyed(5, &small), want);
        assert!(keyed(5, &[]).is_empty());
    }

    #[test]
    fn stripping_the_keys_reuses_the_entries_buffer() {
        let mut sink = KeyedSink::new(100, None);
        for i in (0..50u32).rev() {
            let _ = sink.on_embedding(&[i, i + 1]);
        }
        let buffer = sink.entries.as_ptr() as usize;
        let rows = sink.into_sorted();
        assert_eq!(rows.as_ptr() as usize, buffer, "rows were moved to a new buffer");
        assert!(rows.iter().zip(0..).all(|(row, i)| *row == [i, i + 1]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over every key width, from whole rows in the prefix to two
        /// columns of 32 bits, keyed sorting is a plain sort of the rows.
        #[test]
        fn keyed_order_is_row_order(
            shift in 2u32..=32,
            rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 5), 0..40),
        ) {
            let data_n = 1usize << shift;
            // Spread the small values over the whole id range, so ties in
            // the packed columns are common and high bits are set.
            let scale = u32::try_from(data_n / 4).unwrap_or(1 << 30);
            let rows: Vec<Vec<VertexId>> =
                rows.into_iter().map(|r| r.into_iter().map(|v| v * scale).collect()).collect();
            let mut want = rows.clone();
            want.sort_unstable();
            proptest::prop_assert_eq!(keyed(data_n, &rows), want);
        }
    }

    #[test]
    fn a_shared_quota_admits_exactly_k_rows() {
        for k in [0u32, 1, 3] {
            for offered in 0..6u32 {
                let quota = Some((u64::from(k), Arc::new(AtomicU64::new(0))));
                let mut sinks = [0, 1].map(|_| KeyedSink::new(10, quota.clone()));
                // The two sinks take turns; every offer past the quota's
                // last slot is refused, and the offer that takes the last
                // slot (or any later one) stops the search.
                for row in 0..offered {
                    let flow = sinks[usize::from(row % 2 == 1)].on_embedding(&[row, row + 1]);
                    assert_eq!(flow.is_break(), row + 1 >= k, "k={k}, offer {row}");
                }
                let [a, b] = sinks;
                let mut rows = [a.into_sorted(), b.into_sorted()].concat();
                rows.sort_unstable();
                let want: Vec<Vec<VertexId>> =
                    (0..offered.min(k)).map(|row| vec![row, row + 1]).collect();
                assert_eq!(rows, want, "k={k}, offered={offered}");
            }
        }
    }

    #[test]
    fn callback_sink_maps_bool_to_control_flow() {
        let mut stop_after = 2;
        let mut sink = CallbackSink::new(|_f: &[VertexId]| {
            stop_after -= 1;
            stop_after > 0
        });
        assert!(sink.on_embedding(&[0]).is_continue());
        assert!(sink.on_embedding(&[0]).is_break());
    }
}
