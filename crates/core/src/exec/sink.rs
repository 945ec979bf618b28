//! Match sinks: what happens to each complete embedding.
//!
//! The executor grows partial embeddings along `Φ*` and, at full depth,
//! hands the mapping array to a [`MatchSink`]. One recursion body serves
//! counting, enumeration, collection, first-`k` early stop, and arbitrary
//! callbacks — the sink decides, via [`std::ops::ControlFlow`], whether
//! the search continues.
//!
//! Sinks are also the unit of parallelism: the scheduler gives every
//! worker its own sink instance (so `on_embedding` never synchronizes)
//! and folds them together with [`MatchSink::merge`] once the workers
//! join. Workers claim disjoint root-candidate chunks, so merged results
//! are duplicate-free by construction.

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

    /// Fold another worker's sink of the same type into this one — the
    /// reduction used after a parallel run. Workers enumerate disjoint
    /// root partitions, so merging never needs to deduplicate.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;
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

    fn merge(&mut self, other: Self) {
        self.count = add_clamped(self.count, other.count, &mut self.saturated);
        self.saturated |= other.saturated;
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

    fn merge(&mut self, other: Self) {
        let mut theirs = other.embeddings;
        self.embeddings.append(&mut theirs);
    }
}

/// Collects at most `k` embeddings, then stops the search.
///
/// In a parallel run every worker shares one admission counter
/// ([`FirstKSink::shared`]): an embedding is kept only if it wins one of
/// the `k` global slots, so the merged result holds *exactly*
/// `min(k, total)` embeddings no matter how the workers interleave.
#[derive(Clone, Debug)]
pub struct FirstKSink {
    k: usize,
    /// Global admission counter for parallel runs; `None` counts locally.
    admitted: Option<Arc<AtomicU64>>,
    pub embeddings: Vec<Vec<VertexId>>,
}

impl FirstKSink {
    /// A sequential first-`k` sink.
    pub fn new(k: usize) -> FirstKSink {
        FirstKSink { k, admitted: None, embeddings: Vec::new() }
    }

    /// A worker-side sink drawing admissions from a shared counter; all
    /// workers of one run must share the same `counter`.
    pub fn shared(k: usize, counter: Arc<AtomicU64>) -> FirstKSink {
        FirstKSink { k, admitted: Some(counter), embeddings: Vec::new() }
    }

    /// The requested limit.
    pub fn limit(&self) -> usize {
        self.k
    }
}

impl MatchSink for FirstKSink {
    fn on_embedding(&mut self, f: &[VertexId]) -> ControlFlow<()> {
        let slot = match &self.admitted {
            Some(counter) => counter.fetch_add(1, Ordering::Relaxed),
            None => self.embeddings.len() as u64,
        };
        if slot < self.k as u64 {
            self.embeddings.push(f.to_vec());
        }
        // Stop once the global quota is filled — this worker may have
        // contributed fewer than k, but no further slots exist.
        if slot + 1 >= self.k as u64 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn merge(&mut self, other: Self) {
        let mut theirs = other.embeddings;
        self.embeddings.append(&mut theirs);
        debug_assert!(self.embeddings.len() <= self.k, "shared admission keeps the quota exact");
    }
}

/// Adapts a `FnMut(&[VertexId]) -> bool` callback (the pre-sink
/// `Executor::enumerate` contract: return `false` to stop) to the sink
/// interface. Callbacks carry caller state, so a `CallbackSink` is
/// sequential-only: `merge` discards the other side.
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

    fn merge(&mut self, _other: Self) {
        // Callback state lives with the caller; there is nothing to fold.
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
        let mut merged = CountSink { count: u64::MAX - 1, saturated: false };
        merged.merge(CountSink { count: 5, saturated: false });
        assert_eq!(merged.count, u64::MAX);
        assert!(merged.saturated);
        let mut sticky = CountSink::default();
        sticky.merge(s);
        assert!(sticky.saturated);
    }

    #[test]
    fn collect_sink_merges_in_order() {
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        let _ = a.on_embedding(&[1, 2]);
        let _ = b.on_embedding(&[3, 4]);
        a.merge(b);
        assert_eq!(a.embeddings, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn first_k_stops_at_k_sequentially() {
        let mut s = FirstKSink::new(2);
        assert!(s.on_embedding(&[1]).is_continue());
        assert!(s.on_embedding(&[2]).is_break());
        assert_eq!(s.embeddings.len(), 2);
        assert_eq!(s.limit(), 2);
    }

    #[test]
    fn first_k_shared_counter_is_exact_across_sinks() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut a = FirstKSink::shared(3, Arc::clone(&counter));
        let mut b = FirstKSink::shared(3, Arc::clone(&counter));
        assert!(a.on_embedding(&[1]).is_continue());
        assert!(b.on_embedding(&[2]).is_continue());
        assert!(a.on_embedding(&[3]).is_break());
        // The quota is spent: further embeddings are rejected everywhere.
        assert!(b.on_embedding(&[4]).is_break());
        assert_eq!(a.embeddings.len() + b.embeddings.len(), 3);
        a.merge(b);
        assert_eq!(a.embeddings.len(), 3);
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
