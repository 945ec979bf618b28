//! The parallel match scheduler: dynamic chunked claiming of root
//! candidates plus cooperative cancellation.
//!
//! The paper evaluates single-threaded matching; the natural
//! data-parallel extension partitions the root vertex's candidate set.
//! A static split (round-robin `i % stride == offset`) load-balances
//! badly on skewed degree distributions: one hub root can pin a whole
//! worker while the others idle. Here workers instead *claim* chunks of
//! root-candidate indices
//! from a shared [`Scheduler`] cursor — a work-stealing loop without
//! per-task queues, since the root candidate order is identical in every
//! worker. Chunk size adapts to the candidate count ([`adaptive_chunk`])
//! so small candidate sets degrade to per-candidate claiming.
//!
//! The scheduler also owns the run's *shared* stop state: one deadline
//! (checked every 4096 recursion nodes) and one stop flag, so a timeout
//! or an early-stopping sink ([`FirstKSink`](super::FirstKSink)) in any
//! worker halts all of them instead of each worker finishing its slice.
//! Worker panics are caught, abort the remaining workers via the same
//! flag, and surface as an [`ExecError`] — never as a poisoned join.
//!
//! SCE-cache soundness is preserved by construction: claiming only
//! partitions the *root* loop, every worker runs the unchanged sequential
//! executor below it, and candidate caches (plus their parent-mapping
//! signatures) are worker-local.

use super::engine::Executor;
use super::sink::{CollectSink, MatchSink};
use super::stats::ExecStats;
use super::RunConfig;
use crate::catalog::Catalog;
use crate::plan::Plan;
use csce_graph::VertexId;
use csce_obs::Recorder;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Terminal failures of a parallel run. Partial results (timeouts) are
/// *not* errors — they come back in [`ExecStats::timed_out`]; an error
/// means no trustworthy result exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked. The remaining workers were stopped via
    /// the shared flag and joined before this was returned.
    WorkerPanicked { worker: usize, message: String },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanicked { worker, message } => {
                write!(f, "match worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Chunk size for claiming from `len` root candidates across `threads`
/// workers: roughly 32 claims per worker for balance, clamped to
/// `[1, 256]` so tiny candidate sets become per-candidate claiming and
/// huge ones keep the cursor off the hot path.
pub fn adaptive_chunk(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 32)).clamp(1, 256)
}

/// Shared state of one parallel run: the root-candidate claim cursor, the
/// cooperative stop flag, and the run-wide deadline.
#[derive(Debug)]
pub struct Scheduler {
    threads: usize,
    cursor: AtomicUsize,
    stop: AtomicBool,
    deadline: Option<Instant>,
}

impl Scheduler {
    pub fn new(threads: usize, deadline: Option<Instant>) -> Scheduler {
        Scheduler { threads, cursor: AtomicUsize::new(0), stop: AtomicBool::new(false), deadline }
    }

    /// Worker count the chunk size adapts to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared deadline, if the run has a time limit.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Claim the next chunk of `0..len`. Returns `None` once the range is
    /// exhausted or the run was stopped. Across all workers the claimed
    /// chunks are disjoint and cover `0..len` exactly (the invariant
    /// `csce-analyze`'s scheduler check verifies).
    pub fn claim(&self, len: usize) -> Option<Range<usize>> {
        if self.stopped() {
            return None;
        }
        let chunk = adaptive_chunk(len, self.threads);
        let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            return None;
        }
        Some(start..(start + chunk).min(len))
    }

    /// Ask every worker to stop at its next check.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stop the run, reporting whether *this* call made the transition —
    /// the winner of the race attributes the stop (e.g. flags
    /// `timed_out` exactly once across all workers).
    pub fn stop_once(&self) -> bool {
        !self.stop.swap(true, Ordering::Relaxed)
    }

    /// Whether a stop was requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Outcome of a parallel count: the total plus the merged per-worker
/// counters ([`ExecStats::merge`] — counters saturate-add, `timed_out` is
/// sticky, so a partial result is never silently reported as complete)
/// and the unmerged per-worker stats for load-balance observability.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    pub count: u64,
    pub stats: ExecStats,
    /// Per-worker counters, indexed by worker id (length = thread count).
    pub workers: Vec<ExecStats>,
}

/// Outcome of a parallel enumeration: embeddings (sorted, so the result
/// is independent of worker interleaving), merged stats, per-worker
/// stats.
#[derive(Clone, Debug)]
pub struct CollectRun {
    pub embeddings: Vec<Vec<VertexId>>,
    pub stats: ExecStats,
    /// Per-worker counters, indexed by worker id (length = thread count).
    pub workers: Vec<ExecStats>,
}

/// Render a panic payload for [`ExecError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `work` once per worker over a shared [`Scheduler`], returning each
/// worker's result and stats in worker order.
///
/// With `threads == 1` the work runs inline on the calling thread (no
/// scheduler, no panic capture — a sequential panic propagates normally,
/// which is why single-threaded entry points stay infallible). With more
/// threads, each worker is wrapped in `catch_unwind`; the first panic
/// stops the remaining workers and surfaces as [`ExecError`] after all
/// of them joined.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel<R, W>(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
    work: W,
) -> Result<Vec<(R, ExecStats)>, ExecError>
where
    R: Send,
    W: Fn(usize, &mut Executor<'_>) -> R + Sync,
{
    assert!(threads >= 1, "a run needs at least one worker");
    if threads == 1 {
        let catalog = Catalog::new(pattern, star);
        let mut exec = Executor::new(&catalog, plan, config);
        if let Some(sink) = &progress {
            exec = exec.with_progress(Arc::clone(sink));
        }
        let _span = recorder.span_path("execute/worker");
        let result = work(0, &mut exec);
        return Ok(vec![(result, exec.stats().clone())]);
    }
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    let scheduler = Arc::new(Scheduler::new(threads, deadline));
    std::thread::scope(|scope| {
        let work = &work;
        let progress = &progress;
        let scheduler = &scheduler;
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let catalog = Catalog::new(pattern, star);
                        let mut exec = Executor::new(&catalog, plan, config)
                            .with_scheduler(Arc::clone(scheduler));
                        if let Some(sink) = progress {
                            exec = exec.with_progress(Arc::clone(sink));
                        }
                        let _span = recorder.span_path("execute/worker");
                        let result = work(worker, &mut exec);
                        (result, exec.stats().clone())
                    }));
                    if outcome.is_err() {
                        // Abort the siblings: they observe the flag at
                        // their next node-batch check or chunk claim.
                        scheduler.request_stop();
                    }
                    outcome.map_err(|payload| panic_message(payload.as_ref()))
                })
            })
            .collect();
        let mut results = Vec::with_capacity(threads);
        let mut first_error = None;
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(pair)) => results.push(pair),
                Ok(Err(message)) => {
                    first_error.get_or_insert(ExecError::WorkerPanicked { worker, message });
                }
                // A panic that escaped capture (e.g. raised while
                // unwinding); still degrade to an error after joining.
                Err(payload) => {
                    first_error.get_or_insert(ExecError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(results),
        }
    })
}

/// Count embeddings using `threads` workers claiming root-candidate
/// chunks dynamically, with per-worker phase spans recorded under
/// `execute/worker`. Exact: the per-worker partial counts sum to the
/// sequential count, and SCE caching plus factorized counting run
/// unchanged inside each worker.
pub fn count_parallel_observed(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
) -> Result<ParallelRun, ExecError> {
    let per_worker = run_parallel(star, pattern, plan, config, threads, progress, recorder, {
        |_, exec: &mut Executor<'_>| exec.count()
    })?;
    let mut total = 0u64;
    let mut stats = ExecStats::default();
    let mut workers = Vec::with_capacity(per_worker.len());
    for (partial, worker_stats) in per_worker {
        total = total.saturating_add(partial);
        stats.merge(&worker_stats);
        workers.push(worker_stats);
    }
    // Merged `embeddings` already sums the partials; pin it to the total
    // to keep the invariant embeddings == count under saturation.
    stats.embeddings = total;
    Ok(ParallelRun { count: total, stats, workers })
}

/// Run one sink instance per worker and fold them in worker order —
/// the generic parallel entry point [`collect_parallel`] specializes
/// (a shared [`FirstKSink`](super::FirstKSink) quota gives exact
/// first-`k` enumeration).
#[allow(clippy::too_many_arguments)]
pub fn sink_parallel<S, F>(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
    make_sink: F,
) -> Result<(S, ExecStats, Vec<ExecStats>), ExecError>
where
    S: MatchSink + Send,
    F: Fn(usize) -> S + Sync,
{
    let per_worker =
        run_parallel(star, pattern, plan, config, threads, progress, recorder, |worker, exec| {
            let mut sink = make_sink(worker);
            exec.drive(&mut sink);
            sink
        })?;
    let mut merged: Option<S> = None;
    let mut stats = ExecStats::default();
    let mut workers = Vec::with_capacity(per_worker.len());
    for (sink, worker_stats) in per_worker {
        match &mut merged {
            Some(acc) => acc.merge(sink),
            None => merged = Some(sink),
        }
        stats.merge(&worker_stats);
        workers.push(worker_stats);
    }
    match merged {
        Some(sink) => Ok((sink, stats, workers)),
        // Unreachable: run_parallel asserts threads >= 1.
        None => Err(ExecError::WorkerPanicked {
            worker: 0,
            message: "no worker produced a sink".to_string(),
        }),
    }
}

/// Enumerate *all* embeddings across `threads` workers. The result is
/// sorted, so it is independent of worker interleaving, and duplicate-free
/// by construction (workers claim disjoint root chunks).
pub fn collect_parallel(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
) -> Result<CollectRun, ExecError> {
    let (sink, stats, workers) =
        sink_parallel(star, pattern, plan, config, threads, progress, recorder, |_| {
            CollectSink::default()
        })?;
    let mut embeddings = sink.embeddings;
    embeddings.sort_unstable();
    Ok(CollectRun { embeddings, stats, workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_chunk_bounds() {
        assert_eq!(adaptive_chunk(0, 4), 1);
        assert_eq!(adaptive_chunk(1, 4), 1);
        assert_eq!(adaptive_chunk(100, 4), 1);
        assert_eq!(adaptive_chunk(12_800, 4), 100);
        assert_eq!(adaptive_chunk(usize::MAX, 4), 256);
        // Degenerate thread counts never zero the chunk.
        assert!(adaptive_chunk(10, 0) >= 1);
    }

    #[test]
    fn claims_partition_the_range() {
        for len in [0usize, 1, 5, 97, 1000, 4096] {
            for threads in [1usize, 2, 4, 7] {
                let sched = Scheduler::new(threads, None);
                let mut covered = Vec::new();
                while let Some(range) = sched.claim(len) {
                    covered.extend(range);
                }
                let expected: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expected, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_cover() {
        let len = 1003usize;
        let threads = 4usize;
        let sched = Scheduler::new(threads, None);
        let mut per_thread: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(range) = sched.claim(len) {
                            mine.extend(range);
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().expect("claimer thread"));
            }
        });
        let mut all: Vec<usize> = per_thread.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..len).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn stop_once_has_a_single_winner() {
        let sched = Scheduler::new(4, None);
        assert!(!sched.stopped());
        assert!(sched.stop_once());
        assert!(!sched.stop_once());
        assert!(sched.stopped());
        assert_eq!(sched.claim(100), None, "stopped schedulers hand out no work");
    }

    #[test]
    fn exec_error_displays_worker_and_message() {
        let err = ExecError::WorkerPanicked { worker: 3, message: "boom".to_string() };
        let text = err.to_string();
        assert!(text.contains('3') && text.contains("boom"), "{text}");
    }
}
