//! The match scheduler: dynamic chunked claiming of root candidates plus
//! cooperative cancellation, and the one worker driver every search runs
//! through.
//!
//! The paper evaluates single-threaded matching; the natural
//! data-parallel extension partitions the root vertex's candidate set.
//! A static split (round-robin `i % stride == offset`) load-balances
//! badly on skewed degree distributions: one hub root can pin a whole
//! worker while the others idle. Here workers instead *claim* chunks of
//! root-candidate indices
//! from a shared [`Scheduler`] cursor — a work-stealing loop without
//! per-task queues, since the root candidate order is identical in every
//! worker. Chunk size adapts to the candidate count (`adaptive_chunk`)
//! so small candidate sets degrade to per-candidate claiming. A
//! one-thread run is the same protocol with a single claimer.
//!
//! The scheduler also owns the run's *shared* stop state: one deadline
//! (checked every 4096 recursion nodes) and one stop flag, so a timeout
//! or a filled first-`k` quota in any worker halts all of them instead of
//! each worker finishing its slice.
//! The deadline is computed in one place (`deadline_after`). Worker
//! panics — the calling thread's included, since it runs worker 0 — are
//! caught, abort the remaining workers via the same flag, and surface as
//! an [`ExecError`], never as a poisoned join.
//!
//! One worker driver (`run_parallel`) serves the two entry points,
//! counting ([`count_parallel_observed`]) and collecting
//! ([`collect_parallel`], and the first-`k` collect behind
//! `Query::collect`, which share one function body). A collected result
//! is ordered where it is produced: each worker sorts its own rows, keyed
//! by a packed prefix, on its own thread, and the driver merges the
//! sorted runs in place from the back, one linear pass per further
//! worker.
//!
//! SCE-cache soundness is preserved by construction: claiming only
//! partitions the *root* loop, every worker runs the unchanged sequential
//! executor below it, and candidate caches (plus their parent-mapping
//! signatures) are worker-local.

use super::engine::Executor;
use super::sink::KeyedSink;
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
use std::time::{Duration, Instant};

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
fn adaptive_chunk(len: usize, threads: usize) -> usize {
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

    /// The shared deadline, if the run has a time limit.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Claim the next chunk of `0..len`. Returns `None` once the range is
    /// exhausted or the run was stopped. Across all workers the claimed
    /// chunks are disjoint and cover `0..len` exactly.
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

/// Outcome of a parallel enumeration: embeddings (sorted ascending and
/// distinct, so the result is identical at every thread count; each
/// worker sorted its own rows and the driver merged them), merged stats,
/// per-worker stats.
#[derive(Clone, Debug)]
pub struct CollectRun {
    pub embeddings: Vec<Vec<VertexId>>,
    pub stats: ExecStats,
    /// Per-worker counters, indexed by worker id (length = thread count).
    pub workers: Vec<ExecStats>,
}

/// The deadline of a run started now under `limit`. A limit past the
/// clock's range means no deadline rather than an overflow.
pub(super) fn deadline_after(limit: Option<Duration>) -> Option<Instant> {
    limit.and_then(|limit| Instant::now().checked_add(limit))
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

/// The one worker driver: run `work` once per worker over one shared
/// [`Scheduler`] and return each worker's result next to its stats, in
/// worker order. The calling thread is worker 0; workers `1..threads` are
/// spawned (`threads` is clamped to at least 1). Every worker runs under
/// `catch_unwind`: the first panic stops the others and surfaces as
/// [`ExecError`] after all of them joined.
#[allow(clippy::too_many_arguments)]
fn run_parallel<R, W>(
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
    let threads = threads.max(1);
    let scheduler = &Arc::new(Scheduler::new(threads, deadline_after(config.time_limit)));
    // One catalog for the run: it holds no mutable state, so every worker
    // borrows it.
    let catalog = &Catalog::new(pattern, star);
    let (work, progress) = (&work, &progress);
    let worker = move |id: usize| {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut exec =
                Executor::new(catalog, plan, config).with_scheduler(Arc::clone(scheduler));
            if let Some(sink) = progress {
                exec = exec.with_progress(Arc::clone(sink));
            }
            let _span = recorder.span_path("execute/worker");
            let result = work(id, &mut exec);
            (result, exec.into_stats())
        }));
        if outcome.is_err() {
            // Abort the siblings: they observe the flag at their next
            // node-batch check or chunk claim.
            scheduler.request_stop();
        }
        outcome.map_err(|payload| panic_message(payload.as_ref()))
    };
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|id| scope.spawn(move || worker(id))).collect();
        let first = worker(0);
        // A panic that escaped capture (e.g. raised while unwinding)
        // still degrades to an error after joining.
        let rest = handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|p| Err(panic_message(p.as_ref()))));
        std::iter::once(first).chain(rest).collect::<Vec<_>>()
    });
    (0..)
        .zip(outcomes)
        .map(|(worker, outcome)| {
            outcome.map_err(|message| ExecError::WorkerPanicked { worker, message })
        })
        .collect()
}

/// The run's stats: every worker's, merged ([`ExecStats::merge`]).
fn merged(workers: &[ExecStats]) -> ExecStats {
    let mut stats = ExecStats::default();
    for worker in workers {
        stats.merge(worker);
    }
    stats
}

/// Count embeddings using `threads` workers claiming root-candidate
/// chunks dynamically, with per-worker phase spans recorded under
/// `execute/worker`. Exact: the per-worker partial counts sum to the
/// sequential count, and SCE caching plus factorized counting run
/// unchanged inside each worker. Each worker's `embeddings` is its
/// count, so the merged stats carry the total, clamped and flagged
/// `saturated` if the sum overflows.
pub fn count_parallel_observed(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
) -> Result<ParallelRun, ExecError> {
    let runs =
        run_parallel(star, pattern, plan, config, threads, progress, recorder, |_, exec| {
            exec.count();
        })?;
    let workers: Vec<ExecStats> = runs.into_iter().map(|((), stats)| stats).collect();
    let stats = merged(&workers);
    Ok(ParallelRun { count: stats.embeddings, stats, workers })
}

/// Merge `theirs` into `acc`, both sorted ascending, keeping `acc`
/// sorted: one `reserve_exact`, then rows are moved from the back, the
/// larger of the two last unplaced rows into the last free slot, so no
/// row is copied and `acc` grows to exactly the sum of the two.
fn merge_sorted(acc: &mut Vec<Vec<VertexId>>, mut theirs: Vec<Vec<VertexId>>) {
    if acc.is_empty() {
        *acc = theirs;
        return;
    }
    let mut mine = acc.len();
    acc.reserve_exact(theirs.len());
    acc.resize_with(mine + theirs.len(), Vec::new);
    // Invariant: `slot + 1 == mine + theirs.len()`, and every row past
    // `slot` is placed.
    for slot in (0..acc.len()).rev() {
        let take_mine = match (mine.checked_sub(1).and_then(|i| acc.get(i)), theirs.last()) {
            // Once `theirs` is spent, `acc[..mine]` is already in place.
            (_, None) => break,
            (Some(a), Some(b)) => a > b,
            (None, Some(_)) => false,
        };
        if take_mine {
            mine -= 1;
            acc.swap(mine, slot);
        } else if let (Some(row), Some(free)) = (theirs.pop(), acc.get_mut(slot)) {
            *free = row;
        }
    }
}

/// Enumerate *all* embeddings across `threads` workers: the unlimited
/// [`collect_with_limit`].
pub fn collect_parallel(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
) -> Result<CollectRun, ExecError> {
    collect_with_limit(star, pattern, plan, config, threads, progress, recorder, None)
}

/// Enumerate embeddings across `threads` workers, at most `limit` of
/// them — the one body behind every collected result. Each worker
/// collects into a [`KeyedSink`] and sorts its own rows on its own thread
/// (phase `execute/worker/sort`); the driver then merges the sorted runs
/// in place, in worker order (`execute/merge`). The result is sorted, so
/// it is independent of worker interleaving, and duplicate-free by
/// construction (workers claim disjoint root chunks). With `limit`, the
/// sinks share one admission counter, so exactly `min(limit, total)`
/// rows are kept and the run stops once they are; *which* rows win
/// depends on scheduling. A worker's `embeddings` counts the rows it
/// kept, so the merged count equals the rows returned; a zero `limit`
/// returns before any worker searches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_with_limit(
    star: &csce_ccsr::GcStar<'_>,
    pattern: &csce_graph::Graph,
    plan: &Plan,
    config: RunConfig,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    recorder: &Recorder,
    limit: Option<usize>,
) -> Result<CollectRun, ExecError> {
    if limit == Some(0) {
        let stats = ExecStats::new(pattern.n());
        let workers = vec![stats.clone(); threads.max(1)];
        return Ok(CollectRun { embeddings: Vec::new(), stats, workers });
    }
    let data_n = star.ccsr().n();
    let quota = limit.map(|k| (u64::try_from(k).unwrap_or(u64::MAX), Arc::new(AtomicU64::new(0))));
    let runs =
        run_parallel(star, pattern, plan, config, threads, progress, recorder, |_, exec| {
            let mut sink = KeyedSink::new(data_n, quota.clone());
            exec.drive(&mut sink);
            let _span = recorder.span_path("execute/worker/sort");
            sink.into_sorted()
        })?;
    let (mut embeddings, mut workers) = (Vec::new(), Vec::with_capacity(runs.len()));
    for (id, (rows, mut stats)) in runs.into_iter().enumerate() {
        // Rows the quota refused were reached but not returned.
        stats.embeddings = rows.len() as u64;
        workers.push(stats);
        if id == 0 {
            embeddings = rows;
        } else {
            let _span = recorder.span_path("execute/merge");
            merge_sorted(&mut embeddings, rows);
        }
    }
    Ok(CollectRun { embeddings, stats: merged(&workers), workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidate counts around the chunk boundaries: empty, tiny, ±1
    /// around the 32-claims-per-worker divisor and the 256 clamp, a prime
    /// and a large power of two.
    const LENS: [usize; 10] = [0, 1, 2, 31, 32, 255, 256, 257, 1009, 8192];

    #[test]
    fn adaptive_chunk_bounds() {
        assert_eq!(adaptive_chunk(0, 4), 1);
        assert_eq!(adaptive_chunk(1, 4), 1);
        assert_eq!(adaptive_chunk(100, 4), 1);
        assert_eq!(adaptive_chunk(12_800, 4), 100);
        assert_eq!(adaptive_chunk(usize::MAX, 4), 256);
        // Every thread count, degenerate ones included, keeps the chunk in
        // `[1, 256]`: claims always progress and never grab a whole range.
        for threads in 0..=1024 {
            for len in LENS.into_iter().chain([usize::MAX]) {
                let chunk = adaptive_chunk(len, threads);
                assert!((1..=256).contains(&chunk), "adaptive_chunk({len}, {threads}) = {chunk}");
            }
        }
    }

    #[test]
    fn claims_partition_the_range() {
        for len in LENS.into_iter().chain([5, 97, 1000, 4096]) {
            for threads in [1usize, 2, 4, 7] {
                let sched = Scheduler::new(threads, None);
                let mut covered = Vec::new();
                while let Some(range) = sched.claim(len) {
                    assert!(!range.is_empty(), "len={len} threads={threads}: {range:?}");
                    covered.extend(range);
                }
                // In order and exact: disjoint, in-bounds, covering.
                let expected: Vec<usize> = (0..len).collect();
                assert_eq!(covered, expected, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_cover() {
        for (len, threads) in [(1003usize, 4usize), (257, 2), (1009, 4), (8192, 2), (8192, 4)] {
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
            assert_eq!(all, expected, "len={len} threads={threads}");
        }
    }

    /// `merge_sorted` against a sort of the concatenation, and the merged
    /// buffer grows to exactly the sum of the two.
    fn assert_merges(mine: &[Vec<VertexId>], theirs: &[Vec<VertexId>]) {
        let mut want = [mine, theirs].concat();
        want.sort_unstable();
        let mut acc = mine.to_vec();
        acc.shrink_to_fit();
        merge_sorted(&mut acc, theirs.to_vec());
        assert_eq!(acc, want, "{mine:?} + {theirs:?}");
        if !mine.is_empty() {
            assert_eq!(acc.capacity(), want.len(), "{mine:?} + {theirs:?}");
        }
    }

    #[test]
    fn merge_handles_empty_runs() {
        let rows = vec![vec![0, 1], vec![0, 2], vec![3, 0]];
        assert_merges(&[], &[]);
        assert_merges(&rows, &[]);
        assert_merges(&[], &rows);
    }

    #[test]
    fn merge_takes_whole_runs_from_one_side() {
        let low = vec![vec![0, 1], vec![0, 2], vec![1, 0]];
        let high = vec![vec![2, 0], vec![5, 1]];
        assert_merges(&low, &high);
        assert_merges(&high, &low);
        assert_merges(&[vec![9]], &[vec![1], vec![2], vec![3]]);
        assert_merges(&[vec![1], vec![2], vec![3]], &[vec![0]]);
    }

    #[test]
    fn merge_interleaves_runs() {
        let odd: Vec<Vec<VertexId>> = (0..40).map(|i| vec![i / 7, 2 * i + 1]).collect();
        let even: Vec<Vec<VertexId>> = (0..25).map(|i| vec![i / 4, 2 * i]).collect();
        assert_merges(&odd, &even);
        assert_merges(&even, &odd);
        // Alternating single rows, and one side cut into the middle of
        // the other.
        assert_merges(&[vec![0], vec![2], vec![4]], &[vec![1], vec![3], vec![5]]);
        assert_merges(&[vec![0], vec![5]], &[vec![1], vec![2], vec![3]]);
        // Several workers' runs folded one after another.
        let mut acc = Vec::new();
        let runs: Vec<Vec<Vec<VertexId>>> =
            (0..4).map(|w| (0..10).map(|i| vec![(i * 4 + w) % 13, i]).collect()).collect();
        for run in &runs {
            let mut run = run.clone();
            run.sort_unstable();
            merge_sorted(&mut acc, run);
        }
        let mut want = runs.concat();
        want.sort_unstable();
        assert_eq!(acc, want);
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

    /// Fault injection into the one worker driver: the culprit worker's
    /// search panics at its first embedding, the calling thread (worker 0)
    /// or a spawned one, at one and at four threads. The others search
    /// nothing, so the culprit claims every root chunk and is sure to
    /// reach an embedding. The run must join every worker and come back
    /// as an [`ExecError`] naming the culprit and its message.
    #[test]
    fn a_worker_panic_is_a_clean_error_naming_the_worker() {
        use crate::plan::{Planner, PlannerConfig};
        use csce_graph::{GraphBuilder, Variant, NO_LABEL};
        let mut gb = GraphBuilder::new();
        gb.add_unlabeled_vertices(8);
        for i in 0..8u32 {
            gb.add_undirected_edge(i, (i + 1) % 8, NO_LABEL).unwrap();
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_unlabeled_vertices(3);
        pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        pb.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        let p = pb.build();
        let gc = csce_ccsr::build_ccsr(&g).unwrap();
        let star = csce_ccsr::read_csr(&gc, &p, Variant::EdgeInduced);
        let plan = Planner::new(PlannerConfig::csce())
            .plan(&Catalog::new(&p, &star), Variant::EdgeInduced);
        for (threads, culprit) in [(1usize, 0usize), (4, 0), (4, 3)] {
            let result = run_parallel(
                &star,
                &p,
                &plan,
                RunConfig::default(),
                threads,
                None,
                &Recorder::disabled(),
                |id, exec| {
                    if id == culprit {
                        exec.enumerate(&mut |_| panic!("injected fault in worker {id}"));
                    }
                    exec.stats().embeddings
                },
            );
            let want = ExecError::WorkerPanicked {
                worker: culprit,
                message: format!("injected fault in worker {culprit}"),
            };
            assert_eq!(result.map(|runs| runs.len()), Err(want), "{threads} threads");
        }
    }

    #[test]
    fn exec_error_displays_worker_and_message() {
        let err = ExecError::WorkerPanicked { worker: 3, message: "boom".to_string() };
        let text = err.to_string();
        assert!(text.contains('3') && text.contains("boom"), "{text}");
    }
}
