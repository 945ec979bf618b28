//! Set-up, the untraced closed loop (end-to-end metrics) and the traced
//! run (per-layer metrics and the deterministic counter block).
//!
//! The untraced loop times each query around one public call
//! (`Engine::run` or `Engine::collect_parallel`) and keeps each distinct
//! query's fastest repetition: a virtual machine on a shared host has
//! spells of tens of seconds in which every instruction runs up to half
//! slower, and one of many repetitions spread over the whole loop is
//! likely to fall outside them. Latency and throughput are order
//! statistics of these fastest times.
//!
//! The traced run calls the layers one at a time — `read_csr`,
//! `Catalog::new`, `Planner::plan_recorded`, then the executor's parallel
//! entry point — timing each from outside; the planner's stage spans
//! (`gcf`, `dag`, `descendant`, `ldsf`, `nec`, `sce`, `tree`) come from its
//! recorder.

use crate::alloc::BatchedTracking;
use crate::gate;
use crate::report::{geometric_mean, median, percentile, tail, Metric, Outcome};
use crate::workload::{data_graphs, DataGraph, Mode, Query, Scale, Spec, Workload};
use csce_ccsr::{build_ccsr, read_csr, GcStar, ReadStats};
use csce_core::exec::{collect_parallel, count_parallel_observed};
use csce_core::{
    Catalog, CollectSink, Engine, ExecStats, Executor, Plan, Planner, PlannerConfig, RunConfig,
    Scheduler,
};
use csce_obs::Recorder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is timed at least this often; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;

/// A set-up shorter than this is timed again every `SETUP_EVERY` during
/// the measured loop, so its median spans the same spells of a busy or
/// idle machine as the queries do (a millisecond set-up timed back to back
/// reads up to half slower in one spell than in another). Longer set-ups
/// are repeated after the loop.
const CHEAP_SETUP_S: f64 = 0.1;
const SETUP_EVERY: Duration = Duration::from_millis(100);

/// Untimed closed loop before the measured one, so the first measured
/// queries do not pay for a cold processor, cache and allocator.
const WARM_UP: Duration = Duration::from_secs(1);

/// Recursion-node budget of the counter pass. A work budget instead of a
/// time limit keeps the set of completed queries — and so the counter
/// block — identical on every machine.
const NODE_BUDGET: u64 = 1 << 20;

/// The indexed data graphs plus how long building them took.
pub struct Setup {
    pub graphs: Vec<DataGraph>,
    pub engines: Vec<Engine>,
    /// Data-graph generation + `build_ccsr`, per repetition.
    pub setup_s: Vec<f64>,
    /// `build_ccsr` alone, per repetition (all data graphs).
    pub build_ms: Vec<f64>,
}

/// Generate and index the workload's data graphs once, timed.
fn build(w: Workload, scale: Scale) -> Result<(Vec<DataGraph>, Vec<Engine>, f64, f64), String> {
    let t0 = Instant::now();
    let graphs = data_graphs(w, scale);
    let t1 = Instant::now();
    let engines = graphs
        .iter()
        .map(|d| build_ccsr(&d.graph).map(Engine::from_ccsr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("build_ccsr: {e}"))?;
    let done = Instant::now();
    Ok((graphs, engines, (done - t0).as_secs_f64(), (done - t1).as_secs_f64() * 1e3))
}

impl Setup {
    pub fn new(w: Workload, scale: Scale) -> Result<Setup, String> {
        let (graphs, engines, setup_s, build_ms) = build(w, scale)?;
        Ok(Setup { graphs, engines, setup_s: vec![setup_s], build_ms: vec![build_ms] })
    }

    /// Time further set-ups (built and dropped) until there are
    /// `SETUP_MIN_REPEATS`.
    fn remeasure(&mut self, w: Workload, scale: Scale) -> Result<(), String> {
        while self.setup_s.len() < SETUP_MIN_REPEATS {
            let (_, _, setup_s, build_ms) = build(w, scale)?;
            self.setup_s.push(setup_s);
            self.build_ms.push(build_ms);
        }
        Ok(())
    }
}

/// One executed query as the client saw it.
struct Done {
    ms: f64,
    /// The answer, `None` when the query timed out or errored.
    count: Option<u64>,
    embeddings: u64,
}

/// What one closed loop observed.
struct Loop {
    attempted: u64,
    /// Summed wall time of every query sent.
    busy_ms: f64,
    /// Each distinct query's fastest time over its repetitions (`None`
    /// until it ran). The repetitions are spread over the whole loop, so
    /// the fastest one misses the seconds-long spells in which a shared
    /// host runs every instruction slower.
    best_ms: Vec<Option<f64>>,
    /// Heap high-water mark while each query ran, in MB.
    peak_mb: Vec<f64>,
    failed: u64,
    embeddings: u64,
    /// The answer of each distinct query, once it completed.
    counts: Vec<Option<u64>>,
}

impl Loop {
    /// Send queries one after another, cycling through the set, until
    /// `budget` has passed (always at least one query), calling `between`
    /// before each. A query that answers differently on a repetition fails
    /// the run.
    fn run(
        queries: &[Query],
        budget: Duration,
        mut between: impl FnMut() -> Result<(), String>,
        mut one: impl FnMut(usize) -> Result<Done, String>,
    ) -> Result<Loop, String> {
        let mut l = Loop {
            attempted: 0,
            busy_ms: 0.0,
            best_ms: vec![None; queries.len()],
            peak_mb: Vec::new(),
            failed: 0,
            embeddings: 0,
            counts: vec![None; queries.len()],
        };
        let end = Instant::now() + budget;
        let mut i = 0;
        while l.attempted == 0 || Instant::now() < end {
            let qi = i % queries.len();
            between()?;
            BatchedTracking::reset_peak();
            let done = one(qi)?;
            l.peak_mb.push(BatchedTracking::peak_bytes() as f64 / (1024.0 * 1024.0));
            l.attempted += 1;
            l.busy_ms += done.ms;
            l.best_ms[qi] = Some(l.best_ms[qi].map_or(done.ms, |b| b.min(done.ms)));
            l.embeddings += done.embeddings;
            match (done.count, l.counts[qi]) {
                (None, _) => l.failed += 1,
                (Some(c), Some(prev)) if c != prev => {
                    return Err(format!("{}: counted {c}, earlier {prev}", queries[qi].name))
                }
                (Some(c), _) => l.counts[qi] = Some(c),
            }
            i += 1;
        }
        Ok(l)
    }

    /// The fastest time of every query that ran, ascending.
    fn sorted_best_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.best_ms.iter().flatten().copied().collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.sorted_best_ms(), 50.0)
    }

    /// Take in answers observed elsewhere; a query that answered
    /// differently there fails the run.
    fn merge_counts(&mut self, counts: &[Option<u64>], queries: &[Query]) -> Result<(), String> {
        for (qi, &c) in counts.iter().enumerate() {
            match (c, self.counts[qi]) {
                (Some(c), Some(prev)) if c != prev => {
                    return Err(format!("{}: counted {c}, elsewhere {prev}", queries[qi].name))
                }
                (Some(c), _) => self.counts[qi] = Some(c),
                (None, _) => {}
            }
        }
        Ok(())
    }

    /// Fold another part of the loop into this one.
    fn merge(&mut self, other: Loop, queries: &[Query]) -> Result<(), String> {
        self.merge_counts(&other.counts, queries)?;
        self.attempted += other.attempted;
        self.busy_ms += other.busy_ms;
        self.failed += other.failed;
        self.embeddings += other.embeddings;
        self.peak_mb.extend(other.peak_mb);
        for (best, b) in self.best_ms.iter_mut().zip(other.best_ms) {
            *best = match (*best, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        Ok(())
    }

    /// The lines a part process prints for its parent ([`Loop::parse`]);
    /// floats print in full, so they read back exactly. `peak_mb` is
    /// passed on as the part's median.
    fn to_text(&self) -> String {
        let mut out = format!(
            "part {} {} {} {} {}\n",
            self.attempted,
            self.failed,
            self.busy_ms,
            self.embeddings,
            median(&self.peak_mb)
        );
        for (qi, (best, count)) in self.best_ms.iter().zip(&self.counts).enumerate() {
            if let Some(best) = best {
                let count = count.map_or("-".to_string(), |c| c.to_string());
                out.push_str(&format!("query {qi} {best} {count}\n"));
            }
        }
        out
    }

    /// Read a part's [`Loop::to_text`] lines back; other lines are skipped.
    fn parse(text: &str, n: usize) -> Result<Loop, String> {
        let bad = |line: &str| format!("unreadable part line: {line}");
        let mut l = Loop {
            attempted: 0,
            busy_ms: 0.0,
            best_ms: vec![None; n],
            peak_mb: Vec::new(),
            failed: 0,
            embeddings: 0,
            counts: vec![None; n],
        };
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["part", attempted, failed, busy, embeddings, peak] => {
                    l.attempted = attempted.parse().map_err(|_| bad(line))?;
                    l.failed = failed.parse().map_err(|_| bad(line))?;
                    l.busy_ms = busy.parse().map_err(|_| bad(line))?;
                    l.embeddings = embeddings.parse().map_err(|_| bad(line))?;
                    l.peak_mb.push(peak.parse().map_err(|_| bad(line))?);
                }
                ["query", qi, best, count] => {
                    let qi: usize = qi.parse().map_err(|_| bad(line))?;
                    if qi >= n {
                        return Err(bad(line));
                    }
                    l.best_ms[qi] = Some(best.parse().map_err(|_| bad(line))?);
                    l.counts[qi] = match *count {
                        "-" => None,
                        c => Some(c.parse().map_err(|_| bad(line))?),
                    };
                }
                _ => {}
            }
        }
        if l.attempted == 0 {
            return Err("a part reported no queries".to_string());
        }
        Ok(l)
    }
}

fn run_config(spec: &Spec) -> RunConfig {
    RunConfig { time_limit: Some(spec.time_limit), ..RunConfig::default() }
}

/// One untraced query through its single public entry point.
fn untraced_query(
    s: &Setup,
    q: &Query,
    spec: &Spec,
    check_embeddings: bool,
) -> Result<Done, String> {
    let engine = &s.engines[q.data];
    let run = run_config(spec);
    match spec.mode {
        Mode::Count => {
            let t = Instant::now();
            let out = engine.run(&q.pattern, q.variant, PlannerConfig::csce(), run);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let count = (!out.stats.timed_out).then_some(out.count);
            Ok(Done { ms, count, embeddings: 0 })
        }
        Mode::Collect => {
            let t = Instant::now();
            let out = engine.collect_parallel(&q.pattern, q.variant, spec.threads, run);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let out = match out {
                Ok(out) if !out.stats.timed_out => out,
                _ => return Ok(Done { ms, count: None, embeddings: 0 }),
            };
            if check_embeddings {
                let g = &s.graphs[q.data].graph;
                gate::check_embeddings(&q.name, g, &q.pattern, &out.embeddings)?;
            }
            let n = out.embeddings.len() as u64;
            Ok(Done { ms, count: Some(n), embeddings: n })
        }
    }
}

/// Execute a prepared plan through the executor's parallel entry point
/// (inline on the caller when `threads == 1`).
fn execute(
    star: &GcStar<'_>,
    q: &Query,
    plan: &Plan,
    mode: Mode,
    threads: usize,
    run: RunConfig,
    recorder: &Recorder,
) -> Result<(u64, ExecStats, Vec<ExecStats>), String> {
    let err = |e: csce_core::ExecError| format!("{}: {e}", q.name);
    match mode {
        Mode::Count => {
            let r = count_parallel_observed(star, &q.pattern, plan, run, threads, None, recorder)
                .map_err(err)?;
            Ok((r.count, r.stats, r.workers))
        }
        Mode::Collect => {
            let r = collect_parallel(star, &q.pattern, plan, run, threads, None, recorder)
                .map_err(err)?;
            Ok((r.embeddings.len() as u64, r.stats, r.workers))
        }
    }
}

/// Execute `plan` on one thread until the search needed more than
/// `budget` recursion nodes. A watcher reads the executor's
/// published node count and stops the run through its scheduler; the
/// verdict is taken from the final node count, so it does not depend on
/// when the watcher woke. Returns the count (`None` over budget), the
/// counters and the execution time in ms.
fn budgeted(
    star: &GcStar<'_>,
    q: &Query,
    plan: &Plan,
    mode: Mode,
    budget: u64,
) -> (Option<u64>, ExecStats, f64) {
    let catalog = Catalog::new(&q.pattern, star);
    let scheduler = Arc::new(Scheduler::new(1, None));
    let progress = Arc::new(AtomicU64::new(0));
    let mut exec = Executor::new(&catalog, plan, RunConfig::default())
        .with_scheduler(Arc::clone(&scheduler))
        .with_progress(Arc::clone(&progress));
    let finished = AtomicBool::new(false);
    let (count, ms) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !finished.load(Ordering::Acquire) {
                if progress.load(Ordering::Relaxed) > budget {
                    scheduler.request_stop();
                    return;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let t = Instant::now();
        let count = match mode {
            Mode::Count => exec.count(),
            Mode::Collect => {
                let mut sink = CollectSink::default();
                exec.drive(&mut sink);
                sink.embeddings.len() as u64
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        finished.store(true, Ordering::Release);
        (count, ms)
    });
    let stats = exec.stats().clone();
    ((stats.nodes <= budget).then_some(count), stats, ms)
}

/// Per-layer wall time of one traced query.
#[derive(Default, Clone, Copy)]
struct LayerMs {
    read: f64,
    catalog: f64,
    plan: f64,
    exec: f64,
}

impl LayerMs {
    fn total(&self) -> f64 {
        self.read + self.catalog + self.plan + self.exec
    }

    fn add(&mut self, o: &LayerMs) {
        self.read += o.read;
        self.catalog += o.catalog;
        self.plan += o.plan;
        self.exec += o.exec;
    }
}

/// Machine-independent counters of one query from the counter pass.
struct Counters {
    /// `None` when the search needed more than [`NODE_BUDGET`] nodes.
    count: Option<u64>,
    exec: ExecStats,
    exec_ms: f64,
    read_bytes: u64,
    read: ReadStats,
    dag_edges: u64,
    slot_count: u64,
    splits: u64,
    ri_cluster_nodes: Option<u64>,
}

/// The counter pass for one query: read, plan, and a node-budgeted
/// single-thread execution under the CSCE plan and the `ri_cluster` plan.
fn count_once(s: &Setup, q: &Query, mode: Mode) -> Counters {
    let star = read_csr(s.engines[q.data].ccsr(), &q.pattern, q.variant);
    let catalog = Catalog::new(&q.pattern, &star);
    let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, q.variant);
    let ri_plan = Planner::new(PlannerConfig::ri_cluster()).plan(&catalog, q.variant);
    drop(catalog);
    let (count, exec, exec_ms) = budgeted(&star, q, &plan, mode, NODE_BUDGET);
    let (ri_count, ri_exec, _) = budgeted(&star, q, &ri_plan, mode, NODE_BUDGET);
    Counters {
        count,
        exec,
        exec_ms,
        read_bytes: star.heap_bytes() as u64,
        read: star.read_stats(),
        dag_edges: plan.dag.edge_count() as u64,
        slot_count: plan.slot_count as u64,
        splits: plan.root.split_count() as u64,
        ri_cluster_nodes: ri_count.map(|_| ri_exec.nodes),
    }
}

/// Whether the CSCE plan answers `q` within `budget` recursion nodes.
fn within(s: &Setup, q: &Query, mode: Mode, budget: u64) -> bool {
    let star = read_csr(s.engines[q.data].ccsr(), &q.pattern, q.variant);
    let catalog = Catalog::new(&q.pattern, &star);
    let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, q.variant);
    drop(catalog);
    budgeted(&star, q, &plan, mode, budget).0.is_some()
}

/// One traced query: every layer called and timed separately.
fn traced_query(
    s: &Setup,
    q: &Query,
    spec: &Spec,
    recorder: &Recorder,
) -> Result<(LayerMs, Option<u64>, ExecStats, Vec<ExecStats>), String> {
    let engine = &s.engines[q.data];
    let t0 = Instant::now();
    let star = read_csr(engine.ccsr(), &q.pattern, q.variant);
    let t1 = Instant::now();
    let catalog = Catalog::new(&q.pattern, &star);
    let t2 = Instant::now();
    let plan = {
        let _span = recorder.span("plan");
        Planner::new(PlannerConfig::csce()).plan_recorded(&catalog, q.variant, recorder)
    };
    let t3 = Instant::now();
    drop(catalog);
    let (count, stats, workers) =
        execute(&star, q, &plan, spec.mode, spec.threads, run_config(spec), recorder)?;
    let t4 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let layers =
        LayerMs { read: ms(t0, t1), catalog: ms(t1, t2), plan: ms(t2, t3), exec: ms(t3, t4) };
    let count = (!stats.timed_out).then_some(count);
    Ok((layers, count, stats, workers))
}

/// A workload's inputs and settings for one seed.
pub struct Bench {
    workload: Workload,
    seed: u64,
    spec: Spec,
    scale: Scale,
    setup: Setup,
    queries: Vec<Query>,
    /// Index of each admitted query among those sampled for the seed.
    admitted: Vec<usize>,
    /// Queries sampled for the seed, before admission.
    sampled: usize,
}

impl Bench {
    /// Set up, sample the seed's queries and admit them (all, or those
    /// within the workload's node budget).
    pub fn prepare(workload: Workload, seed: u64, scale: Scale) -> Result<Bench, String> {
        Bench::prepare_admitted(workload, seed, scale, None)
    }

    /// Like [`Bench::prepare`], but admit exactly the sampled queries at
    /// `admitted` (as a part process does with its parent's list).
    pub fn prepare_admitted(
        workload: Workload,
        seed: u64,
        scale: Scale,
        admitted: Option<&[usize]>,
    ) -> Result<Bench, String> {
        let spec = workload.spec();
        let setup = Setup::new(workload, scale)?;
        let sampled = crate::workload::queries(workload, &setup.graphs, seed, scale);
        let n = sampled.len();
        let keep: Vec<bool> = match (admitted, spec.admit_nodes) {
            (Some(list), _) => {
                let mut keep = vec![false; n];
                for &i in list {
                    *keep.get_mut(i).ok_or(format!("seed {seed} sampled no query {i}"))? = true;
                }
                keep
            }
            (None, Some(budget)) => {
                sampled.iter().map(|q| within(&setup, q, spec.mode, budget)).collect()
            }
            (None, None) => vec![true; n],
        };
        let admitted: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let queries: Vec<Query> =
            sampled.into_iter().zip(&keep).filter(|(_, &k)| k).map(|(q, _)| q).collect();
        if queries.is_empty() {
            return Err(format!("seed {seed} sampled no admissible patterns"));
        }
        Ok(Bench { workload, seed, spec, scale, setup, queries, admitted, sampled: n })
    }

    /// The untraced closed loop; with `sample_setup`, a set-up is timed
    /// between queries every `SETUP_EVERY`.
    fn untraced_loop(&mut self, budget: Duration, sample_setup: bool) -> Result<Loop, String> {
        let mut checked = vec![false; self.queries.len()];
        let (w, scale) = (self.workload, self.scale);
        let mut setups = Vec::new();
        let mut last = Instant::now();
        let between = || {
            if sample_setup && last.elapsed() >= SETUP_EVERY {
                let (_, _, setup_s, build_ms) = build(w, scale)?;
                setups.push((setup_s, build_ms));
                last = Instant::now();
            }
            Ok(())
        };
        let l = Loop::run(&self.queries, budget, between, |qi| {
            let first = !std::mem::replace(&mut checked[qi], true);
            untraced_query(&self.setup, &self.queries[qi], &self.spec, first)
        })?;
        for (setup_s, build_ms) in setups {
            self.setup.setup_s.push(setup_s);
            self.setup.build_ms.push(build_ms);
        }
        Ok(l)
    }

    /// The correctness gate, after the timed runs: every distinct query
    /// that completed gets a reference, and every answer must match it.
    fn verify(&self, answers: &[&[Option<u64>]]) -> Result<Metric, String> {
        let (mut completed, mut verified) = (0, 0);
        for (qi, q) in self.queries.iter().enumerate() {
            let got: Vec<u64> = answers.iter().filter_map(|a| a[qi]).collect();
            if got.is_empty() {
                continue;
            }
            completed += 1;
            let reference = gate::reference(q, &self.setup.graphs, &self.setup.engines, &self.spec);
            for &count in &got {
                gate::check_count(&q.name, count, &reference)?;
            }
            verified += usize::from(reference.count.is_some());
        }
        Ok(Metric::new("verified_queries", verified as f64, "count")
            .with_note(format!("of {completed} completed distinct queries")))
    }

    /// One part of the untraced run: a warm-up, then `budget` of closed
    /// loop.
    fn measure_part(&mut self, budget: Duration) -> Result<Loop, String> {
        let warm = self.untraced_loop(WARM_UP, false)?;
        let cheap = self.setup.setup_s[0] < CHEAP_SETUP_S;
        let mut l = self.untraced_loop(budget, cheap)?;
        l.merge_counts(&warm.counts, &self.queries)?;
        Ok(l)
    }

    /// Run one part and render it for the parent process: the loop's
    /// lines and one `setup <s> <build ms>` line per timed set-up.
    pub fn part_report(&mut self, budget: Duration) -> Result<String, String> {
        let mut out = self.measure_part(budget)?.to_text();
        for (s, ms) in self.setup.setup_s.iter().zip(&self.setup.build_ms) {
            out.push_str(&format!("setup {s} {ms}\n"));
        }
        Ok(out)
    }

    /// The untraced run in this process: end-to-end metrics over `budget`
    /// of closed loop.
    pub fn end_to_end(&mut self, budget: Duration) -> Result<Outcome, String> {
        let l = self.measure_part(budget)?;
        self.summarize(l)
    }

    /// The untraced run split over `parts` processes of `exe`, run one
    /// after another, each with its own set-up and `budget / parts` of
    /// closed loop. A process keeps its memory placement and often its
    /// processor for its whole life, and on a shared host one of them
    /// may run every query up to half slower than the next; each query's
    /// fastest time is taken over all parts.
    pub fn end_to_end_in_parts(
        &mut self,
        exe: &std::path::Path,
        budget: Duration,
        parts: u32,
    ) -> Result<Outcome, String> {
        let list: Vec<String> = self.admitted.iter().map(|i| i.to_string()).collect();
        let seconds = (budget / parts).as_secs_f64().to_string();
        let mut total: Option<Loop> = None;
        for part in 0..parts {
            let out = std::process::Command::new(exe)
                .args(["--workload", self.workload.name(), "--seed", &self.seed.to_string()])
                .args(["--seconds", &seconds, "--trace", "0", "--part", &list.join(",")])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("part {part}: {e}"))?;
            if !out.status.success() {
                return Err(format!("part {part} exited with {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines().filter_map(|l| l.strip_prefix("setup ")) {
                let (s, ms) = line.split_once(' ').ok_or(format!("bad setup line {line}"))?;
                self.setup.setup_s.push(s.parse().map_err(|_| format!("bad setup {s}"))?);
                self.setup.build_ms.push(ms.parse().map_err(|_| format!("bad build {ms}"))?);
            }
            let l = Loop::parse(&text, self.queries.len())?;
            match total.as_mut() {
                Some(t) => t.merge(l, &self.queries)?,
                None => total = Some(l),
            }
        }
        self.summarize(total.ok_or("no parts were run")?)
    }

    /// End-to-end metrics from the (merged) untraced loop, after the
    /// correctness gate, from each distinct query's fastest time.
    fn summarize(&mut self, l: Loop) -> Result<Outcome, String> {
        self.setup.remeasure(self.workload, self.scale)?;
        let verified = self.verify(&[&l.counts])?;
        let best = l.sorted_best_ms();
        let (p, tail_ms, above) = tail(&best);
        let n = best.len();
        let attempted = l.attempted;
        let busy_s = l.busy_ms / 1e3;
        let best_s = best.iter().sum::<f64>() / 1e3;
        let metrics = vec![
            Metric::new("query_p50_ms", percentile(&best, 50.0), "ms")
                .with_note(format!("over n={n} distinct queries, {attempted} sent")),
            Metric::new("query_tail_ms", tail_ms, "ms")
                .with_note(format!("p{p}, {above} of n={n} distinct queries above")),
            Metric::new("queries_per_s", n as f64 / best_s, "1/s").with_note(format!(
                "at each query's fastest time; {:.2} 1/s over all sent",
                attempted as f64 / busy_s
            )),
            Metric::new("setup_s", median(&self.setup.setup_s), "s")
                .with_note(format!("median of {} set-ups", self.setup.setup_s.len())),
            Metric::new("peak_heap_mb", median(&l.peak_mb), "MB")
                .with_note("median over queries of the heap high-water mark".to_string()),
        ];
        let info = vec![
            Metric::new("embeddings_per_s", l.embeddings as f64 / busy_s, "1/s"),
            Metric::new("failed_frac", l.failed as f64 / attempted as f64, "ratio")
                .with_note(format!("{} of {attempted}", l.failed)),
            verified,
            Metric::new("admitted_queries", self.queries.len() as f64, "count")
                .with_note(format!("of {} sampled", self.sampled)),
        ];
        Ok(Outcome { attempted, failed: l.failed, metrics, info })
    }

    /// The traced run: per-layer metrics, the counter block (returned as
    /// text lines) and the tracing overhead against an untraced loop of
    /// the same length.
    pub fn per_layer(&mut self, budget: Duration) -> Result<(Outcome, String), String> {
        self.setup.remeasure(self.workload, self.scale)?;
        let counters: Vec<Counters> =
            self.queries.iter().map(|q| count_once(&self.setup, q, self.spec.mode)).collect();
        let untraced = self.untraced_loop(budget / 2, false)?;
        let s = &self.setup;
        let spec = &self.spec;

        let recorder = Recorder::new();
        let mut layers = LayerMs::default();
        let mut chunks = Vec::new();
        let mut imbalance = Vec::new();
        let traced = Loop::run(
            &self.queries,
            budget / 2,
            || Ok(()),
            |qi| {
                let (l, count, stats, workers) =
                    traced_query(s, &self.queries[qi], spec, &recorder)?;
                layers.add(&l);
                if count.is_some() {
                    chunks.push(stats.chunks_claimed as f64);
                    let nodes: Vec<f64> = workers.iter().map(|w| w.nodes as f64).collect();
                    let mean = nodes.iter().sum::<f64>() / nodes.len() as f64;
                    if mean > 0.0 {
                        imbalance.push(nodes.iter().copied().fold(0.0, f64::max) / mean);
                    }
                }
                let embeddings = if spec.mode == Mode::Collect { count.unwrap_or(0) } else { 0 };
                Ok(Done { ms: l.total(), count, embeddings })
            },
        )?;
        let budgeted_counts: Vec<Option<u64>> = counters.iter().map(|c| c.count).collect();
        self.verify(&[&untraced.counts, &traced.counts, &budgeted_counts])?;

        let n = traced.attempted as f64;
        let tree = recorder.snapshot();
        let stage_ms = |stage: &str| {
            tree.at(&format!("plan/{stage}")).map_or(0.0, |node| node.duration().as_secs_f64())
                * 1e3
                / n
        };
        let done: Vec<&Counters> = counters.iter().filter(|c| c.count.is_some()).collect();
        let sum = |f: &dyn Fn(&Counters) -> u64| done.iter().map(|c| f(c)).sum::<u64>() as f64;
        let nodes = sum(&|c| c.exec.nodes);
        let scanned = sum(&|c| c.exec.candidates_scanned);
        let hits = sum(&|c| c.exec.sce_cache_hits);
        let computations = sum(&|c| c.exec.candidate_computations);
        let collected =
            |c: &Counters| if spec.mode == Mode::Collect { c.count.unwrap_or(0) } else { 0 };
        let sink_embeddings = sum(&collected);
        let exec_s = done.iter().map(|c| c.exec_ms).sum::<f64>() / 1e3;
        let ratios: Vec<f64> = done
            .iter()
            .filter_map(|c| match c.ri_cluster_nodes {
                Some(ri) if ri > 0 && c.exec.nodes > 0 => Some(c.exec.nodes as f64 / ri as f64),
                _ => None,
            })
            .collect();
        let nodes_vs_ri = geometric_mean(&ratios);
        let total = layers.total();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (untraced_p50, traced_p50) = (untraced.p50_ms(), traced.p50_ms());
        let clusters: usize = s.engines.iter().map(|e| e.ccsr().cluster_count()).sum();
        let budget_note =
            format!("{} of {} queries within the node budget", done.len(), counters.len());

        let metrics = vec![
            Metric::new("ccsr.build_ms", median(&s.build_ms), "ms"),
            Metric::new("ccsr.clusters", clusters as f64, "count"),
            Metric::new("ccsr.read_ms", layers.read / n, "ms"),
            Metric::new("ccsr.read_share", ratio(layers.read, total), "ratio"),
            Metric::new("ccsr.read_bytes", sum(&|c| c.read_bytes), "bytes"),
            Metric::new("ccsr.clusters_read", sum(&|c| c.read.clusters_read), "count"),
            Metric::new("ccsr.rows_decompressed", sum(&|c| c.read.rows_decompressed), "count"),
            Metric::new("ccsr.missing_clusters", sum(&|c| c.read.missing_clusters), "count"),
            Metric::new("catalog.ms", layers.catalog / n, "ms"),
            Metric::new("plan.ms", layers.plan / n, "ms"),
            Metric::new("plan.share", ratio(layers.plan, total), "ratio"),
            Metric::new("plan.gcf_ms", stage_ms("gcf"), "ms"),
            Metric::new("plan.dag_ms", stage_ms("dag"), "ms"),
            Metric::new("plan.descendant_ms", stage_ms("descendant"), "ms"),
            Metric::new("plan.ldsf_ms", stage_ms("ldsf"), "ms"),
            Metric::new("plan.nec_ms", stage_ms("nec"), "ms"),
            Metric::new("plan.sce_ms", stage_ms("sce"), "ms"),
            Metric::new("plan.tree_ms", stage_ms("tree"), "ms"),
            Metric::new("plan.dag_edges", sum(&|c| c.dag_edges), "count"),
            Metric::new("plan.slot_count", sum(&|c| c.slot_count), "count"),
            Metric::new("plan.splits", sum(&|c| c.splits), "count"),
            Metric::new("plan.nodes_vs_ri_cluster", nodes_vs_ri, "ratio")
                .with_note(format!("geometric mean over {} queries", ratios.len())),
            Metric::new("exec.ms", layers.exec / n, "ms"),
            Metric::new("exec.share", ratio(layers.exec, total), "ratio"),
            Metric::new("exec.nodes", nodes, "count").with_note(budget_note),
            Metric::new("exec.candidates_scanned", scanned, "count"),
            Metric::new("exec.candidate_computations", computations, "count"),
            Metric::new("exec.sce_cache_hits", hits, "count"),
            Metric::new("exec.sce_hit_rate", ratio(hits, hits + computations), "ratio"),
            Metric::new("exec.splits_taken", sum(&|c| c.exec.splits_taken), "count"),
            Metric::new("exec.negation_clusters", sum(&|c| c.exec.negation_clusters), "count"),
            Metric::new("exec.nodes_per_s", ratio(nodes, exec_s), "1/s"),
            Metric::new("sched.chunks_claimed", mean(&chunks), "count")
                .with_note(format!("mean per query at {} threads", spec.threads)),
            Metric::new("sched.worker_imbalance", mean(&imbalance), "ratio"),
            Metric::new("sink.embeddings", sink_embeddings, "count"),
            Metric::new("sink.yield", ratio(sink_embeddings, scanned), "ratio"),
            Metric::new("failed_frac", ratio(traced.failed as f64, n), "ratio"),
            Metric::new("embeddings_per_s", ratio(traced.embeddings as f64, total / 1e3), "1/s"),
            Metric::new("trace.query_p50_ms", traced_p50, "ms"),
            Metric::new("trace.overhead_pct", (ratio(traced_p50, untraced_p50) - 1.0) * 1e2, "%")
                .with_note(format!("untraced query_p50_ms = {untraced_p50} ms")),
        ];
        let block = self.counter_block(&counters, nodes_vs_ri);
        let outcome =
            Outcome { attempted: n as u64, failed: traced.failed, metrics, info: Vec::new() };
        Ok((outcome, block))
    }

    /// Machine-independent counters of the counter pass, one line per
    /// query: diff two commits' blocks for the same seed.
    fn counter_block(&self, counters: &[Counters], nodes_vs_ri: f64) -> String {
        let head = format!("counter {} seed={}", self.workload.name(), self.seed);
        let mut out = String::new();
        for (q, c) in self.queries.iter().zip(counters) {
            let r = &c.read;
            out.push_str(&format!(
                "{head} {} clusters_read={} rows_decompressed={} missing_clusters={} \
                 dag_edges={}",
                q.name, r.clusters_read, r.rows_decompressed, r.missing_clusters, c.dag_edges
            ));
            match c.count {
                Some(count) => {
                    let e = &c.exec;
                    out.push_str(&format!(
                        " count={count} nodes={} candidates_scanned={} \
                         candidate_computations={} sce_cache_hits={}",
                        e.nodes, e.candidates_scanned, e.candidate_computations, e.sce_cache_hits
                    ));
                }
                None => out.push_str(" nodes=over_budget"),
            }
            match c.ri_cluster_nodes {
                Some(n) => out.push_str(&format!(" ri_cluster_nodes={n}\n")),
                None => out.push_str(" ri_cluster_nodes=over_budget\n"),
            }
        }
        out.push_str(&format!("{head} plan.nodes_vs_ri_cluster={nodes_vs_ri:.6}\n"));
        out
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::Loop;

    #[test]
    fn part_lines_read_back_exactly() {
        let l = Loop {
            attempted: 7,
            busy_ms: 0.1 + 0.2,
            best_ms: vec![Some(1.0 / 3.0), None, Some(2.5)],
            peak_mb: vec![3.25, 1.5, 2.0],
            failed: 1,
            embeddings: 42,
            counts: vec![Some(9), None, None],
        };
        let back = Loop::parse(&format!("noise\n{}", l.to_text()), 3).expect("readable");
        assert_eq!((back.attempted, back.failed, back.embeddings), (7, 1, 42));
        assert_eq!(back.busy_ms, l.busy_ms);
        assert_eq!(back.best_ms, l.best_ms);
        assert_eq!(back.counts, l.counts);
        assert_eq!(back.peak_mb, vec![2.0]);
        assert!(Loop::parse("query 5 1.0 -\npart 1 0 1.0 0 1.0\n", 3).is_err());
        assert!(Loop::parse("", 3).is_err());
    }
}
