//! # csce-core
//!
//! The CSCE subgraph matching engine — the primary contribution of
//! *"Large Subgraph Matching: A Comprehensive and Efficient Approach for
//! Heterogeneous Graphs"* (ICDE 2024) — on top of the `csce-ccsr` index:
//!
//! * plan generation (§VI): the Greatest-Constraint-First matching order
//!   with CCSR cluster tie-breaking, the candidate-dependency DAG of §V,
//!   and NEC candidate sharing (descendant sizes and the
//!   Largest-Descendant-Size-First reorder are kept as an ablation);
//! * execution (§III): a pipelined worst-case-optimal join that exploits
//!   Sequential Candidate Equivalence through candidate-set caching and
//!   factorized counting;
//! * all three variants: edge-induced, vertex-induced (with cluster-based
//!   negation) and homomorphic.
//!
//! ## Quickstart
//!
//! ```
//! use csce_core::Engine;
//! use csce_graph::{GraphBuilder, Variant, NO_LABEL};
//!
//! // A triangle data graph and a wedge (path of 3) pattern.
//! let mut g = GraphBuilder::new();
//! g.add_unlabeled_vertices(3);
//! g.add_undirected_edge(0, 1, NO_LABEL).unwrap();
//! g.add_undirected_edge(1, 2, NO_LABEL).unwrap();
//! g.add_undirected_edge(2, 0, NO_LABEL).unwrap();
//! let g = g.build();
//!
//! let mut p = GraphBuilder::new();
//! p.add_unlabeled_vertices(3);
//! p.add_undirected_edge(0, 1, NO_LABEL).unwrap();
//! p.add_undirected_edge(1, 2, NO_LABEL).unwrap();
//! let p = p.build();
//!
//! let engine = Engine::build(&g); // offline: cluster G into CCSR form
//! assert_eq!(engine.count(&p, Variant::EdgeInduced), 6);
//! assert_eq!(engine.count(&p, Variant::VertexInduced), 0);
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod catalog;
pub mod exec;
pub mod plan;

pub use catalog::Catalog;
pub use exec::{
    collect_parallel, CallbackSink, CollectRun, CollectSink, CountSink, ExecError, ExecStats,
    Executor, MatchSink, ParallelRun, RunConfig, Scheduler,
};
pub use plan::{Plan, Planner, PlannerConfig, SceAnalysis};

pub use csce_ccsr::CcsrError;

use csce_ccsr::{build_ccsr, read_csr, Ccsr, GcStar, ReadStats};
use csce_obs::Recorder;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use csce_graph::{Graph, Variant, VertexId};
use std::time::{Duration, Instant};

/// Timing and outcome of one full query (read → plan → execute), the
/// decomposition Fig. 6 / Fig. 11 report.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Number of embeddings found.
    pub count: u64,
    /// Execution counters (per-worker merge for parallel runs).
    pub stats: ExecStats,
    /// Unmerged per-worker counters, indexed by worker id — the
    /// load-balance view (`len() == threads`).
    pub workers: Vec<ExecStats>,
    /// Time spent in `ReadCSR` (cluster selection).
    pub read_time: Duration,
    /// Time spent generating the plan (GCF + DAG + NEC + tree).
    pub plan_time: Duration,
    /// Time spent finding embeddings.
    pub exec_time: Duration,
}

impl QueryOutput {
    /// Total online time (read + plan + execute).
    pub fn total_time(&self) -> Duration {
        self.read_time + self.plan_time + self.exec_time
    }

    /// Embeddings per second of total time — the paper's throughput metric
    /// (§VII-B).
    pub fn throughput(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.count as f64 / secs
        }
    }
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The pattern has no vertices.
    EmptyPattern,
    /// The pattern has more than one connected component.
    DisconnectedPattern,
    /// Distinct-subgraph counting was asked for under a non-injective
    /// variant, where automorphism restrictions are meaningless.
    NotInjective(Variant),
    /// Execution failed (a worker panicked).
    Exec(ExecError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyPattern => f.write_str("pattern is empty (no vertices)"),
            QueryError::DisconnectedPattern => f.write_str("pattern must be connected"),
            QueryError::NotInjective(variant) => {
                write!(f, "distinct-subgraph counting needs an injective variant, not {variant}")
            }
            QueryError::Exec(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ExecError> for QueryError {
    fn from(err: ExecError) -> QueryError {
        QueryError::Exec(err)
    }
}

/// The one panic site of the infallible entry points (see [`Engine`]).
fn or_panic<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(err) => panic!("{err}"),
    }
}

/// The top-level engine: owns the clustered data graph (`G_C`) and
/// answers matching tasks against it.
///
/// Every query goes through [`Engine::prepare`]; the other query methods
/// are shorthands over it. Those returning a bare value — and
/// [`Engine::build`] — panic on input their fallible forms
/// ([`Engine::prepare`], [`Engine::try_build`]) report as errors: an
/// empty or disconnected pattern, a data graph over the 32-bit CCSR
/// budget.
pub struct Engine {
    ccsr: Ccsr,
}

impl Engine {
    /// Offline stage: cluster a data graph into CCSR form. The graph
    /// itself is not retained (`G_C` is equivalent to `G`).
    pub fn build(g: &Graph) -> Engine {
        or_panic(Engine::try_build(g))
    }

    /// Fallible [`Engine::build`]: surfaces [`CcsrError`] when the data
    /// graph overflows the CCSR layout (> `u32::MAX` arcs in one cluster).
    pub fn try_build(g: &Graph) -> Result<Engine, CcsrError> {
        Ok(Engine { ccsr: build_ccsr(g)? })
    }

    /// Wrap an already-built (e.g. deserialized) `G_C`.
    pub fn from_ccsr(ccsr: Ccsr) -> Engine {
        Engine { ccsr }
    }

    /// The underlying clustered storage.
    pub fn ccsr(&self) -> &Ccsr {
        &self.ccsr
    }

    /// The online stages before execution: `ReadCSR` (resolving `p`
    /// against `G_C` into `G_C^*`), then plan generation (GCF, DAG, NEC,
    /// tree; LDSF only under [`PlannerConfig::ldsf`]). Both are timed into
    /// the returned [`Query`] and recorded as the `read` and `plan` spans
    /// of `recorder`. The query can then be executed any number of times.
    ///
    /// Empty and disconnected patterns are rejected here, before the
    /// planner sees them.
    pub fn prepare<'a>(
        &'a self,
        p: &'a Graph,
        variant: Variant,
        planner: PlannerConfig,
        recorder: &'a Recorder,
    ) -> Result<Query<'a>, QueryError> {
        if p.n() == 0 {
            return Err(QueryError::EmptyPattern);
        }
        if !p.is_connected() {
            return Err(QueryError::DisconnectedPattern);
        }
        let t0 = Instant::now();
        let star = recorder.time("read", || read_csr(&self.ccsr, p, variant));
        let read_time = t0.elapsed();
        let (plan, plan_time) = {
            let catalog = Catalog::new(p, &star);
            let t1 = Instant::now();
            let _span = recorder.span("plan");
            let plan = Planner::new(planner).plan_recorded(&catalog, variant, recorder);
            (plan, t1.elapsed())
        };
        Ok(Query { pattern: p, star, plan, recorder, read_time, plan_time })
    }

    /// Count all embeddings of `p` under `variant` with default settings.
    pub fn count(&self, p: &Graph, variant: Variant) -> u64 {
        self.run(p, variant, PlannerConfig::csce(), RunConfig::default()).count
    }

    /// Full single-threaded query with explicit planner and runtime
    /// configuration, returning the per-stage timing decomposition.
    pub fn run(
        &self,
        p: &Graph,
        variant: Variant,
        planner: PlannerConfig,
        run: RunConfig,
    ) -> QueryOutput {
        let recorder = Recorder::disabled();
        let query = or_panic(self.prepare(p, variant, planner, &recorder));
        // A worker panic comes back as `ExecError`; re-raise it here.
        or_panic(query.count(run, 1, None))
    }

    /// Count *distinct subgraphs* (embeddings up to pattern automorphism)
    /// under an injective variant: symmetry-breaking ordering restrictions
    /// keep exactly one mapping per orbit, so
    /// `count_subgraphs * |Aut(P)| == count`.
    ///
    /// CSCE's own optimization never uses symmetry breaking (Finding 2 —
    /// restriction generation is factorial on symmetric patterns), so this
    /// is an opt-in application-level API; the EMAIL-EU case study's
    /// clique counting uses it.
    pub fn count_subgraphs(&self, p: &Graph, variant: Variant) -> Result<u64, QueryError> {
        if !variant.injective() {
            return Err(QueryError::NotInjective(variant));
        }
        let recorder = Recorder::disabled();
        let query = self.prepare(p, variant, PlannerConfig::csce(), &recorder)?;
        let (restrictions, _aut) = csce_graph::automorphism::stabilizer_restrictions(p);
        Ok(query.sequential(&restrictions, |exec| exec.count()))
    }

    /// Enumerate *all* embeddings across `threads` workers, sorted. The
    /// parallel counterpart of [`Engine::embeddings`]: workers claim
    /// disjoint root chunks, so the merged set is duplicate-free by
    /// construction and identical to the sequential enumeration. An empty
    /// or disconnected pattern, or a worker panic, is a [`QueryError`].
    pub fn collect_parallel(
        &self,
        p: &Graph,
        variant: Variant,
        threads: usize,
        run: RunConfig,
    ) -> Result<CollectRun, QueryError> {
        let recorder = Recorder::disabled();
        let query = self.prepare(p, variant, PlannerConfig::csce(), &recorder)?;
        let (out, embeddings) = query.collect(run, threads, None, None)?;
        Ok(CollectRun { embeddings, stats: out.stats, workers: out.workers })
    }

    /// Enumerate embeddings; `emit` receives the mapping array and returns
    /// whether to continue.
    pub fn enumerate(
        &self,
        p: &Graph,
        variant: Variant,
        emit: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> ExecStats {
        let recorder = Recorder::disabled();
        let query = or_panic(self.prepare(p, variant, PlannerConfig::csce(), &recorder));
        query.sequential(&[], |exec| {
            exec.enumerate(emit);
            exec.stats().clone()
        })
    }

    /// Collect all embeddings as mapping arrays, sorted (test helper; the
    /// result can be huge — prefer [`Engine::enumerate`] in applications).
    pub fn embeddings(&self, p: &Graph, variant: Variant) -> Vec<Vec<VertexId>> {
        let recorder = Recorder::disabled();
        let query = or_panic(self.prepare(p, variant, PlannerConfig::csce(), &recorder));
        or_panic(query.collect(RunConfig::default(), 1, None, None)).1
    }
}

/// A prepared query: the working set `G_C^*` and the plan for one
/// pattern, ready to execute ([`Engine::prepare`]). Every execution
/// reports through one [`QueryOutput`], whose read and plan times are
/// those of the preparation.
pub struct Query<'a> {
    pattern: &'a Graph,
    star: GcStar<'a>,
    plan: Plan,
    recorder: &'a Recorder,
    read_time: Duration,
    plan_time: Duration,
}

impl Query<'_> {
    /// The generated plan (what `csce match --explain` prints).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// CCSR-side work counters of the `ReadCSR` stage, computed on call.
    pub fn read_stats(&self) -> ReadStats {
        self.star.read_stats()
    }

    /// Heap bytes of the clusters the working set `G_C^*` references,
    /// computed on call.
    pub fn read_bytes(&self) -> usize {
        self.star.heap_bytes()
    }

    /// The catalog the plan was generated over — what the on-demand plan
    /// analyses ([`SceAnalysis::of`], `explain`) read the data side from.
    pub fn catalog(&self) -> Catalog<'_> {
        Catalog::new(self.pattern, &self.star)
    }

    /// Count all embeddings across `threads` workers (at least one; the
    /// calling thread is worker 0), which claim root candidates in chunks
    /// from one shared scheduler. Exact, with per-worker stats merged so
    /// `timed_out` reflects the shared deadline. `progress` receives live
    /// recursion-node counts; spans land under `execute/worker`. The only
    /// failure left after preparation is a worker panic ([`ExecError`]).
    pub fn count(
        &self,
        run: RunConfig,
        threads: usize,
        progress: Option<Arc<AtomicU64>>,
    ) -> Result<QueryOutput, ExecError> {
        let t0 = Instant::now();
        let result = {
            let _span = self.recorder.span("execute");
            exec::count_parallel_observed(
                &self.star,
                self.pattern,
                &self.plan,
                run,
                threads,
                progress,
                self.recorder,
            )?
        };
        Ok(self.output(result.count, result.stats, result.workers, t0.elapsed()))
    }

    /// Enumerate embeddings across `threads` workers, returning them
    /// sorted (so the result is independent of worker interleaving) next
    /// to the same report as [`Query::count`]. With `limit`, the workers
    /// share one first-`k` quota: collection stops cooperatively once
    /// exactly `min(limit, total)` embeddings are admitted — *which* ones
    /// depends on scheduling, and `exec.embeddings` counts only those; a
    /// zero `limit` searches nothing. Limited or not, each worker sorts
    /// its own rows and the driver merges them, as in
    /// [`collect_parallel`].
    pub fn collect(
        &self,
        run: RunConfig,
        threads: usize,
        progress: Option<Arc<AtomicU64>>,
        limit: Option<usize>,
    ) -> Result<(QueryOutput, Vec<Vec<VertexId>>), ExecError> {
        let t0 = Instant::now();
        let (star, p, plan, rec) = (&self.star, self.pattern, &self.plan, self.recorder);
        let _span = rec.span("execute");
        let r = exec::collect_with_limit(star, p, plan, run, threads, progress, rec, limit)?;
        let count = r.embeddings.len() as u64;
        Ok((self.output(count, r.stats, r.workers, t0.elapsed()), r.embeddings))
    }

    /// Run `work` on one sequential executor under ordering
    /// `restrictions` — the path for callback enumeration and symmetry
    /// breaking, neither of which the parallel entry points take.
    fn sequential<R>(
        &self,
        restrictions: &[(VertexId, VertexId)],
        work: impl FnOnce(&mut Executor<'_>) -> R,
    ) -> R {
        let catalog = self.catalog();
        let mut exec = Executor::new(&catalog, &self.plan, RunConfig::default())
            .with_restrictions(restrictions);
        work(&mut exec)
    }

    fn output(
        &self,
        count: u64,
        stats: ExecStats,
        workers: Vec<ExecStats>,
        exec_time: Duration,
    ) -> QueryOutput {
        QueryOutput {
            count,
            stats,
            workers,
            read_time: self.read_time,
            plan_time: self.plan_time,
            exec_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{oracle_count, oracle_embeddings, GraphBuilder, NO_LABEL};

    fn undirected(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        for &(a, c) in edges {
            b.add_undirected_edge(a, c, NO_LABEL).unwrap();
        }
        b.build()
    }

    fn paw() -> Graph {
        undirected(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    fn path3() -> Graph {
        undirected(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn engine_embeddings_match_oracle_exactly() {
        let (g, p) = (paw(), path3());
        let engine = Engine::build(&g);
        for variant in Variant::ALL {
            assert_eq!(engine.embeddings(&p, variant), oracle_embeddings(&g, &p, variant));
        }
    }

    #[test]
    fn run_reports_stage_times() {
        let engine = Engine::build(&paw());
        let p = undirected(2, &[(0, 1)]);
        let out = engine.run(&p, Variant::EdgeInduced, PlannerConfig::csce(), RunConfig::default());
        assert_eq!(out.count, 8); // 4 undirected edges, both directions
        assert!(out.total_time() >= out.exec_time);
        assert!(out.throughput() > 0.0);
        let rec = Recorder::disabled();
        let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
        assert!(query.read_bytes() > 0);
    }

    #[test]
    fn subgraph_counts_divide_mapping_counts() {
        // Triangle pattern: 6 mappings, |Aut| = 6 -> 1 subgraph.
        let p = undirected(3, &[(0, 1), (1, 2), (2, 0)]);
        let engine = Engine::build(&paw());
        for variant in [Variant::EdgeInduced, Variant::VertexInduced] {
            let mappings = engine.count(&p, variant);
            let subgraphs = engine.count_subgraphs(&p, variant).unwrap();
            let aut = csce_graph::automorphism::automorphism_count(&p);
            assert_eq!(subgraphs * aut, mappings, "{variant}");
        }
        assert_eq!(engine.count_subgraphs(&p, Variant::EdgeInduced), Ok(1));
        let hom = engine.count_subgraphs(&p, Variant::Homomorphic);
        assert_eq!(hom, Err(QueryError::NotInjective(Variant::Homomorphic)));
    }

    #[test]
    fn prepare_returns_each_error_variant() {
        let engine = Engine::build(&paw());
        let rec = Recorder::disabled();
        let prepare =
            |p: &Graph| engine.prepare(p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).err();
        assert_eq!(prepare(&undirected(0, &[])), Some(QueryError::EmptyPattern));
        assert_eq!(prepare(&undirected(2, &[])), Some(QueryError::DisconnectedPattern));
        assert!(QueryError::EmptyPattern.to_string().contains("empty"));
        assert!(QueryError::DisconnectedPattern.to_string().contains("connected"));
        let exec = ExecError::WorkerPanicked { worker: 1, message: "boom".to_string() };
        assert_eq!(QueryError::from(exec.clone()).to_string(), exec.to_string());
    }

    #[test]
    fn collect_parallel_returns_pattern_errors() {
        let engine = Engine::build(&paw());
        let collect =
            |p: &Graph| engine.collect_parallel(p, Variant::EdgeInduced, 2, RunConfig::default());
        assert_eq!(collect(&undirected(0, &[])).err(), Some(QueryError::EmptyPattern));
        assert_eq!(collect(&undirected(2, &[])).err(), Some(QueryError::DisconnectedPattern));
        assert_eq!(collect(&path3()).map(|run| run.embeddings.len()).ok(), Some(10));
    }

    #[test]
    fn prepare_serves_every_variant() {
        let (g, p) = (paw(), path3());
        let engine = Engine::build(&g);
        let rec = Recorder::new();
        let run = RunConfig::default();
        for variant in Variant::ALL {
            let query = engine.prepare(&p, variant, PlannerConfig::csce(), &rec).unwrap();
            assert_eq!(query.plan().variant, variant);
            assert_eq!(query.count(run, 1, None).unwrap().count, oracle_count(&g, &p, variant));
            let (all, embeddings) = query.collect(run, 2, None, None).unwrap();
            assert_eq!(embeddings, oracle_embeddings(&g, &p, variant), "{variant}");
            assert_eq!(all.count, embeddings.len() as u64);
            let (first, two) = query.collect(run, 2, None, Some(2)).unwrap();
            assert_eq!((first.count, two.len()), (2, 2), "{variant}");
        }
        for phase in ["read", "plan", "execute"] {
            assert!(rec.snapshot().root(phase).is_some(), "{phase} span recorded");
        }
    }

    #[test]
    fn one_query_counted_twice_is_identical() {
        let (engine, p) = (Engine::build(&paw()), path3());
        let rec = Recorder::disabled();
        let query = engine.prepare(&p, Variant::VertexInduced, PlannerConfig::csce(), &rec);
        let query = query.unwrap();
        let run = RunConfig::default();
        let (first, second) =
            (query.count(run, 1, None).unwrap(), query.count(run, 1, None).unwrap());
        assert_eq!((first.count, &first.stats), (second.count, &second.stats));
        assert_eq!(first.stats.vertex_candidates.len(), p.n(), "one slot per pattern vertex");
    }

    #[test]
    fn persisted_ccsr_round_trips_through_engine() {
        let engine = Engine::build(&paw());
        let bytes = csce_ccsr::persist::to_bytes(engine.ccsr()).unwrap();
        let engine2 = Engine::from_ccsr(csce_ccsr::persist::from_bytes(&bytes).unwrap());
        let p = path3();
        assert_eq!(engine.count(&p, Variant::EdgeInduced), engine2.count(&p, Variant::EdgeInduced));
    }
}
