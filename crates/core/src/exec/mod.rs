//! Execution: the pipelined worst-case-optimal join with SCE reuse.
//!
//! The executor grows partial embeddings one pattern vertex at a time,
//! along `Φ*` when it enumerates and along the plan's factorized program
//! when it counts, computing each vertex's candidate set as the
//! intersection of the CCSR neighbor rows of its already-matched pattern
//! neighbors (a pipelined WCOJ, §III), with vertex-induced negation
//! subtracting the data neighbors of matched non-neighbors.
//!
//! Sequential Candidate Equivalence is exploited twice:
//!
//! * **candidate caching** — a vertex's candidate set is a pure function
//!   of its `H`-parents' mappings; the signature is remembered and the set
//!   reused while it holds (injectivity is re-filtered per candidate, as
//!   Definition 1's `C \ {v_x}` prescribes). NEC-equivalent vertices with
//!   identical parents share one cache slot.
//! * **factorized counting** — in counting mode the plan's
//!   [`ExecTree`](crate::plan::ExecTree) program, one flat preorder
//!   array of steps, multiplies the counts of
//!   `H`-independent suffix components instead of enumerating their
//!   Cartesian product.
//!
//! The module is layered:
//!
//! * [`engine`] — the recursion itself ([`Executor`]): one candidate loop
//!   serving factorized counting and sink-driven search alike, except at
//!   a factorized leaf, which counts its admissible candidates in one
//!   pass.
//! * [`sink`] — [`MatchSink`] and its implementations: what happens to
//!   each complete embedding (count, collect, callback), plus the
//!   crate-private keyed sink behind every collected result. It stores
//!   each row behind a packed 64-bit prefix of its leading values, so
//!   rows sort by one integer comparison, and takes an optional first-`k`
//!   quota shared by a run's workers.
//! * [`scheduler`] — the run: dynamic chunked claiming of root
//!   candidates, cooperative cancellation, the one deadline, panic
//!   containment, and the entry points ([`count_parallel_observed`],
//!   [`collect_parallel`]). Both share one worker driver in which the
//!   calling thread is worker 0, so a one-thread run claims chunks like
//!   any other. One function body builds every collected result, with or
//!   without a limit: it sorts each worker's rows on that worker and
//!   merges the sorted runs in place.
//! * [`stats`] — the counters every run reports ([`ExecStats`]), always
//!   on: candidates and SCE hits are counted per pattern vertex, so both
//!   walks attribute their work to the same vertices.

mod engine;
mod scheduler;
mod sink;
mod stats;

pub use engine::Executor;
pub(crate) use scheduler::collect_with_limit;
pub use scheduler::{
    collect_parallel, count_parallel_observed, CollectRun, ExecError, ParallelRun, Scheduler,
};
pub use sink::{CallbackSink, CollectSink, CountSink, MatchSink};
pub use stats::ExecStats;

use std::time::Duration;

/// Runtime options.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Use the SCE candidate cache (`false` recomputes every time — the
    /// ablation knob).
    pub use_sce_cache: bool,
    /// Use the factorized execution tree in counting mode.
    pub factorize: bool,
    /// Abort after this much wall time (counts and stats are then partial
    /// and `stats.timed_out` is set). In a parallel run the deadline is
    /// shared: one worker hitting it stops all of them.
    pub time_limit: Option<Duration>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { use_sce_cache: true, factorize: true, time_limit: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::{Planner, PlannerConfig};
    use csce_ccsr::{build_ccsr, read_csr, Ccsr};
    use csce_graph::{oracle_count, Graph, GraphBuilder, Variant, VertexId, NO_LABEL};
    use std::time::Duration;

    fn run(g: &Graph, p: &Graph, variant: Variant, config: RunConfig) -> (u64, ExecStats) {
        let gc: Ccsr = build_ccsr(g).unwrap();
        let star = read_csr(&gc, p, variant);
        let catalog = Catalog::new(p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
        let mut exec = Executor::new(&catalog, &plan, config);
        let count = exec.count();
        (count, exec.stats().clone())
    }

    fn paw() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_undirected_edge(a, c, NO_LABEL).unwrap();
        }
        b.build()
    }

    fn path3() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        b.build()
    }

    #[test]
    fn matches_oracle_on_paw() {
        let g = paw();
        let p = path3();
        for variant in Variant::ALL {
            let (count, _) = run(&g, &p, variant, RunConfig::default());
            assert_eq!(count, oracle_count(&g, &p, variant), "{variant}");
        }
    }

    #[test]
    fn factorization_matches_sequential() {
        // Star pattern with same-label center, distinct-label leaves in a
        // labeled data graph.
        let mut gb = GraphBuilder::new();
        let c0 = gb.add_vertex(0);
        let c1 = gb.add_vertex(0);
        for l in [1u32, 1, 2, 3] {
            let v = gb.add_vertex(l);
            gb.add_undirected_edge(c0, v, NO_LABEL).unwrap();
            gb.add_undirected_edge(c1, v, NO_LABEL).unwrap();
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_vertex(0);
        pb.add_vertex(1);
        pb.add_vertex(2);
        pb.add_vertex(3);
        for leaf in 1..4 {
            pb.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let p = pb.build();
        for variant in Variant::ALL {
            let (with, stats) = run(&g, &p, variant, RunConfig::default());
            let (without, _) =
                run(&g, &p, variant, RunConfig { factorize: false, ..Default::default() });
            assert_eq!(with, without, "{variant}");
            assert_eq!(with, oracle_count(&g, &p, variant), "{variant}");
            if variant == Variant::Homomorphic {
                assert!(stats.splits_taken > 0, "splits fire for homomorphism");
            }
        }
    }

    #[test]
    fn sce_cache_hits_occur_and_do_not_change_counts() {
        // Two independent leaves under a path: reuse should fire.
        let mut gb = GraphBuilder::new();
        b_chain(&mut gb, 6);
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        b_chain(&mut pb, 4);
        let p = pb.build();
        let (with, stats_with) = run(&g, &p, Variant::EdgeInduced, RunConfig::default());
        let (without, stats_without) = run(
            &g,
            &p,
            Variant::EdgeInduced,
            RunConfig { use_sce_cache: false, ..Default::default() },
        );
        assert_eq!(with, without);
        assert_eq!(with, oracle_count(&g, &p, Variant::EdgeInduced));
        assert!(stats_without.sce_cache_hits == 0);
        assert!(stats_with.candidate_computations <= stats_without.candidate_computations);
    }

    fn b_chain(b: &mut GraphBuilder, n: usize) {
        b.add_unlabeled_vertices(n);
        for i in 0..n - 1 {
            b.add_undirected_edge(i as u32, i as u32 + 1, NO_LABEL).unwrap();
        }
    }

    #[test]
    fn enumerate_agrees_with_count_and_can_stop() {
        let g = paw();
        let p = path3();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let mut exec = Executor::new(&catalog, &plan, RunConfig::default());
        let mut embeddings = Vec::new();
        exec.enumerate(&mut |f| {
            embeddings.push(f.to_vec());
            true
        });
        assert_eq!(embeddings.len() as u64, oracle_count(&g, &p, Variant::EdgeInduced));
        // Every reported embedding is valid.
        for f in &embeddings {
            for e in p.edges() {
                assert!(g.has_edge(f[e.src as usize], f[e.dst as usize], e.label, e.directed));
            }
        }
        // Early stop.
        let mut seen = 0;
        exec.enumerate(&mut |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn sinks_drive_the_same_search() {
        let g = paw();
        let p = path3();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let oracle = oracle_count(&g, &p, Variant::EdgeInduced);

        let mut exec = Executor::new(&catalog, &plan, RunConfig::default());
        let mut count = CountSink::default();
        exec.drive(&mut count);
        assert_eq!(count.count, oracle);

        let mut collect = CollectSink::default();
        exec.drive(&mut collect);
        assert_eq!(collect.embeddings.len() as u64, oracle);

        let mut first2 = Vec::new();
        exec.drive(&mut CallbackSink::new(|f: &[VertexId]| {
            first2.push(f.to_vec());
            first2.len() < 2
        }));
        // A stopped search saw a prefix of the full enumeration order.
        assert_eq!(first2[..], collect.embeddings[..2]);
    }

    #[test]
    fn vertex_induced_negation_filters() {
        let g = paw();
        let p = path3();
        let (count, _) = run(&g, &p, Variant::VertexInduced, RunConfig::default());
        assert_eq!(count, 4, "paths through the pendant only (oracle-checked value)");
        assert_eq!(count, oracle_count(&g, &p, Variant::VertexInduced));
    }

    #[test]
    fn timeout_flags_partial_results() {
        // A pathological homomorphic count on a clique would run long;
        // with a zero time limit it must stop immediately and flag it.
        let mut gb = GraphBuilder::new();
        gb.add_unlabeled_vertices(12);
        for i in 0..12u32 {
            for j in i + 1..12 {
                gb.add_undirected_edge(i, j, NO_LABEL).unwrap();
            }
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        b_chain(&mut pb, 9);
        let p = pb.build();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::Homomorphic);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::Homomorphic);
        let mut exec = Executor::new(
            &catalog,
            &plan,
            RunConfig { time_limit: Some(Duration::ZERO), factorize: false, ..Default::default() },
        );
        let _ = exec.count();
        assert!(exec.stats().timed_out);
    }

    #[test]
    fn restrictions_break_symmetry_exactly() {
        // Triangles in K4: 24 mappings, 4 distinct subgraphs. Full orbit
        // restrictions f(0)<f(1)<f(2) keep one mapping per subgraph.
        let mut gb = GraphBuilder::new();
        gb.add_unlabeled_vertices(4);
        for i in 0..4u32 {
            for j in i + 1..4 {
                gb.add_undirected_edge(i, j, NO_LABEL).unwrap();
            }
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_unlabeled_vertices(3);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            pb.add_undirected_edge(a, b, NO_LABEL).unwrap();
        }
        let p = pb.build();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let mut exec = Executor::new(&catalog, &plan, RunConfig::default())
            .with_restrictions(&[(0, 1), (1, 2)]);
        assert_eq!(exec.count(), 4);
        // Without restrictions: all 24 mappings.
        let mut plain = Executor::new(&catalog, &plan, RunConfig::default());
        assert_eq!(plain.count(), 24);
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let mut gb = GraphBuilder::new();
        gb.add_unlabeled_vertices(30);
        for i in 0..30u32 {
            for j in i + 1..30 {
                if (i * 31 + j * 17) % 5 == 0 {
                    gb.add_undirected_edge(i, j, NO_LABEL).unwrap();
                }
            }
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        b_chain(&mut pb, 5);
        let p = pb.build();
        let gc = build_ccsr(&g).unwrap();
        let (run, rec) = (RunConfig::default(), csce_obs::Recorder::disabled());
        for variant in Variant::ALL {
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
            let mut seq_exec = Executor::new(&catalog, &plan, RunConfig::default());
            let sequential = seq_exec.count();
            let seq_scanned = seq_exec.stats().candidates_scanned;
            for threads in [1usize, 2, 3, 7] {
                let parallel = count_parallel_observed(&star, &p, &plan, run, threads, None, &rec)
                    .expect("no worker panicked");
                assert_eq!(parallel.count, sequential, "{variant} with {threads} threads");
                assert_eq!(parallel.stats.embeddings, parallel.count);
                assert!(!parallel.stats.timed_out);
                assert_eq!(parallel.workers.len(), threads);
                // Factorized Splits may prune differently per root chunk,
                // so merged scans match the standalone run only on one
                // thread.
                if threads == 1 {
                    assert_eq!(parallel.stats.candidates_scanned, seq_scanned);
                }
                // Every run, one thread included, claims its root
                // candidates in chunks (a scanned candidate means the
                // root had some).
                if parallel.stats.candidates_scanned > 0 {
                    assert!(parallel.stats.chunks_claimed >= 1, "{variant} with {threads} threads");
                }
            }
        }
    }

    #[test]
    fn scheduled_executors_sum_exactly() {
        // Drain one shared scheduler with sequential executors: the
        // claimed chunks must partition the root candidates, so partial
        // counts sum to the full count.
        use std::sync::Arc;
        let g = paw();
        let p = path3();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let full = Executor::new(&catalog, &plan, RunConfig::default()).count();
        let sched = Arc::new(Scheduler::new(3, None));
        let mut sum = 0u64;
        let mut claimed = 0u64;
        for _ in 0..3 {
            let mut exec = Executor::new(&catalog, &plan, RunConfig::default())
                .with_scheduler(Arc::clone(&sched));
            sum += exec.count();
            claimed += exec.stats().chunks_claimed;
        }
        assert_eq!(sum, full);
        assert!(claimed > 0);
        // The cursor is spent: a fourth executor on the same scheduler
        // claims nothing and counts nothing.
        let mut late =
            Executor::new(&catalog, &plan, RunConfig::default()).with_scheduler(Arc::clone(&sched));
        assert_eq!(late.count(), 0);
    }

    #[test]
    fn collect_parallel_matches_sequential_set() {
        let g = paw();
        let p = path3();
        let gc = build_ccsr(&g).unwrap();
        let (run, rec) = (RunConfig::default(), csce_obs::Recorder::disabled());
        for variant in Variant::ALL {
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
            let mut seq = Executor::new(&catalog, &plan, RunConfig::default());
            let mut expected: Vec<Vec<VertexId>> = Vec::new();
            seq.enumerate(&mut |f| {
                expected.push(f.to_vec());
                true
            });
            expected.sort_unstable();
            for threads in [1usize, 2, 4] {
                let out = collect_parallel(&star, &p, &plan, run, threads, None, &rec)
                    .expect("no worker panicked");
                assert_eq!(out.embeddings, expected, "{variant} with {threads} threads");
            }
        }
    }

    /// A vertex-induced plan reads its negation clusters from the star's
    /// label-pair table, which a star read for edge-induced matching walks
    /// on first use: over either star it counts the oracle's embeddings
    /// with identical counters.
    #[test]
    fn vertex_induced_plan_over_an_edge_induced_star() {
        use csce_graph::generate::chung_lu;
        use csce_graph::sample::PatternSampler;
        use csce_graph::Density;
        let variant = Variant::VertexInduced;
        let mut checked = 0;
        for seed in 0..8 {
            let g = chung_lu(40, 160, 2.6, 1 + seed as u32 % 4, 2, seed % 2 == 0, seed);
            let gc = build_ccsr(&g).unwrap();
            let mut sampler = PatternSampler::new(&g, seed);
            for size in [3, 4, 5] {
                let Some(sp) = sampler.sample(size, Density::Sparse) else { continue };
                let p = sp.pattern;
                let counted = |star_variant| {
                    let star = read_csr(&gc, &p, star_variant);
                    let catalog = Catalog::new(&p, &star);
                    let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
                    let mut exec = Executor::new(&catalog, &plan, RunConfig::default());
                    (exec.count(), exec.stats().clone())
                };
                let (own, edge) = (counted(variant), counted(Variant::EdgeInduced));
                assert_eq!(own.0, oracle_count(&g, &p, variant), "seed {seed}, size {size}");
                assert_eq!(edge, own, "seed {seed}, size {size}");
                checked += 1;
            }
        }
        assert!(checked >= 12, "{checked} patterns sampled");
    }

    #[test]
    fn single_vertex_pattern() {
        let mut gb = GraphBuilder::new();
        gb.add_vertex(3);
        gb.add_vertex(3);
        gb.add_vertex(4);
        gb.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_vertex(3);
        let p = pb.build();
        let (count, _) = run(&g, &p, Variant::EdgeInduced, RunConfig::default());
        assert_eq!(count, 2);
    }
}
