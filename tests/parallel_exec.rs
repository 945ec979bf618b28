//! The parallel match engine's contract: dynamic chunked scheduling is
//! exact (counts and embedding *sets* identical to the sequential
//! executor, collected rows sorted and distinct at every thread count,
//! idle workers included), and early stop and timeouts propagate
//! cooperatively across workers. That a worker panic degrades to a clean
//! error is a unit test of the worker driver (`exec/scheduler.rs`), the
//! one place a panic can be injected into a worker.

use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::generate;
use csce::obs::Recorder;
use csce::{Graph, GraphBuilder, Variant, VertexId, NO_LABEL};
use std::time::Duration;

/// A skewed (preferential-attachment) data graph: a few hub vertices
/// carry most of the edges, the workload static partitioning balances
/// worst.
fn skewed_graph() -> Graph {
    generate::barabasi_albert(300, 3, 0, 42)
}

fn path_pattern(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 - 1 {
        b.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
    }
    b.build()
}

fn complete_graph(n: u32) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n as usize);
    for i in 0..n {
        for j in i + 1..n {
            b.add_undirected_edge(i, j, NO_LABEL).unwrap();
        }
    }
    b.build()
}

#[test]
fn chunked_scheduler_is_exact_on_skewed_graph() {
    let g = skewed_graph();
    let p = path_pattern(4);
    let engine = Engine::build(&g);
    let rec = Recorder::disabled();
    for variant in Variant::ALL {
        let sequential = engine.count(&p, variant);
        assert!(sequential > 0, "{variant}: workload must be nontrivial");
        let query = engine.prepare(&p, variant, PlannerConfig::csce(), &rec).unwrap();
        for threads in [2usize, 4, 7] {
            let parallel =
                query.count(RunConfig::default(), threads, None).expect("no worker panicked");
            assert_eq!(parallel.count, sequential, "{variant} with {threads} threads");
            assert_eq!(parallel.workers.len(), threads);
            assert!(
                parallel.stats.chunks_claimed > 1,
                "{variant} with {threads} threads: root work was actually chunked"
            );
        }
    }
}

/// The sequential executor's embeddings, sorted here: an expectation
/// that does not pass through the parallel collect path.
fn sequential_embeddings(engine: &Engine, p: &Graph, variant: Variant) -> Vec<Vec<VertexId>> {
    let mut rows = Vec::new();
    engine.enumerate(p, variant, &mut |f| {
        rows.push(f.to_vec());
        true
    });
    rows.sort_unstable();
    rows
}

#[test]
fn parallel_enumerate_matches_sequential_set_for_all_variants() {
    let g = skewed_graph();
    let p = path_pattern(3);
    let engine = Engine::build(&g);
    for variant in Variant::ALL {
        let expected = sequential_embeddings(&engine, &p, variant);
        assert!(!expected.is_empty(), "{variant}");
        for threads in [1usize, 2, 3, 4, 7] {
            let run = engine
                .collect_parallel(&p, variant, threads, RunConfig::default())
                .expect("no worker panicked");
            assert_eq!(run.embeddings, expected, "{variant} with {threads} threads");
            assert_eq!(run.stats.embeddings, expected.len() as u64, "{variant}");
            assert_eq!(run.workers.len(), threads);
        }
    }
}

#[test]
fn workers_without_root_candidates_collect_nothing() {
    // Four data vertices are at most four root candidates: with seven
    // workers, at least three claim no chunk and return no rows.
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(4);
    for (x, y) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
        b.add_undirected_edge(x, y, NO_LABEL).unwrap();
    }
    let g = b.build();
    let p = path_pattern(3);
    let engine = Engine::build(&g);
    for variant in Variant::ALL {
        let expected = sequential_embeddings(&engine, &p, variant);
        assert!(!expected.is_empty(), "{variant}");
        for threads in [5usize, 7] {
            let run = engine
                .collect_parallel(&p, variant, threads, RunConfig::default())
                .expect("no worker panicked");
            assert_eq!(run.embeddings, expected, "{variant} with {threads} threads");
            let idle = run.workers.iter().filter(|w| w.chunks_claimed == 0).count();
            assert!(idle >= threads - 4, "{variant} with {threads} threads: {idle} idle");
            assert!(run.workers.iter().all(|w| w.chunks_claimed > 0 || w.embeddings == 0));
        }
    }
}

#[test]
fn first_k_under_many_threads_returns_exactly_k() {
    let g = skewed_graph();
    let p = path_pattern(3);
    let engine = Engine::build(&g);
    let total = engine.count(&p, Variant::EdgeInduced);
    assert!(total > 100);
    let all = sequential_embeddings(&engine, &p, Variant::EdgeInduced);
    let rec = Recorder::disabled();
    let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
    for threads in [4usize, 7] {
        for k in [0usize, 1, 7, 64] {
            let (out, embeddings) = query
                .collect(RunConfig::default(), threads, None, Some(k))
                .expect("no worker panicked");
            assert_eq!(embeddings.len(), k, "k={k} with {threads} threads");
            assert_eq!(out.count, k as u64);
            // Rows the quota refused are not counted as results.
            assert_eq!(out.stats.embeddings, k as u64, "k={k} with {threads} threads");
            assert_eq!(out.workers.len(), threads);
            if k == 0 {
                assert_eq!(out.stats.nodes, 0, "a zero limit searches nothing");
            }
            // Sorted and distinct, like an unlimited collect.
            assert!(embeddings.windows(2).all(|w| w[0] < w[1]), "k={k} with {threads} threads");
            // Whichever embeddings won the quota, each is a real one.
            for f in &embeddings {
                assert!(all.binary_search(f).is_ok(), "spurious embedding {f:?}");
            }
        }
        // Asking for more than exist returns all of them, exactly once.
        let (_, embeddings) = query
            .collect(RunConfig::default(), threads, None, Some(usize::MAX))
            .expect("no worker panicked");
        assert_eq!(embeddings, all, "limit beyond total with {threads} threads");
    }
}

#[test]
fn shared_timeout_is_attributed_exactly_once() {
    // An explosive homomorphic workload with a zero budget: every worker
    // observes the stop, but only one flags `timed_out`.
    let g = complete_graph(13);
    let p = path_pattern(9);
    let engine = Engine::build(&g);
    let rec = Recorder::disabled();
    let query = engine.prepare(&p, Variant::Homomorphic, PlannerConfig::csce(), &rec).unwrap();
    let run = RunConfig { time_limit: Some(Duration::ZERO), ..Default::default() };
    for threads in [2usize, 4, 6] {
        let out = query.count(run, threads, None).expect("no worker panicked");
        assert!(out.stats.timed_out, "{threads} threads");
        let flagged = out.workers.iter().filter(|w| w.timed_out).count();
        assert_eq!(flagged, 1, "{threads} threads: {flagged} workers flagged the one deadline");
    }
}

#[test]
fn a_zero_budget_collect_returns_sorted_partial_rows() {
    // The explosive workload of the timeout test: the run stops early,
    // and whatever the workers collected comes back sorted, distinct and
    // real.
    let g = complete_graph(13);
    let p = path_pattern(9);
    let engine = Engine::build(&g);
    let run = RunConfig { time_limit: Some(Duration::ZERO), ..Default::default() };
    for threads in [1usize, 2, 4] {
        let out = engine
            .collect_parallel(&p, Variant::Homomorphic, threads, run)
            .expect("no worker panicked");
        assert!(out.stats.timed_out, "{threads} threads");
        // Strictly ascending: sorted and distinct.
        assert!(out.embeddings.windows(2).all(|w| w[0] < w[1]), "{threads} threads");
        for f in &out.embeddings {
            assert_eq!(f.len(), p.n());
            assert!(f.windows(2).all(|e| g.connected(e[0], e[1])), "not a homomorphism: {f:?}");
        }
    }
}

#[test]
fn a_count_clamped_across_workers_is_flagged_saturated() {
    // Two label-0 centres, each with 10 leaves of every label 1..=19, and
    // the 19-leaf star: each centre roots 10^19 embeddings, which fits in
    // u64, and their sum 2·10^19 does not. Wherever the sum is taken (in
    // one worker's root scan or in the reduce over workers), the clamp is
    // flagged.
    let (labels, per_label) = (19u32, 10);
    let mut g = GraphBuilder::new();
    let mut p = GraphBuilder::new();
    let centres = [g.add_vertex(0), g.add_vertex(0)];
    p.add_vertex(0);
    for l in 1..=labels {
        for centre in centres {
            for _ in 0..per_label {
                let leaf = g.add_vertex(l);
                g.add_undirected_edge(centre, leaf, NO_LABEL).unwrap();
            }
        }
        let leaf = p.add_vertex(l);
        p.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
    }
    let (g, p) = (g.build(), p.build());
    let engine = Engine::build(&g);
    let rec = Recorder::disabled();
    let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
    for threads in [1usize, 2] {
        let out = query.count(RunConfig::default(), threads, None).expect("no worker panicked");
        assert_eq!(out.count, u64::MAX, "{threads} threads");
        assert!(out.stats.saturated, "{threads} threads");
    }
}
