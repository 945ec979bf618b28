//! Evidence that the optimization machinery actually fires: NEC slot
//! sharing reduces candidate computations, SCE caching converts
//! recomputations into hits, and factorized counting collapses
//! enumeration work — all without changing results.

use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::{Graph, GraphBuilder};
use csce::{Variant, NO_LABEL};

/// A bipartite-ish data graph with two centers and many shared leaves.
fn data() -> Graph {
    let mut b = GraphBuilder::new();
    let c0 = b.add_vertex(0);
    let c1 = b.add_vertex(0);
    for _ in 0..12 {
        let leaf = b.add_vertex(1);
        b.add_undirected_edge(c0, leaf, NO_LABEL).unwrap();
        b.add_undirected_edge(c1, leaf, NO_LABEL).unwrap();
    }
    b.build()
}

/// Star pattern: center label 0, `k` leaves of label 1.
fn star(k: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_vertex(0);
    for _ in 0..k {
        let leaf = b.add_vertex(1);
        b.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
    }
    b.build()
}

fn run(
    engine: &Engine,
    p: &Graph,
    planner: PlannerConfig,
    run: RunConfig,
) -> (u64, csce::engine::ExecStats) {
    let out = engine.run(p, Variant::Homomorphic, planner, run);
    (out.count, out.stats)
}

#[test]
fn nec_sharing_reduces_candidate_computations() {
    let g = data();
    let engine = Engine::build(&g);
    let p = star(4);
    // Sequential mode so the leaf-by-leaf structure is visible.
    let seq = RunConfig { factorize: false, ..Default::default() };
    let (count_nec, stats_nec) = run(&engine, &p, PlannerConfig::csce(), seq);
    // `ri_cluster` is CSCE's plan without NEC sharing.
    let (count_plain, stats_plain) = run(&engine, &p, PlannerConfig::ri_cluster(), seq);
    assert_eq!(count_nec, count_plain);
    assert!(
        stats_nec.candidate_computations < stats_plain.candidate_computations,
        "NEC sharing should compute fewer candidate sets: {} vs {}",
        stats_nec.candidate_computations,
        stats_plain.candidate_computations
    );
    assert!(stats_nec.sce_cache_hits > 0);
}

#[test]
fn factorization_collapses_star_counting_work() {
    let g = data();
    let engine = Engine::build(&g);
    let p = star(5);
    let (with, stats_with) = run(&engine, &p, PlannerConfig::csce(), RunConfig::default());
    let (without, stats_without) = run(
        &engine,
        &p,
        PlannerConfig::csce(),
        RunConfig { factorize: false, ..Default::default() },
    );
    assert_eq!(with, without);
    // 2 centers * 12^5 leaf walks.
    assert_eq!(with, 2 * 12u64.pow(5));
    assert!(
        stats_with.nodes < stats_without.nodes / 10,
        "factorized counting visits far fewer nodes: {} vs {}",
        stats_with.nodes,
        stats_without.nodes
    );
    assert!(stats_with.splits_taken > 0);
}

#[test]
fn sce_cache_converts_recomputation_into_hits() {
    // A path pattern on a grid-ish graph: moving the tail vertex reuses
    // the head candidates.
    let mut gb = GraphBuilder::new();
    gb.add_unlabeled_vertices(30);
    for i in 0..29u32 {
        gb.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
    }
    for i in 0..28u32 {
        gb.add_undirected_edge(i, i + 2, NO_LABEL).unwrap();
    }
    let g = gb.build();
    let engine = Engine::build(&g);
    let mut pb = GraphBuilder::new();
    pb.add_unlabeled_vertices(6);
    for i in 0..5u32 {
        pb.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
    }
    let p = pb.build();
    let seq = RunConfig { factorize: false, ..Default::default() };
    let out_cached = engine.run(&p, Variant::EdgeInduced, PlannerConfig::csce(), seq);
    let out_plain = engine.run(
        &p,
        Variant::EdgeInduced,
        PlannerConfig::csce(),
        RunConfig { factorize: false, use_sce_cache: false, ..Default::default() },
    );
    assert_eq!(out_cached.count, out_plain.count);
    assert_eq!(out_plain.stats.sce_cache_hits, 0);
    assert!(out_cached.stats.sce_cache_hits > 0, "cache fires on this workload");
    assert!(out_cached.stats.candidate_computations < out_plain.stats.candidate_computations);
}
