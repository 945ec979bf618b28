//! Property-based invariants over the execution counters: the metrics the
//! observability layer reports must stay internally consistent on random
//! workloads, serially and in parallel.

use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::{Graph, GraphBuilder, Variant, NO_LABEL};
use csce::obs::Recorder;
use proptest::prelude::*;

fn arb_graph(max_n: usize, max_m: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n, proptest::collection::vec((0u32..100, 0u32..100), 0..max_m)).prop_map(
        move |(n, raw_edges)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex((i as u32) % labels.max(1));
            }
            for (x, y) in raw_edges {
                let (a, c) = ((x as usize % n) as u32, (y as usize % n) as u32);
                if a != c {
                    let _ = b.add_undirected_edge(a, c, NO_LABEL);
                }
            }
            b.build()
        },
    )
}

fn arb_pattern() -> impl Strategy<Value = Graph> {
    (2usize..=4, proptest::collection::vec((0u32..100, 0u32..100), 0..3)).prop_map(|(n, extras)| {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex((i as u32) % 2);
        }
        for i in 1..n {
            let _ = b.add_undirected_edge(i as u32 - 1, i as u32, NO_LABEL);
        }
        for (x, y) in extras {
            let (a, c) = ((x as usize % n) as u32, (y as usize % n) as u32);
            if a != c {
                let _ = b.add_undirected_edge(a, c, NO_LABEL);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every embedding extends a scanned candidate, and the SCE hit rate
    /// is a proper fraction.
    #[test]
    fn counters_are_internally_consistent(
        g in arb_graph(14, 35, 2),
        p in arb_pattern(),
        variant_idx in 0usize..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let engine = Engine::build(&g);
        let run = RunConfig { profile: true, ..RunConfig::default() };
        let out = engine.run(&p, variant, PlannerConfig::csce(), run);
        let s = &out.stats;
        prop_assert!(s.embeddings <= s.candidates_scanned,
            "embeddings {} > candidates scanned {}", s.embeddings, s.candidates_scanned);
        let rate = s.sce_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
        prop_assert!(s.sce_cache_hits <= s.sce_cache_hits + s.candidate_computations);
        // The per-depth profile decomposes the scan totals.
        let deep = s.deep.as_ref().expect("profile run records deep stats");
        prop_assert_eq!(deep.depth_candidates.iter().sum::<u64>(), s.candidates_scanned);
        prop_assert_eq!(deep.depth_sce_hits.iter().sum::<u64>(), s.sce_cache_hits);
    }

    /// Parallel runs return the sequential count with merged counters that
    /// cover the same work.
    #[test]
    fn parallel_merge_is_consistent(
        g in arb_graph(14, 35, 2),
        p in arb_pattern(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::build(&g);
        let serial = engine.count(&p, Variant::EdgeInduced);
        let run = RunConfig { profile: true, ..RunConfig::default() };
        let rec = Recorder::disabled();
        let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
        let par = query.count(run, threads, None).expect("no worker panicked");
        prop_assert_eq!(par.count, serial);
        prop_assert_eq!(par.stats.embeddings, par.count);
        prop_assert!(!par.stats.timed_out);
        prop_assert!(par.stats.embeddings <= par.stats.candidates_scanned);
        // Worker partitioning must not lose scans: per-partition pruning
        // can overshoot a single-threaded run but never undershoot it.
        let single = query.count(run, 1, None).expect("no worker panicked");
        prop_assert!(par.stats.candidates_scanned >= single.stats.candidates_scanned);
        if threads == 1 {
            prop_assert_eq!(par.stats.nodes, single.stats.nodes);
        }
    }
}

#[test]
fn export_registers_every_scalar() {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(4);
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        b.add_undirected_edge(x, y, NO_LABEL).unwrap();
    }
    let g = b.build();
    let mut pb = GraphBuilder::new();
    pb.add_unlabeled_vertices(2);
    pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
    let p = pb.build();

    let engine = Engine::build(&g);
    let run = RunConfig { profile: true, ..RunConfig::default() };
    let out = engine.run(&p, Variant::EdgeInduced, PlannerConfig::csce(), run);
    let mut m = csce::obs::MetricsRegistry::new();
    out.stats.export(&mut m);
    for key in [
        "exec.embeddings",
        "exec.sce_cache_hits",
        "exec.candidate_computations",
        "exec.candidates_scanned",
        "exec.nodes",
        "exec.splits_taken",
        "exec.negation_clusters",
        "exec.timed_out",
    ] {
        assert!(m.counters().any(|(k, _)| k == key), "missing counter {key}");
    }
    assert!(m.gauge("exec.sce_hit_rate").is_some());
    assert_eq!(m.counter("exec.embeddings"), out.count);
}
