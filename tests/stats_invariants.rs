//! Property-based invariants over the execution counters: the metrics the
//! observability layer reports must stay internally consistent on random
//! workloads, serially and in parallel.

use csce::engine::{Engine, ExecStats, PlannerConfig, RunConfig};
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

/// The invariants every finished run's counters keep, whichever walk ran
/// it: one per-vertex slot per pattern vertex, the scan and hit totals are
/// their slots' sums, and every recursion node materialized exactly one
/// candidate set, from the SCE cache or computed.
fn check_run(s: &ExecStats, n: usize, what: &str) {
    assert_eq!(s.vertex_candidates.len(), n, "{what}");
    assert_eq!(s.vertex_sce_hits.len(), n, "{what}");
    assert_eq!(s.vertex_candidates.iter().sum::<u64>(), s.candidates_scanned, "{what}");
    assert_eq!(s.vertex_sce_hits.iter().sum::<u64>(), s.sce_cache_hits, "{what}");
    assert!(!s.timed_out, "{what}");
    assert_eq!(s.sce_cache_hits + s.candidate_computations, s.nodes, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every embedding extends a scanned candidate, the SCE hit rate is a
    /// proper fraction, and the factorized count, the sink walk
    /// (`factorize: false`) and a three-worker collect, each worker and
    /// merged, keep [`check_run`]'s invariants.
    #[test]
    fn counters_are_internally_consistent(
        g in arb_graph(14, 35, 2),
        p in arb_pattern(),
        variant_idx in 0usize..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let engine = Engine::build(&g);
        let out = engine.run(&p, variant, PlannerConfig::csce(), RunConfig::default());
        let s = &out.stats;
        prop_assert!(s.embeddings <= s.candidates_scanned,
            "embeddings {} > candidates scanned {}", s.embeddings, s.candidates_scanned);
        let rate = s.sce_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
        check_run(s, p.n(), "factorized count");
        let walk = RunConfig { factorize: false, ..RunConfig::default() };
        let walked = engine.run(&p, variant, PlannerConfig::csce(), walk);
        prop_assert_eq!(walked.count, out.count);
        check_run(&walked.stats, p.n(), "sink-walk count");
        let collected = engine.collect_parallel(&p, variant, 3, RunConfig::default()).unwrap();
        prop_assert_eq!(collected.embeddings.len() as u64, out.count);
        for (id, worker) in collected.workers.iter().enumerate() {
            check_run(worker, p.n(), &format!("collect worker {id}"));
        }
        check_run(&collected.stats, p.n(), "merged collect");
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
        let run = RunConfig::default();
        let rec = Recorder::disabled();
        let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
        let par = query.count(run, threads, None).expect("no worker panicked");
        prop_assert_eq!(par.count, serial);
        prop_assert_eq!(par.stats.embeddings, par.count);
        prop_assert!(!par.stats.timed_out);
        prop_assert!(par.stats.embeddings <= par.stats.candidates_scanned);
        for (id, worker) in par.workers.iter().enumerate() {
            check_run(worker, p.n(), &format!("count worker {id}"));
        }
        check_run(&par.stats, p.n(), "merged count");
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
    let rec = Recorder::disabled();
    let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
    let out = query.count(RunConfig::default(), 1, None).unwrap();
    let mut m = csce::obs::MetricsRegistry::new();
    out.stats.export(&query.plan().order, &mut m);
    for key in [
        "exec.embeddings",
        "exec.sce_cache_hits",
        "exec.candidate_computations",
        "exec.candidates_scanned",
        "exec.nodes",
        "exec.splits_taken",
        "exec.negation_clusters",
        "exec.timed_out",
        "exec.intersection_input",
        "exec.intersection_output",
    ] {
        assert!(m.counters().any(|(k, _)| k == key), "missing counter {key}");
    }
    assert!(m.gauge("exec.sce_hit_rate").is_some());
    assert_eq!(m.counter("exec.embeddings"), out.count);
    let steps = m.series("exec.depth_candidates");
    assert_eq!(steps.len(), p.n(), "one entry per step of the order");
    assert_eq!(steps.iter().sum::<u64>(), out.stats.candidates_scanned);
}

/// The data of the double-arm star tests: two vertices per label `0..5`,
/// each arm's label pair joined by three edges, and three edges between
/// labels 0 and 3 that close three triangles over labels 0, 1 and 3.
fn double_arm_data() -> Graph {
    let mut b = GraphBuilder::new();
    for label in 0..5u32 {
        b.add_vertex(label);
        b.add_vertex(label);
    }
    let arms = [(0, 2), (0, 3), (1, 2), (2, 6), (3, 6), (3, 7), (0, 4), (1, 4), (1, 5), (4, 8)];
    for (x, y) in arms.into_iter().chain([(5, 8), (5, 9), (0, 6), (1, 7), (0, 7)]) {
        b.add_undirected_edge(x, y, NO_LABEL).unwrap();
    }
    b.build()
}

/// On the double-arm star `(c:0)--(a:1)--(x:3), (c)--(b:2)--(y:4)`,
/// whose plan splits into its arms after the centre, the factorized count
/// and the sink walk both report one `exec.depth_candidates` and
/// `exec.depth_sce_hits` entry per step of `Φ*`, summing to the run's
/// totals, although the factorized count visits the arms as components.
#[test]
fn both_walks_report_one_series_entry_per_step_on_a_splitting_plan() {
    let p = csce::graph::query::parse_pattern("(c:0)--(a:1)--(x:3), (c)--(b:2)--(y:4)").unwrap();
    let engine = Engine::build(&double_arm_data());
    let rec = Recorder::disabled();
    let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &rec).unwrap();
    assert!(query.plan().root.split_count() > 0, "the arms split");
    for factorize in [true, false] {
        let out = query.count(RunConfig { factorize, ..RunConfig::default() }, 1, None).unwrap();
        assert_eq!(out.count, 6, "factorize {factorize}");
        let mut m = csce::obs::MetricsRegistry::new();
        out.stats.export(&query.plan().order, &mut m);
        let (steps, hits) = (m.series("exec.depth_candidates"), m.series("exec.depth_sce_hits"));
        assert_eq!((steps.len(), hits.len()), (5, 5), "factorize {factorize}");
        assert_eq!(steps.iter().sum::<u64>(), out.stats.candidates_scanned, "{factorize}");
        assert_eq!(hits.iter().sum::<u64>(), out.stats.sce_cache_hits, "{factorize}");
        assert!(steps.iter().all(|&n| n > 0), "every step scans: {steps:?}");
    }
}

/// On a plan without a `Split` the program is `Φ*` itself, so the
/// factorized count and the sink walk into a [`CountSink`] visit the same
/// nodes and count the same work at every pattern vertex: here a
/// triangle, in every variant.
#[test]
fn both_walks_count_alike_on_a_plan_without_a_split() {
    use csce::engine::{CountSink, Executor};
    let p = csce::graph::query::parse_pattern("(c:0)--(a:1)--(x:3)--(c)").unwrap();
    let engine = Engine::build(&double_arm_data());
    let rec = Recorder::disabled();
    for variant in Variant::ALL {
        let query = engine.prepare(&p, variant, PlannerConfig::csce(), &rec).unwrap();
        let plan = query.plan();
        assert_eq!(plan.root.split_count(), 0, "{variant}: the triangle does not split");
        let catalog = query.catalog();
        let mut exec = Executor::new(&catalog, plan, RunConfig::default());
        let count = exec.count();
        let counted = exec.stats().clone();
        let mut sink = CountSink::default();
        exec.drive(&mut sink);
        let walked = exec.stats();
        assert!(count > 0, "{variant}");
        assert_eq!(sink.count, count, "{variant}");
        assert_eq!(walked.vertex_candidates, counted.vertex_candidates, "{variant}");
        assert_eq!(walked.vertex_sce_hits, counted.vertex_sce_hits, "{variant}");
        assert_eq!(walked.nodes, counted.nodes, "{variant}");
        assert_eq!(counted.vertex_candidates.len(), 3, "{variant}");
    }
}
