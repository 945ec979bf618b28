//! Every matcher in the workspace must honor its time budget: a
//! zero-budget run on an explosive workload terminates promptly with the
//! timeout flag set, and a generous budget leaves results exact.

use csce::baselines::all_baselines;
use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::{Graph, GraphBuilder};
use csce::obs::Recorder;
use csce::{Variant, NO_LABEL};
use std::time::{Duration, Instant};

/// A clique big enough that unlabeled path counting explodes.
fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            b.add_undirected_edge(i, j, NO_LABEL).unwrap();
        }
    }
    b.build()
}

fn long_path(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 - 1 {
        b.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
    }
    b.build()
}

#[test]
fn every_baseline_stops_on_zero_budget() {
    let g = clique(13);
    let p = long_path(9);
    for baseline in all_baselines() {
        for variant in Variant::ALL {
            if !baseline.supports(&g, &p, variant) {
                continue;
            }
            let start = Instant::now();
            let r = baseline.count(&g, &p, variant, Some(Duration::ZERO));
            // Vertex-induced paths inside a clique do not exist, so that
            // search legitimately finishes before the deadline check; the
            // explosive variants must report the timeout.
            if variant != Variant::VertexInduced {
                assert!(r.timed_out, "{} under {variant} must time out", baseline.name());
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{} took {:?} to honor a zero budget",
                baseline.name(),
                start.elapsed()
            );
        }
    }
}

#[test]
fn engine_stops_on_zero_budget_in_both_modes() {
    let g = clique(13);
    let p = long_path(9);
    let engine = Engine::build(&g);
    for factorize in [true, false] {
        let run = RunConfig { time_limit: Some(Duration::ZERO), factorize, ..Default::default() };
        let start = Instant::now();
        let out = engine.run(&p, Variant::EdgeInduced, PlannerConfig::csce(), run);
        assert!(out.stats.timed_out, "factorize={factorize}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}

#[test]
fn parallel_counting_propagates_timeouts() {
    let g = clique(13);
    let p = long_path(9);
    let engine = Engine::build(&g);
    for threads in [1usize, 4] {
        let run = RunConfig { time_limit: Some(Duration::ZERO), ..Default::default() };
        let start = Instant::now();
        let out = engine
            .prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &Recorder::disabled())
            .unwrap()
            .count(run, threads, None)
            .expect("no worker panicked");
        assert!(out.stats.timed_out, "{threads} threads: merged stats must flag the timeout");
        assert!(start.elapsed() < Duration::from_secs(5));
        // Exactly one worker attributes the shared-deadline stop.
        let flagged = out.workers.iter().filter(|w| w.timed_out).count();
        assert_eq!(flagged, 1, "{threads} threads: timeout flagged {flagged} times");
    }
    // A generous budget through the same path stays exact and un-flagged.
    let small = clique(6);
    let engine = Engine::build(&small);
    let p = long_path(4);
    let exact = engine.count(&p, Variant::EdgeInduced);
    let run = RunConfig { time_limit: Some(Duration::from_secs(60)), ..Default::default() };
    let out = engine
        .prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &Recorder::disabled())
        .unwrap()
        .count(run, 4, None)
        .expect("no worker panicked");
    assert!(!out.stats.timed_out);
    assert_eq!(out.count, exact);
    assert_eq!(out.stats.embeddings, exact);
}

#[test]
fn generous_budget_keeps_results_exact() {
    let g = clique(6);
    let p = long_path(4);
    let engine = Engine::build(&g);
    let exact = engine.count(&p, Variant::EdgeInduced);
    let run = RunConfig { time_limit: Some(Duration::from_secs(60)), ..Default::default() };
    let out = engine.run(&p, Variant::EdgeInduced, PlannerConfig::csce(), run);
    assert!(!out.stats.timed_out);
    assert_eq!(out.count, exact);
    for baseline in all_baselines() {
        if baseline.supports(&g, &p, Variant::EdgeInduced) {
            let r = baseline.count(&g, &p, Variant::EdgeInduced, Some(Duration::from_secs(60)));
            assert!(!r.timed_out, "{}", baseline.name());
            assert_eq!(r.count, exact, "{}", baseline.name());
        }
    }
}

#[test]
fn unbounded_budget_means_no_deadline() {
    // `Duration::MAX` lies past the clock's range: no deadline, not an
    // overflow. The engine on one thread and on several, and every
    // baseline (RI included), return the exact, un-flagged count.
    let g = clique(6);
    let p = long_path(4);
    let engine = Engine::build(&g);
    let exact = engine.count(&p, Variant::EdgeInduced);
    let run = RunConfig { time_limit: Some(Duration::MAX), ..Default::default() };
    let recorder = Recorder::disabled();
    let query = engine.prepare(&p, Variant::EdgeInduced, PlannerConfig::csce(), &recorder).unwrap();
    for threads in [1usize, 4] {
        let out = query.count(run, threads, None).expect("no worker panicked");
        assert!(!out.stats.timed_out, "{threads} threads");
        assert_eq!(out.count, exact, "{threads} threads");
    }
    for baseline in all_baselines() {
        if baseline.supports(&g, &p, Variant::EdgeInduced) {
            let r = baseline.count(&g, &p, Variant::EdgeInduced, Some(Duration::MAX));
            assert!(!r.timed_out, "{}", baseline.name());
            assert_eq!(r.count, exact, "{}", baseline.name());
        }
    }
}
