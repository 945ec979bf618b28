//! The uniform sweep runner: CSCE plus every applicable baseline on one
//! task, with the paper's time-limit convention (a failed run is recorded
//! at the limit, §VII "Metric").

use csce_baselines::{all_baselines, Baseline};
use csce_core::{Engine, PlannerConfig, RunConfig};
use csce_graph::{Graph, Variant};
use std::time::Duration;

/// One algorithm's outcome on one task.
#[derive(Clone, Debug)]
pub struct AlgoResult {
    pub name: &'static str,
    pub seconds: f64,
    pub count: u64,
    pub timed_out: bool,
}

/// A data graph together with its prebuilt CCSR engine (the offline stage
/// is shared across all patterns, as in the paper's workflow).
pub struct BenchContext {
    pub name: &'static str,
    pub graph: Graph,
    pub engine: Engine,
}

impl BenchContext {
    pub fn new(name: &'static str, graph: Graph) -> BenchContext {
        let engine = Engine::build(&graph);
        BenchContext { name, graph, engine }
    }
}

/// Run CSCE and every baseline that supports the task; failed runs are
/// clamped to the time limit per the paper's convention.
pub fn run_all(
    ctx: &BenchContext,
    pattern: &Graph,
    variant: Variant,
    time_limit: Duration,
) -> Vec<AlgoResult> {
    let mut out = Vec::new();
    out.push(run_csce(ctx, pattern, variant, time_limit));
    for baseline in all_baselines() {
        if baseline.supports(&ctx.graph, pattern, variant) {
            out.push(run_baseline(ctx, baseline.as_ref(), pattern, variant, time_limit));
        }
    }
    out
}

/// Sum sweeps per algorithm, in first-seen order: seconds and counts add
/// up, and `timed_out` is set when any run clamped.
pub fn sum_by_algo(sweeps: impl IntoIterator<Item = Vec<AlgoResult>>) -> Vec<AlgoResult> {
    let mut totals: Vec<AlgoResult> = Vec::new();
    for r in sweeps.into_iter().flatten() {
        match totals.iter_mut().find(|t| t.name == r.name) {
            Some(t) => {
                t.seconds += r.seconds;
                t.count = t.count.saturating_add(r.count);
                t.timed_out |= r.timed_out;
            }
            None => totals.push(r),
        }
    }
    totals
}

/// Run one baseline, clamped to the time limit if it fails.
pub fn run_baseline(
    ctx: &BenchContext,
    baseline: &dyn Baseline,
    pattern: &Graph,
    variant: Variant,
    time_limit: Duration,
) -> AlgoResult {
    let r = baseline.count(&ctx.graph, pattern, variant, Some(time_limit));
    AlgoResult {
        name: baseline.name(),
        seconds: if r.timed_out { time_limit.as_secs_f64() } else { r.elapsed.as_secs_f64() },
        count: r.count,
        timed_out: r.timed_out,
    }
}

/// Run CSCE alone.
pub fn run_csce(
    ctx: &BenchContext,
    pattern: &Graph,
    variant: Variant,
    time_limit: Duration,
) -> AlgoResult {
    let run = RunConfig { time_limit: Some(time_limit), ..RunConfig::default() };
    let out = ctx.engine.run(pattern, variant, PlannerConfig::csce(), run);
    AlgoResult {
        name: "CSCE",
        seconds: if out.stats.timed_out {
            time_limit.as_secs_f64()
        } else {
            out.total_time().as_secs_f64()
        },
        count: out.count,
        timed_out: out.stats.timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{GraphBuilder, NO_LABEL};

    fn tiny_ctx() -> BenchContext {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(5);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            b.add_undirected_edge(x, y, NO_LABEL).unwrap();
        }
        BenchContext::new("tiny", b.build())
    }

    fn wedge() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        b.build()
    }

    #[test]
    fn sums_group_by_algorithm() {
        let r = |name, seconds, count, timed_out| AlgoResult { name, seconds, count, timed_out };
        let totals = sum_by_algo([
            vec![r("CSCE", 1.0, 5, false), r("RI", 2.0, 5, false)],
            vec![r("CSCE", 0.5, 3, false), r("RI", 10.0, 1, true)],
        ]);
        assert_eq!(totals.len(), 2);
        assert_eq!((totals[0].name, totals[0].seconds, totals[0].count), ("CSCE", 1.5, 8));
        assert!(!totals[0].timed_out);
        assert_eq!((totals[1].name, totals[1].seconds, totals[1].count), ("RI", 12.0, 6));
        assert!(totals[1].timed_out);
    }

    #[test]
    fn all_applicable_algorithms_agree() {
        let ctx = tiny_ctx();
        let p = wedge();
        for variant in Variant::ALL {
            let results = run_all(&ctx, &p, variant, Duration::from_secs(5));
            assert!(results.len() >= 2, "{variant}: CSCE plus baselines");
            let expected = results[0].count;
            for r in &results {
                assert!(!r.timed_out, "{} timed out", r.name);
                assert_eq!(r.count, expected, "{} disagrees under {variant}", r.name);
            }
        }
    }
}
