//! Fig. 13: query-plan quality — the same executor run under different
//! plans on the Patent-like graph: plain RI rules, RI + CCSR cluster
//! tie-breaks, full CSCE (the cluster-tie-broken GCF order with NEC
//! sharing), and CSCE reordered by LDSF (Alg. 4, the paper's fine-tuning,
//! kept as an ablation), against the RapidMatch-family baseline (FSP-BT)
//! as the external reference. Finding 13: clusters improve the plan; the
//! LDSF column shows what descendant-first reordering costs here.

use csce_baselines::fsp::FailingSetBacktracking;
use csce_bench::{
    env_param, mean_secs, run_baseline, BenchContext, Table, UsageError, PARTIAL_NOTE,
};
use csce_core::{PlannerConfig, RunConfig};
use csce_datasets::{presets, sample_suite};
use csce_graph::{Density, Variant};
use std::time::Duration;

fn main() -> Result<(), UsageError> {
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 10)? as u64);
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let ds = presets::patent();
    println!("Fig. 13 — plan quality on {} ({}), edge-induced\n", ds.name, ds.stats());
    let ctx = BenchContext::new(ds.name, ds.graph);
    let suites =
        sample_suite(&ctx.graph, &[8, 16, 32], &[Density::Dense, Density::Sparse], repeats, 0xF13);

    // One column each, in header order.
    let plans = [
        PlannerConfig::ri_only(),
        PlannerConfig::ri_cluster(),
        PlannerConfig::csce(),
        PlannerConfig::ldsf(),
    ];
    let mut t = Table::new(&["pattern", "RM(FSP)", "RI", "RI+Cluster", "CSCE", "LDSF (Alg. 4)"]);
    for suite in &suites {
        if suite.patterns.is_empty() {
            continue;
        }
        let mut cells = vec![suite.name.clone()];
        // External reference: the RapidMatch-family backtracker.
        cells.push(mean_secs(suite.patterns.iter().map(|p| {
            let r = run_baseline(&ctx, &FailingSetBacktracking, p, Variant::EdgeInduced, limit);
            (r.seconds, r.timed_out)
        })));
        for config in plans {
            cells.push(mean_secs(suite.patterns.iter().map(|p| {
                let run = RunConfig { time_limit: Some(limit), ..Default::default() };
                let out = ctx.engine.run(p, Variant::EdgeInduced, config, run);
                let timed_out = out.stats.timed_out;
                let secs =
                    if timed_out { limit.as_secs_f64() } else { out.total_time().as_secs_f64() };
                (secs, timed_out)
            })));
        }
        t.row(cells);
    }
    t.print();
    println!("\n{PARTIAL_NOTE}");
    println!("\nExpected shape (paper): CSCE <= RI+Cluster <= RI, and CSCE beats RM.");
    Ok(())
}
