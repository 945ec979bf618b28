//! Fig. 8: edge-induced throughput (embeddings per second of total time)
//! on the RoadCA-like graph, per pattern size, for every algorithm.
//! Reproduces Finding 8: throughput decreases with pattern size and CSCE
//! stays on top.

use csce_bench::{
    env_param, partial, run_all, sum_by_algo, BenchContext, Table, UsageError, PARTIAL_NOTE,
};
use csce_datasets::{presets, sample_suite};
use csce_graph::{Density, Variant};
use std::time::Duration;

fn main() -> Result<(), UsageError> {
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 10)? as u64);
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let ds = presets::roadca();
    println!("Fig. 8 — edge-induced throughput on {} ({})\n", ds.name, ds.stats());
    let ctx = BenchContext::new(ds.name, ds.graph);
    let suites = sample_suite(&ctx.graph, &[8, 16, 24, 32], &[Density::Sparse], repeats, 0xF18);

    let mut algo_names: Vec<&'static str> = Vec::new();
    let mut rows = Vec::new();
    for suite in &suites {
        if suite.patterns.is_empty() {
            continue;
        }
        let totals = sum_by_algo(
            suite.patterns.iter().map(|p| run_all(&ctx, p, Variant::EdgeInduced, limit)),
        );
        if algo_names.is_empty() {
            algo_names = totals.iter().map(|r| r.name).collect();
        }
        let mut row = vec![suite.size.to_string()];
        for &name in &algo_names {
            match totals.iter().find(|r| r.name == name) {
                Some(r) if r.seconds > 0.0 => {
                    row.push(partial(format!("{:.0}", r.count as f64 / r.seconds), r.timed_out));
                }
                _ => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    let mut header = vec!["size"];
    header.extend(algo_names.iter().copied());
    let mut t = Table::new(&header);
    for row in rows {
        t.row(row);
    }
    t.print();
    println!("\n{PARTIAL_NOTE}");
    println!("\nExpected shape (paper): throughput falls as size grows; CSCE highest.");
    Ok(())
}
