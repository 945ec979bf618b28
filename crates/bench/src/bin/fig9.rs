//! Fig. 9: scalability with the number of embeddings — edge-induced SM
//! with patterns of sizes 8 and 9 sorted by result count. Reproduces
//! Finding 9 (time grows with embeddings) and GraphPi's flat-but-high
//! curve (its optimization cost does not depend on the result count —
//! Finding 2). Two panels: the paper's DIP (which at laptop scale clamps
//! everywhere, so timed-out cells report the partial count reached within
//! the budget) and RoadCA (whose sparse-pattern runs complete, showing
//! the time-vs-embeddings growth directly).

use csce_bench::{env_param, run_all, AlgoResult, BenchContext, Table, UsageError};
use csce_datasets::{presets, sample_suite, Dataset};
use csce_graph::{Density, Variant};
use std::time::Duration;

fn main() -> Result<(), UsageError> {
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 10)? as u64);
    let repeats = env_param("CSCE_REPEATS", 10)?;
    for (ds, density) in [(presets::dip(), Density::Dense), (presets::roadca(), Density::Sparse)] {
        println!("Fig. 9 — total time vs number of embeddings on {} ({})\n", ds.name, ds.stats());
        run_panel(ds, density, limit, repeats);
    }
    println!(
        "`*` = clamped at the time limit; the cell then shows the partial count\n\
         reached within the budget (higher = faster engine)."
    );
    Ok(())
}

fn run_panel(ds: Dataset, density: Density, limit: Duration, repeats: usize) {
    let ctx = BenchContext::new(ds.name, ds.graph);
    // DIP uses dense patterns (MIPS-complex-like; sparse trees on a
    // hub-heavy PPI graph explode); the RoadCA panel uses sparse patterns
    // whose runs complete with counts spanning orders of magnitude.
    for size in [8usize, 9] {
        let suites = sample_suite(&ctx.graph, &[size], &[density], repeats, 0xF19);
        let suite = &suites[0];
        if suite.patterns.is_empty() {
            continue;
        }
        // Run everything, then sort rows by CSCE's embedding count
        // (ascending), as the paper arranges its x-axis.
        let mut results: Vec<Vec<AlgoResult>> =
            suite.patterns.iter().map(|p| run_all(&ctx, p, Variant::EdgeInduced, limit)).collect();
        let algo_names: Vec<&str> = results[0].iter().map(|r| r.name).collect();
        // CSCE's (possibly partial) count comes first in every sweep.
        results.sort_by_key(|rs| rs[0].count);
        let mut header = vec!["#embeddings"];
        header.extend(algo_names.iter().copied());
        let mut t = Table::new(&header);
        for rs in results {
            let mut row = vec![rs[0].count.to_string()];
            for &name in &algo_names {
                match rs.iter().find(|r| r.name == name) {
                    // Timed-out runs report the partial count reached at
                    // the limit, so relative engine speed stays visible
                    // even when every run clamps.
                    Some(r) if r.timed_out => row.push(format!("{:.0}M*", r.count as f64 / 1e6)),
                    Some(r) => row.push(format!("{:.3}s", r.seconds)),
                    None => row.push("-".into()),
                }
            }
            t.row(row);
        }
        println!("[{} patterns of size {size}]", ctx.name);
        t.print();
        println!();
    }
}
