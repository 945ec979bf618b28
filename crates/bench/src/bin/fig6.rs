//! Fig. 6: total time (read + plan + execute) of every algorithm on every
//! data graph and pattern configuration, per matching variant.
//!
//! Environment knobs:
//! * `CSCE_TIME_LIMIT` — per-run limit in seconds (default 5; the paper
//!   uses 10^4 on full-size graphs);
//! * `CSCE_REPEATS` — patterns per configuration (default 3; paper: 10);
//! * argv — dataset names to include (default: all nine).

#[global_allocator]
static ALLOC: csce_bench::TrackingAllocator = csce_bench::TrackingAllocator;

use csce_bench::alloc::format_bytes;
use csce_bench::table::format_secs;
use csce_bench::{run_all, BenchContext, BenchReport, Table, TrackingAllocator};
use csce_datasets::{all_presets, sample_suite};
use csce_graph::{Density, Variant};
use std::time::Duration;

struct Config {
    variants: &'static [Variant],
    sizes: &'static [usize],
    densities: &'static [Density],
}

fn config_for(name: &str) -> Config {
    use Density::*;
    use Variant::*;
    match name {
        // The paper's sub-figure selections, scaled. DIP uses dense
        // patterns (the MIPS complexes are communities, not trees; sparse
        // trees on a hub-heavy PPI graph explode to billions).
        "DIP" => Config {
            variants: &[EdgeInduced, VertexInduced],
            sizes: &[3, 4, 5, 8, 9],
            densities: &[Dense],
        },
        "Yeast" => Config {
            variants: &[EdgeInduced, VertexInduced],
            sizes: &[8, 16, 32],
            densities: &[Dense, Sparse],
        },
        "Human" => {
            Config { variants: &[EdgeInduced], sizes: &[4, 8, 16], densities: &[Dense, Sparse] }
        }
        "HPRD" => Config {
            variants: &[EdgeInduced, VertexInduced],
            sizes: &[8, 16, 32, 50],
            densities: &[Dense, Sparse],
        },
        "RoadCA" => Config {
            variants: &[EdgeInduced, VertexInduced],
            sizes: &[4, 8, 16, 32],
            densities: &[Sparse],
        },
        "Orkut" => Config { variants: &[EdgeInduced], sizes: &[4, 8], densities: &[Sparse] },
        "Patent" => {
            Config { variants: &[EdgeInduced], sizes: &[8, 16, 32], densities: &[Dense, Sparse] }
        }
        "Subcategory" => {
            Config { variants: &[Homomorphic, VertexInduced], sizes: &[4, 8], densities: &[Sparse] }
        }
        "LiveJournal" => {
            Config { variants: &[Homomorphic], sizes: &[4, 8, 10, 12], densities: &[Sparse] }
        }
        other => panic!("unknown dataset {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let limit = Duration::from_secs(
        std::env::var("CSCE_TIME_LIMIT").ok().and_then(|s| s.parse().ok()).unwrap_or(5),
    );
    let repeats: usize =
        std::env::var("CSCE_REPEATS").ok().and_then(|s| s.parse().ok()).unwrap_or(3);

    println!(
        "Fig. 6 — total time per algorithm (limit {:?}/run, {} patterns/config, \
         averaged; `>limit` marks timeouts)\n",
        limit, repeats
    );

    let mut report = BenchReport::new("fig6");
    for ds in all_presets() {
        if !args.is_empty() && !args.iter().any(|a| a.eq_ignore_ascii_case(ds.name)) {
            continue;
        }
        let cfg = config_for(ds.name);
        println!("=== {} — {} ===", ds.name, ds.stats());
        let ctx = BenchContext::new(ds.name, ds.graph);
        for &variant in cfg.variants {
            let suites = sample_suite(&ctx.graph, cfg.sizes, cfg.densities, repeats, 0xF166);
            let mut algo_names: Vec<&'static str> = Vec::new();
            let mut rows: Vec<Vec<String>> = Vec::new();
            for suite in &suites {
                if suite.patterns.is_empty() {
                    continue;
                }
                // Average per algorithm over the suite's patterns.
                let mut totals: Vec<(&'static str, f64, bool)> = Vec::new();
                for (pi, p) in suite.patterns.iter().enumerate() {
                    for r in run_all(&ctx, p, variant, limit) {
                        report.record(&format!("{}/{variant}/{}/p{pi}", ctx.name, suite.name), &r);
                        match totals.iter_mut().find(|(n, _, _)| *n == r.name) {
                            Some((_, secs, to)) => {
                                *secs += r.seconds;
                                *to |= r.timed_out;
                            }
                            None => totals.push((r.name, r.seconds, r.timed_out)),
                        }
                    }
                }
                if algo_names.is_empty() {
                    algo_names = totals.iter().map(|(n, _, _)| *n).collect();
                }
                let mut row = vec![suite.name.clone()];
                for &name in &algo_names {
                    match totals.iter().find(|(n, _, _)| *n == name) {
                        Some((_, secs, timed_out)) => {
                            let avg = secs / suite.patterns.len() as f64;
                            row.push(if *timed_out {
                                format!(">{}*", format_secs(avg))
                            } else {
                                format_secs(avg)
                            });
                        }
                        None => row.push("-".into()),
                    }
                }
                rows.push(row);
            }
            if rows.is_empty() {
                continue;
            }
            let mut header: Vec<&str> = vec!["pattern"];
            header.extend(algo_names.iter().copied());
            let mut t = Table::new(&header);
            for row in rows {
                t.row(row);
            }
            println!("\n[{} — {variant}]", ctx.name);
            t.print();
        }
        println!("peak memory so far: {}\n", format_bytes(TrackingAllocator::peak_bytes()));
    }
    report.finish();
}
