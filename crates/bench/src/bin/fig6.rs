//! Fig. 6: total time (read + plan + execute) of every algorithm on every
//! data graph and pattern configuration, per matching variant.
//!
//! Environment knobs:
//! * `CSCE_TIME_LIMIT` — per-run limit in seconds (default 5; the paper
//!   uses 10^4 on full-size graphs);
//! * `CSCE_REPEATS` — patterns per configuration (default 3; paper: 10);
//! * argv — dataset names to include (default: all nine); a name that
//!   matches no preset is an error listing the presets.

use csce_bench::{env_param, peak_rss, run_all, sum_by_algo, BenchContext, Table, UsageError};
use csce_datasets::{all_presets, sample_suite};
use csce_graph::{Density, Variant};
use csce_obs::format_duration;
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

fn main() -> Result<(), UsageError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 5)? as u64);
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let presets = all_presets();
    let names: Vec<&str> = presets.iter().map(|ds| ds.name).collect();
    if let Some(bad) = args.iter().find(|a| !names.iter().any(|n| a.eq_ignore_ascii_case(n))) {
        return Err(UsageError(format!(
            "unknown dataset {bad:?}; the presets are {}",
            names.join(", ")
        )));
    }

    println!(
        "Fig. 6 — total time per algorithm (limit {:?}/run, {} patterns/config, \
         averaged; `>limit` marks timeouts)\n",
        limit, repeats
    );

    for ds in presets {
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
                let totals =
                    sum_by_algo(suite.patterns.iter().map(|p| run_all(&ctx, p, variant, limit)));
                if algo_names.is_empty() {
                    algo_names = totals.iter().map(|r| r.name).collect();
                }
                let mut row = vec![suite.name.clone()];
                for &name in &algo_names {
                    match totals.iter().find(|r| r.name == name) {
                        Some(r) => {
                            let avg =
                                Duration::from_secs_f64(r.seconds / suite.patterns.len() as f64);
                            row.push(if r.timed_out {
                                format!(">{}*", format_duration(avg))
                            } else {
                                format_duration(avg)
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
        println!("peak memory so far: {}\n", peak_rss());
    }
    Ok(())
}
