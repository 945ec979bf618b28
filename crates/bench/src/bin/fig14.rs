//! Fig. 14: less effective scenarios on the DIP-like graph —
//! (a) symmetry breaking's benefit on small patterns (sizes 3–9) and its
//! optimization-cost blowup on larger ones (Finding 2);
//! (b) CSCE throughput across pattern densities (denser patterns reduce
//! SCE but CSCE stays ahead of the baselines).

use csce_baselines::symmetry::SymmetryBreaking;
use csce_bench::{
    env_param, mean_secs, partial, run_all, run_baseline, run_csce, AlgoResult, BenchContext,
    Table, UsageError, PARTIAL_NOTE,
};
use csce_datasets::{presets, sample_suite};
use csce_graph::{classify_density, Density, Variant};
use std::time::{Duration, Instant};

fn main() -> Result<(), UsageError> {
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 10)? as u64);
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let ds = presets::dip();
    println!("Fig. 14 — DIP-like graph ({})\n", ds.stats());
    let ctx = BenchContext::new(ds.name, ds.graph);

    // (a) symmetry breaking on small-to-large patterns: restriction
    // generation time vs total time vs CSCE.
    println!("(a) symmetry breaking vs CSCE, edge-induced, sparse patterns");
    let mut t = Table::new(&["size", "SB restr-gen", "SB total", "CSCE total", "|Aut|"]);
    for size in [3usize, 4, 5, 8, 9] {
        let suites = sample_suite(&ctx.graph, &[size], &[Density::Sparse], repeats, 0xF14);
        let suite = &suites[0];
        if suite.patterns.is_empty() {
            continue;
        }
        let (mut gen_s, mut aut_sum) = (0.0f64, 0u64);
        let (mut sb, mut csce) = (Vec::new(), Vec::new());
        for p in &suite.patterns {
            let t0 = Instant::now();
            let (_, aut) = SymmetryBreaking::restrictions_of(p);
            gen_s += t0.elapsed().as_secs_f64();
            aut_sum += aut;
            let r = run_baseline(&ctx, &SymmetryBreaking, p, Variant::EdgeInduced, limit);
            sb.push((r.seconds, r.timed_out));
            let c = run_csce(&ctx, p, Variant::EdgeInduced, limit);
            csce.push((c.seconds, c.timed_out));
        }
        let n = suite.patterns.len() as f64;
        t.row(vec![
            size.to_string(),
            format!("{:.4}s", gen_s / n),
            mean_secs(sb),
            mean_secs(csce),
            format!("{:.1}", aut_sum as f64 / n),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): SB helps only on small symmetric patterns and\n\
         its optimization does not scale to 8+ vertices (Finding 2).\n"
    );

    // Finding 2's blowup made explicit: restriction generation enumerates
    // the automorphism group, which is factorial on symmetric patterns.
    println!("(a') symmetry-breaking optimization cost on symmetric (star) patterns");
    let mut t = Table::new(&["star size", "|Aut|", "restriction-gen time"]);
    for n in [6usize, 8, 10, 11] {
        let mut b = csce_graph::GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        for leaf in 1..n as u32 {
            b.add_undirected_edge(0, leaf, csce_graph::NO_LABEL).unwrap();
        }
        let star = b.build();
        let t0 = Instant::now();
        let (_, aut) = SymmetryBreaking::restrictions_of(&star);
        t.row(vec![n.to_string(), aut.to_string(), format!("{:.3}s", t0.elapsed().as_secs_f64())]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): factorial growth — why CSCE skips symmetry\n\
         breaking for large patterns (Finding 2).\n"
    );

    // (b) throughput vs pattern density.
    println!("(b) CSCE throughput by pattern density, edge-induced, size 8");
    let mut t = Table::new(&["pattern", "avg-degree", "CSCE tput/s", "best-baseline tput/s"]);
    let tput = |r: &AlgoResult| {
        let per_s = if r.seconds > 0.0 { r.count as f64 / r.seconds } else { 0.0 };
        (per_s, r.timed_out)
    };
    for density in [Density::Sparse, Density::Dense] {
        let suites = sample_suite(&ctx.graph, &[8], &[density], repeats, 0xF14B);
        for suite in &suites {
            for p in &suite.patterns {
                let results = run_all(&ctx, p, Variant::EdgeInduced, limit);
                let (csce_tput, csce_clamped) = tput(&results[0]);
                let (best_tput, best_clamped) = results[1..]
                    .iter()
                    .map(tput)
                    .fold((0.0f64, false), |best, r| if r.0 > best.0 { r } else { best });
                t.row(vec![
                    format!("{}{}", classify_density(p).letter(), p.n()),
                    format!("{:.2}", p.average_degree()),
                    partial(format!("{csce_tput:.0}"), csce_clamped),
                    partial(format!("{best_tput:.0}"), best_clamped),
                ]);
            }
        }
    }
    t.print();
    println!("\n{PARTIAL_NOTE}");
    println!(
        "\nExpected shape (paper): throughput drops on denser patterns but CSCE\n\
         stays above the baselines."
    );
    Ok(())
}
