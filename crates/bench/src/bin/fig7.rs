//! Fig. 7: edge-induced vs vertex-induced on the RoadCA-like graph —
//! (a) number of embeddings, (b) total time, (c) throughput, per pattern
//! size. Reproduces Finding 6: neither variant is uniformly easier; the
//! edge-induced variant has higher throughput but can have far more
//! embeddings.

use csce_bench::{env_param, partial, run_csce, BenchContext, Table, UsageError, PARTIAL_NOTE};
use csce_datasets::{presets, sample_suite};
use csce_graph::{Density, Variant};
use std::time::Duration;

fn main() -> Result<(), UsageError> {
    let limit = Duration::from_secs(env_param("CSCE_TIME_LIMIT", 10)? as u64);
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let ds = presets::roadca();
    println!("Fig. 7 — edge- vs vertex-induced on {} ({})\n", ds.name, ds.stats());
    let ctx = BenchContext::new(ds.name, ds.graph);
    let sizes = [4usize, 8, 16, 32];
    let suites = sample_suite(&ctx.graph, &sizes, &[Density::Sparse], repeats, 0xF17);

    let mut t = Table::new(&[
        "size",
        "E embeddings",
        "V embeddings",
        "E time",
        "V time",
        "E throughput/s",
        "V throughput/s",
    ]);
    for suite in &suites {
        if suite.patterns.is_empty() {
            continue;
        }
        // Per variant: (count, time, throughput) cells, each marked when a
        // run clamped, since its count is then partial.
        let [e, v] = [Variant::EdgeInduced, Variant::VertexInduced].map(|variant| {
            let (mut count, mut secs, mut timed_out) = (0u64, 0f64, false);
            for p in &suite.patterns {
                let r = run_csce(&ctx, p, variant, limit);
                count += r.count;
                secs += r.seconds;
                timed_out |= r.timed_out;
            }
            let (count, secs) =
                (count / suite.patterns.len() as u64, secs / suite.patterns.len() as f64);
            let throughput =
                if secs > 0.0 { format!("{:.0}", count as f64 / secs) } else { "inf".into() };
            [count.to_string(), format!("{secs:.3}s"), throughput].map(|c| partial(c, timed_out))
        });
        let ([e_count, e_time, e_tput], [v_count, v_time, v_tput]) = (e, v);
        t.row(vec![suite.size.to_string(), e_count, v_count, e_time, v_time, e_tput, v_tput]);
    }
    t.print();
    println!("\n{PARTIAL_NOTE}");
    println!(
        "\nExpected shape (paper): edge-induced counts dominate on larger patterns,\n\
         so the vertex-induced variant can be *faster* in total time while the\n\
         edge-induced variant keeps the higher throughput (Finding 6)."
    );
    Ok(())
}
