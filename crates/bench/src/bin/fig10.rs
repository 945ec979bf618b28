//! Fig. 10: plan-generation scalability — time and peak memory of the
//! full optimization pipeline (ReadCSR + GCF + DAG + NEC + tree)
//! for pattern sizes up to 2000 on the Patent-like graph with 2000
//! randomly assigned vertex labels, per variant. Reproduces Finding 10
//! (plans for 2000-vertex patterns in bounded time; homomorphism cheapest
//! since it needs no injectivity bookkeeping).
//!
//! Each time is the fastest of `CSCE_REPEATS` preparations (default 3),
//! printed in milliseconds at microsecond resolution. The memory column is
//! the process's peak RSS so far, so it includes the binary and `G_C`.

use csce_bench::{env_param, peak_rss, Table, UsageError};
use csce_core::{Engine, PlannerConfig};
use csce_datasets::presets;
use csce_graph::generate::randomize_vertex_labels;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};
use csce_obs::Recorder;
use std::time::{Duration, Instant};

fn main() -> Result<(), UsageError> {
    let repeats = env_param("CSCE_REPEATS", 3)?;
    let ds = presets::patent();
    let g = randomize_vertex_labels(&ds.graph, 2000, 0xF10);
    println!(
        "Fig. 10 — plan generation time / peak memory on Patent + 2000 labels ({})\n",
        csce_graph::GraphStats::of(&g)
    );
    let engine = Engine::build(&g);
    let recorder = Recorder::disabled();
    let mut sampler = PatternSampler::new(&g, 0xF10);
    let sizes = [8usize, 16, 32, 64, 128, 200, 500, 1000, 2000];

    let mut t = Table::new(&["size", "E time", "V time", "H time", "peak mem"]);
    for size in sizes {
        let Some(sp) = sampler.sample(size, Density::Sparse) else {
            continue;
        };
        let mut cells = Vec::new();
        for variant in [Variant::EdgeInduced, Variant::VertexInduced, Variant::Homomorphic] {
            let mut fastest = Duration::MAX;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let query = engine
                    .prepare(&sp.pattern, variant, PlannerConfig::csce(), &recorder)
                    .expect("sampled patterns are connected");
                fastest = fastest.min(t0.elapsed());
                assert_eq!(query.plan().order.len(), size);
            }
            cells.push(format!("{:.3}ms", fastest.as_secs_f64() * 1e3));
        }
        cells.insert(0, size.to_string());
        cells.push(peak_rss());
        t.row(cells);
    }
    t.print();
    println!(
        "\nExpected shape (paper): all variants plan 2000-vertex patterns within\n\
         the budget; homomorphic plans fastest (no injectivity machinery)."
    );
    Ok(())
}
