//! Fig. 12: SCE occurrence — the percentage of pattern vertices whose
//! candidates are sequentially equivalent to an earlier vertex's, per
//! pattern size, in the edge-induced and homomorphic variants, plus the
//! cluster-driven share (the paper's sub-bars) and the vertex-induced
//! case where *all* SCE is cluster-driven (Finding 12).

use csce_bench::{env_param, Table, UsageError};
use csce_core::{Engine, PlannerConfig, SceAnalysis};
use csce_datasets::presets;
use csce_graph::generate::randomize_vertex_labels;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};
use csce_obs::Recorder;

fn main() -> Result<(), UsageError> {
    let repeats = env_param("CSCE_REPEATS", 5)?;
    let ds = presets::patent();
    println!("Fig. 12 — SCE occurrence on {} ({})\n", ds.name, ds.stats());
    let sizes = [8usize, 16, 32, 50, 100, 150, 200];

    let mut t = Table::new(&["labels", "size", "E sce%", "E cluster-share%", "H sce%", "V sce%"]);
    // With 20 labels every label pair co-occurs in the data, so no
    // independence is cluster-driven; the 200-label series shows the
    // cluster contribution that rarer label pairs unlock.
    for labels in [20u32, 200] {
        let g = if labels == 20 {
            ds.graph.clone()
        } else {
            randomize_vertex_labels(&ds.graph, labels, 0xF12)
        };
        let engine = Engine::build(&g);
        let recorder = Recorder::disabled();
        let mut sampler = PatternSampler::new(&g, 0xF12);
        for size in sizes {
            let patterns: Vec<_> = sampler
                .sample_many(repeats, size, Density::Sparse)
                .into_iter()
                .map(|s| s.pattern)
                .collect();
            if patterns.is_empty() {
                continue;
            }
            let mut row = vec![labels.to_string(), size.to_string()];
            for variant in [Variant::EdgeInduced, Variant::Homomorphic, Variant::VertexInduced] {
                let (mut sce, mut cluster) = (0.0f64, 0.0f64);
                for p in &patterns {
                    let query = engine
                        .prepare(p, variant, PlannerConfig::csce(), &recorder)
                        .expect("sampled patterns are connected");
                    let analysis = SceAnalysis::of(&query.catalog(), query.plan());
                    sce += analysis.sce_fraction();
                    cluster += analysis.cluster_pair_fraction();
                }
                let n = patterns.len() as f64;
                row.push(format!("{:.0}%", 100.0 * sce / n));
                if variant == Variant::EdgeInduced {
                    row.push(format!("{:.0}%", 100.0 * cluster / n));
                }
            }
            t.row(row);
        }
    }
    t.print();
    println!(
        "\nExpected shape (paper): ~51% SCE in edge-induced, ~58% in homomorphic;\n\
         the cluster share shrinks as patterns grow; vertex-induced SCE is rarer\n\
         and entirely cluster-driven."
    );
    Ok(())
}
