//! Fig. 11: CCSR overhead — ReadCSR (cluster selection) time and the
//! bytes of the clusters it selects, varying the number of data-graph
//! labels (20 / 200 / 2000 on the Patent-like graph) and the pattern
//! size. Only clusters a pattern uses are selected, and none is copied,
//! so both metrics track the pattern, not the graph (Finding 11).

use csce_bench::{format_bytes, Table};
use csce_ccsr::{build_ccsr, read_csr};
use csce_datasets::presets;
use csce_graph::generate::randomize_vertex_labels;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};
use std::time::Instant;

fn main() {
    let base = presets::patent();
    let sizes = [3usize, 4, 8, 32, 128, 500, 2000];
    println!("Fig. 11 — CCSR read time and working-set bytes (Patent-like, edge-induced)\n");
    let mut t = Table::new(&["labels", "pattern", "read time", "clusters", "working set"]);
    for labels in [20u32, 200, 2000] {
        let g = randomize_vertex_labels(&base.graph, labels, 0xF11);
        let gc = build_ccsr(&g).unwrap();
        let mut sampler = PatternSampler::new(&g, 0xF11);
        for &size in &sizes {
            let Some(sp) = sampler.sample(size, Density::Sparse) else {
                continue;
            };
            let t0 = Instant::now();
            let star = read_csr(&gc, &sp.pattern, Variant::EdgeInduced);
            let elapsed = t0.elapsed();
            t.row(vec![
                labels.to_string(),
                size.to_string(),
                format!("{:.2}ms", elapsed.as_secs_f64() * 1e3),
                star.cluster_count().to_string(),
                format_bytes(star.heap_bytes()),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shape (paper): more labels -> smaller clusters -> reads grow\n\
         with pattern size but stay well within budget."
    );
}
