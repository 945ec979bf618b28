//! Criterion micro-bench: plan generation (GCF + DAG + NEC + tree) per
//! pattern size and variant — the Fig. 10 hot path, up to 2000-vertex
//! sparse patterns and a 2000-leaf star, where GCF's frontier is widest,
//! over 50 labels, plus a 500- and a 2000-vertex pattern over a
//! Patent-shaped graph with 2000 labels (Fig. 10's own graph): the 500
//! is the largest pattern of the `large-hetero` benchmark workload, and
//! at 2000 a vertex-induced `H` meets ~1400 pattern labels.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_ccsr::{build_ccsr, read_csr};
use csce_core::{Catalog, Planner, PlannerConfig};
use csce_graph::generate::{chung_lu, randomize_vertex_labels};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Graph, GraphBuilder, Variant, NO_LABEL};

/// A star of `leaves` undirected leaves whose labels cycle through
/// `labels` data labels, so its edges read real clusters.
fn star(leaves: u32, labels: u32) -> Graph {
    let mut b = GraphBuilder::new();
    let center = b.add_vertex(0);
    for l in 0..leaves {
        let leaf = b.add_vertex(l % labels);
        b.add_undirected_edge(center, leaf, NO_LABEL).unwrap();
    }
    b.build()
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    group.sample_size(20);
    let g = chung_lu(10_000, 44_000, 2.6, 50, 0, false, 5);
    let gc = build_ccsr(&g).unwrap();
    let mut sampler = PatternSampler::new(&g, 13);
    let mut patterns: Vec<(String, Graph)> = Vec::new();
    for size in [8usize, 64, 256, 2000] {
        if let Some(sp) = sampler.sample(size, Density::Sparse) {
            patterns.push((format!("size{size}"), sp.pattern));
        }
    }
    patterns.push(("star2000".to_string(), star(2000, 50)));
    let patent = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 5), 2000, 5);
    let patent_gc = build_ccsr(&patent).unwrap();
    let mut patent_patterns = Vec::new();
    for size in [500usize, 2000] {
        if let Some(sp) = PatternSampler::new(&patent, 13).sample(size, Density::Sparse) {
            patent_patterns.push((format!("labels2000_size{size}"), sp.pattern));
        }
    }
    for (gc, patterns) in [(&gc, &patterns), (&patent_gc, &patent_patterns)] {
        for (name, pattern) in patterns {
            for variant in Variant::ALL {
                let star = read_csr(gc, pattern, variant);
                let catalog = Catalog::new(pattern, &star);
                group.bench_function(format!("{name}_{}", variant.tag()), |b| {
                    b.iter(|| Planner::new(PlannerConfig::csce()).plan(&catalog, variant))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
