//! Criterion micro-bench: Algorithm 1 (`ReadCSR`) — cluster selection per
//! pattern and variant, the online read stage whose overhead Fig. 11
//! studies. Edge-induced rows measure the per-edge key-index probes;
//! vertex-induced rows the walk over the label-pair CSR rows of the
//! pattern's labels. The last group reads a 500-vertex pattern from a
//! Patent-shaped graph with 2000 labels, where a vertex-induced read meets
//! ~450 pattern labels: ~10⁵ label-pair probes without the CSR, and ~10⁵
//! merge steps with a walk that merged each row against the pattern
//! labels, where the walk reads ~25k entries with one table read each.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_ccsr::{build_ccsr, read_csr};
use csce_graph::generate::{chung_lu, randomize_vertex_labels};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Graph, Variant};

fn bench_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_csr");
    let small =
        [20u32, 200].map(|labels| (labels, chung_lu(10_000, 44_000, 2.6, labels, 0, false, 7)));
    let patent = chung_lu(20_000, 88_000, 2.6, 20, 0, false, 7);
    let graphs: Vec<(u32, Graph, Vec<usize>)> = small
        .into_iter()
        .map(|(labels, g)| (labels, g, vec![8, 32]))
        .chain([(2000, randomize_vertex_labels(&patent, 2000, 7), vec![500])])
        .collect();
    for (labels, g, sizes) in &graphs {
        let gc = build_ccsr(g).unwrap();
        let mut sampler = PatternSampler::new(g, 11);
        for &size in sizes {
            let Some(sp) = sampler.sample(size, Density::Sparse) else { continue };
            for variant in [Variant::EdgeInduced, Variant::VertexInduced] {
                group.bench_function(format!("labels{labels}_size{size}_{}", variant.tag()), |b| {
                    b.iter(|| read_csr(std::hint::black_box(&gc), &sp.pattern, variant))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_read);
criterion_main!(benches);
