//! Criterion micro-bench: offline CCSR construction (clustering +
//! compression) and persistence, across graph shapes. The Patent graph
//! relabelled to 2000 labels (Fig. 10's graph) is the many-cluster regime:
//! about two edges per cluster.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use csce_ccsr::{build_ccsr, persist};
use csce_datasets::presets;
use csce_graph::generate::{chung_lu, randomize_vertex_labels, road_grid};
use csce_graph::Graph;

/// `presets::patent()` with 2000 random vertex labels, as `fig10` builds it.
fn patent_2000_labels() -> Graph {
    randomize_vertex_labels(&presets::patent().graph, 2000, 0xF10)
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccsr_build");
    let power_law = chung_lu(5_000, 22_000, 2.5, 20, 0, false, 1);
    group.bench_function("power_law_22k_edges_20_labels", |b| {
        b.iter(|| build_ccsr(std::hint::black_box(&power_law)))
    });
    let unlabeled = road_grid(80, 80, 0.7, 2);
    group.bench_function("road_9k_edges_unlabeled", |b| {
        b.iter(|| build_ccsr(std::hint::black_box(&unlabeled)))
    });
    let many_labels = chung_lu(5_000, 22_000, 2.5, 500, 0, false, 3);
    group.bench_function("power_law_22k_edges_500_labels", |b| {
        b.iter(|| build_ccsr(std::hint::black_box(&many_labels)))
    });
    let patent = patent_2000_labels();
    group.bench_function("patent_88k_edges_2000_labels", |b| {
        b.iter(|| build_ccsr(std::hint::black_box(&patent)))
    });
    group.finish();
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccsr_persist");
    let g = chung_lu(5_000, 22_000, 2.5, 20, 0, false, 1);
    let gc = build_ccsr(&g).unwrap();
    group.bench_function("encode", |b| b.iter(|| persist::to_bytes(std::hint::black_box(&gc))));
    for (name, g) in [("decode", g), ("decode_patent_88k_edges_2000_labels", patent_2000_labels())]
    {
        let bytes = persist::to_bytes(&build_ccsr(&g).unwrap()).unwrap();
        group.bench_function(name, |b| {
            b.iter_batched(
                || bytes.clone(),
                |bytes| persist::from_bytes(&bytes).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_persist);
criterion_main!(benches);
