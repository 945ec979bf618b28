//! Criterion micro-bench: Algorithm 1 (`ReadCSR`) — cluster selection per
//! pattern and variant, the online read stage whose overhead Fig. 11
//! studies.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_ccsr::{build_ccsr, read_csr};
use csce_graph::generate::chung_lu;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};

fn bench_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_csr");
    for labels in [20u32, 200] {
        let g = chung_lu(10_000, 44_000, 2.6, labels, 0, false, 7);
        let gc = build_ccsr(&g).unwrap();
        let mut sampler = PatternSampler::new(&g, 11);
        for size in [8usize, 32] {
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
