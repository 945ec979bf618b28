//! Criterion micro-benches: end-to-end matching (read + plan + count) per
//! variant on a labeled power-law graph — the workload behind Fig. 6 — and
//! collecting every embedding, sorted, on an unlabelled DIP-shaped graph.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_core::{Engine, PlannerConfig, RunConfig};
use csce_graph::generate::chung_lu;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    let g = chung_lu(3_000, 13_000, 2.5, 30, 0, false, 9);
    let engine = Engine::build(&g);
    let mut sampler = PatternSampler::new(&g, 21);
    for (size, density) in [(8usize, Density::Sparse), (8, Density::Dense), (16, Density::Sparse)] {
        let Some(sp) = sampler.sample(size, density) else { continue };
        for variant in Variant::ALL {
            group.bench_function(format!("{}{}_{}", density.letter(), size, variant.tag()), |b| {
                b.iter(|| {
                    engine.run(
                        std::hint::black_box(&sp.pattern),
                        variant,
                        PlannerConfig::csce(),
                        RunConfig::default(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// `Engine::collect_parallel` (read + plan + collect + sort) of D5
/// patterns on an unlabelled DIP-shaped graph, both induced variants, on 1
/// and 2 workers: the path `csce match --enumerate` takes.
fn bench_collect(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect");
    group.sample_size(10);
    let g = chung_lu(150, 150 * 89 / 20, 2.5, 0, 0, false, 0xD1F);
    let engine = Engine::build(&g);
    if let Some(sp) = PatternSampler::new(&g, 5).sample(5, Density::Dense) {
        for variant in [Variant::EdgeInduced, Variant::VertexInduced] {
            for threads in [1usize, 2] {
                let name = format!("D5_{}_t{threads}", variant.tag());
                group.bench_function(name, |b| {
                    b.iter(|| {
                        engine.collect_parallel(
                            std::hint::black_box(&sp.pattern),
                            variant,
                            threads,
                            RunConfig::default(),
                        )
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matching, bench_collect);
criterion_main!(benches);
