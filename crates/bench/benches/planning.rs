//! Criterion micro-bench: plan generation (GCF + DAG + NEC + tree) per
//! pattern size and variant — the Fig. 10 hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_ccsr::{build_ccsr, read_csr};
use csce_core::{Catalog, Planner, PlannerConfig};
use csce_graph::generate::chung_lu;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    group.sample_size(20);
    let g = chung_lu(10_000, 44_000, 2.6, 50, 0, false, 5);
    let gc = build_ccsr(&g).unwrap();
    let mut sampler = PatternSampler::new(&g, 13);
    for size in [8usize, 64, 256] {
        let Some(sp) = sampler.sample(size, Density::Sparse) else { continue };
        for variant in Variant::ALL {
            let star = read_csr(&gc, &sp.pattern, variant);
            let catalog = Catalog::new(&sp.pattern, &star);
            group.bench_function(format!("size{size}_{}", variant.tag()), |b| {
                b.iter(|| Planner::new(PlannerConfig::csce()).plan(&catalog, variant))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
