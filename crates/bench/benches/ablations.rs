//! Criterion ablations of the design choices DESIGN.md calls out:
//! SCE candidate caching on/off, factorized counting on/off, CCSR cluster
//! tie-breaking on/off, NEC sharing on/off, and the LDSF reorder (Alg. 4,
//! off in CSCE's plan) on — each measured on the same workload so speedup
//! attribution is direct.

use criterion::{criterion_group, criterion_main, Criterion};
use csce_core::{Engine, PlannerConfig, RunConfig};
use csce_graph::generate::chung_lu;
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant};

fn run(engine: &Engine, p: &csce_graph::Graph, planner: PlannerConfig, run: RunConfig) -> u64 {
    engine.run(p, Variant::EdgeInduced, planner, run).count
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    let g = chung_lu(3_000, 13_000, 2.5, 30, 0, false, 9);
    let engine = Engine::build(&g);
    let mut sampler = PatternSampler::new(&g, 33);
    let Some(sp) = sampler.sample(12, Density::Sparse) else { return };
    let p = &sp.pattern;

    group.bench_function("full_csce", |b| {
        b.iter(|| run(&engine, p, PlannerConfig::csce(), RunConfig::default()))
    });
    group.bench_function("no_sce_cache", |b| {
        b.iter(|| {
            run(
                &engine,
                p,
                PlannerConfig::csce(),
                RunConfig { use_sce_cache: false, ..Default::default() },
            )
        })
    });
    group.bench_function("no_factorization", |b| {
        b.iter(|| {
            run(
                &engine,
                p,
                PlannerConfig::csce(),
                RunConfig { factorize: false, ..Default::default() },
            )
        })
    });
    group.bench_function("no_cluster_tiebreak_no_nec (plain RI plan)", |b| {
        b.iter(|| run(&engine, p, PlannerConfig::ri_only(), RunConfig::default()))
    });
    group.bench_function("no_nec (RI+Cluster plan)", |b| {
        b.iter(|| run(&engine, p, PlannerConfig::ri_cluster(), RunConfig::default()))
    });
    group.bench_function("ldsf (Alg. 4 reorder)", |b| {
        b.iter(|| run(&engine, p, PlannerConfig::ldsf(), RunConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
