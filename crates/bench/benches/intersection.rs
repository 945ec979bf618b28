//! Criterion micro-bench: the sorted-set kernels every candidate
//! computation runs on — merge vs galloping intersection, subtraction,
//! and cluster row lookup in a dense and a sparse row index (the §IV
//! data-structure comparison).

use criterion::{criterion_group, criterion_main, Criterion};
use csce_ccsr::{build_ccsr, Ccsr, Cluster};
use csce_graph::util::{intersect_sorted, subtract_sorted};
use csce_graph::{GraphBuilder, NO_LABEL};

fn make_sorted(n: usize, stride: u32, offset: u32) -> Vec<u32> {
    (0..n as u32).map(|i| i * stride + offset).collect()
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    let a = make_sorted(1_000, 7, 0);
    let b = make_sorted(1_000, 11, 3);
    group.bench_function("balanced_1k_x_1k", |bench| {
        let mut out = Vec::new();
        bench
            .iter(|| intersect_sorted(std::hint::black_box(&a), std::hint::black_box(&b), &mut out))
    });
    let small = make_sorted(32, 997, 5);
    let large = make_sorted(100_000, 1, 0);
    group.bench_function("galloping_32_x_100k", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            intersect_sorted(std::hint::black_box(&small), std::hint::black_box(&large), &mut out)
        })
    });
    group.bench_function("subtract_1k_minus_1k", |bench| {
        bench.iter(|| {
            let mut x = a.clone();
            subtract_sorted(&mut x, std::hint::black_box(&b));
            x
        })
    });
    group.finish();
}

/// One unlabeled directed cluster over 100k vertices: five pseudo-random
/// arcs from every `stride`-th vertex.
fn one_cluster(stride: u32) -> Ccsr {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(100_000);
    for v in (0..100_000u32).step_by(stride as usize) {
        for i in 0..5u32 {
            // Duplicates and self-loops are rejected; a few arcs go missing.
            let _ = b.add_edge(v, (v ^ i).wrapping_mul(2654435761) % 100_000, NO_LABEL);
        }
    }
    build_ccsr(&b.build()).unwrap()
}

fn bench_row_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_lookup");
    // Every vertex has arcs: a dense index, O(1) rows. Every 100th: a
    // sparse index, rows by binary search.
    for (name, stride) in [("dense", 1), ("sparse", 100)] {
        let gc = one_cluster(stride);
        let cluster: &Cluster = gc.clusters().next().unwrap();
        group.bench_function(format!("{name}_row_access"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for v in (0..100_000u32).step_by(97) {
                    acc += cluster.out_neighbors(std::hint::black_box(v)).len();
                }
                acc
            })
        });
        group.bench_function(format!("{name}_row_binary_search"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for v in (0..100_000u32).step_by(97) {
                    let row = cluster.out_neighbors(v);
                    hits += usize::from(row.binary_search(&std::hint::black_box(v / 2)).is_ok());
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_intersect, bench_row_lookup);
criterion_main!(benches);
