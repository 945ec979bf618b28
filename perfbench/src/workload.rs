//! The three workloads: their data graphs, their seeded query sets and
//! how each query is executed.
//!
//! Every workload is a closed loop with one client: the next query is
//! sent only after the previous one returned. The data graphs are fixed
//! (they are the offline input the engine indexes once); `--seed` drives
//! only pattern sampling, and the engine receives nothing but the
//! generated graphs and patterns.
//!
//! Sizes are chosen so that a 20-second run repeats each seed's query set
//! several times and holds dozens to hundreds of distinct patterns: query
//! costs spread over two to three orders of magnitude, so a run's median is
//! only steady from seed to seed when it covers many patterns, and each
//! query's fastest repetition is only steady when it has several.

use csce_datasets::{presets, sample_suite};
use csce_graph::generate::{chung_lu, randomize_vertex_labels, road_grid};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Graph, Variant};
use std::time::Duration;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Patent-shaped D16/S16/D32, edge-induced factorized counting: the
    /// time is in the executor's search tree, so plan quality and
    /// executor speed show here.
    PlanQuality,
    /// Patent relabelled to 2000 labels with 64–500-vertex sparse
    /// patterns under every variant: `read_csr`, planning and
    /// `build_ccsr` dominate, execution is near zero.
    LargeHetero,
    /// RoadCA-shaped S8 and DIP-shaped D5, vertex- and edge-induced,
    /// every embedding collected on up to two workers: no factorization,
    /// negation clusters, real scheduler and sink work.
    EnumInduced,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PlanQuality, Workload::LargeHetero, Workload::EnumInduced];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanQuality => "plan-quality",
            Workload::LargeHetero => "large-hetero",
            Workload::EnumInduced => "enum-induced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark, `Smoke` shrinks every graph and
/// pattern so the benchmark's own tests run in seconds on the same code
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How a query's answer is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Factorized counting (`Engine::run`), one thread.
    Count,
    /// Every embedding collected through the collect sink
    /// (`Engine::collect_parallel`).
    Collect,
}

/// Execution settings of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub mode: Mode,
    pub threads: usize,
    /// Per-query limit; a query that hits it counts as failed. Set far
    /// above the slowest admitted query, so no query fails.
    pub time_limit: Duration,
    /// Admit a sampled query only if the CSCE plan answers it within this
    /// many recursion nodes on one thread (`None` admits every query). A
    /// work budget, unlike a time limit, admits the same queries on every
    /// machine and every run.
    pub admit_nodes: Option<u64>,
    /// Limit for the RI baseline's reference count.
    pub baseline_budget: Duration,
    /// Limit for the `ri_cluster` fallback reference count.
    pub reference_budget: Duration,
}

impl Workload {
    pub fn spec(self) -> Spec {
        match self {
            // About a third of the sampled plan-quality queries need more
            // than 2^17 nodes under the current LDSF plans (seconds, some of
            // them). They are left out rather than timed out: a timeout
            // depends on the machine's speed at that moment, so the failed
            // share would differ from run to run.
            Workload::PlanQuality => Spec {
                mode: Mode::Count,
                threads: 1,
                time_limit: Duration::from_secs(10),
                admit_nodes: Some(1 << 17),
                baseline_budget: Duration::from_millis(20),
                reference_budget: Duration::from_millis(200),
            },
            Workload::LargeHetero => Spec {
                mode: Mode::Count,
                threads: 1,
                time_limit: Duration::from_secs(10),
                admit_nodes: None,
                baseline_budget: Duration::from_secs(1),
                reference_budget: Duration::from_secs(2),
            },
            Workload::EnumInduced => Spec {
                mode: Mode::Collect,
                threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
                time_limit: Duration::from_secs(10),
                admit_nodes: None,
                baseline_budget: Duration::from_millis(500),
                reference_budget: Duration::from_secs(2),
            },
        }
    }
}

/// A named data graph of a workload.
pub struct DataGraph {
    pub name: &'static str,
    pub graph: Graph,
}

/// The Patent preset's generator (power law, 20 labels, average degree
/// 8.8) at `1/div` of its vertices and edges.
fn patent_shaped(div: usize) -> Graph {
    chung_lu(20_000 / div, 88_000 / div, 2.6, 20, 0, false, 0x9A7E)
}

/// Generate the workload's data graphs (deterministic; seed-independent).
pub fn data_graphs(w: Workload, scale: Scale) -> Vec<DataGraph> {
    let full = scale == Scale::Full;
    match w {
        // A quarter of the Patent preset: on the full preset most D16/S16/
        // D32 queries run for seconds, too few fit in a run to be steady.
        Workload::PlanQuality => {
            vec![DataGraph { name: "Patent", graph: patent_shaped(if full { 4 } else { 40 }) }]
        }
        Workload::LargeHetero => {
            let (base, labels) =
                if full { (presets::patent().graph, 2000) } else { (patent_shaped(10), 200) };
            let graph = randomize_vertex_labels(&base, labels, 0xF10);
            vec![DataGraph { name: "Patent-2000", graph }]
        }
        // The RoadCA and DIP presets' generators at about 1/40 and 1/8 of
        // their vertices: on the full presets one query collects millions
        // of embeddings (seconds and hundreds of MB each).
        Workload::EnumInduced => {
            let (side, dip_n) = if full { (24, 150) } else { (10, 40) };
            let road = road_grid(side, side, 0.7, 0x40AD);
            let dip = chung_lu(dip_n, dip_n * 89 / 20, 2.5, 0, 0, false, 0xD1F);
            vec![DataGraph { name: "RoadCA", graph: road }, DataGraph { name: "DIP", graph: dip }]
        }
    }
}

/// One query of the closed loop.
pub struct Query {
    /// `<data graph>/<config>/p<i>/<variant tag>`, stable for a seed.
    pub name: String,
    /// Index into the workload's data graphs.
    pub data: usize,
    pub pattern: Graph,
    pub variant: Variant,
}

/// Derive an independent sampler seed per (run seed, purpose) so two
/// purposes of neighbouring run seeds never share a random stream.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sample the query set of one run from `seed`.
pub fn queries(w: Workload, graphs: &[DataGraph], seed: u64, scale: Scale) -> Vec<Query> {
    let full = scale == Scale::Full;
    let mut out = Vec::new();
    match w {
        Workload::PlanQuality => {
            let per = if full { 300 } else { 2 };
            let (small, large) = if full { (16, 32) } else { (6, 8) };
            let e = [Variant::EdgeInduced];
            push_suite(&mut out, graphs, 0, (small, Density::Dense), per, mix(seed, 1), &e);
            push_suite(&mut out, graphs, 0, (small, Density::Sparse), per, mix(seed, 2), &e);
            push_suite(&mut out, graphs, 0, (large, Density::Dense), per, mix(seed, 3), &e);
        }
        Workload::LargeHetero => {
            let (sizes, per): (&[usize], _) =
                if full { (&[64, 128, 256, 500], 12) } else { (&[8, 16], 1) };
            let mut sampler = PatternSampler::new(&graphs[0].graph, mix(seed, 4));
            for &size in sizes {
                for i in 0..per {
                    let Some(sp) = sampler.sample(size, Density::Sparse) else { continue };
                    for variant in Variant::ALL {
                        out.push(Query {
                            name: format!("{}/S{size}/p{i}/{}", graphs[0].name, variant.tag()),
                            data: 0,
                            pattern: sp.pattern.clone(),
                            variant,
                        });
                    }
                }
            }
        }
        Workload::EnumInduced => {
            // Unlabelled S8 trees and D5 graphs come in few shapes; a large
            // request makes every seed cover nearly all of them.
            let per = if full { 1000 } else { 2 };
            let (road_size, dip_size) = if full { (8, 5) } else { (5, 4) };
            let both = [Variant::VertexInduced, Variant::EdgeInduced];
            push_suite(&mut out, graphs, 0, (road_size, Density::Sparse), per, mix(seed, 5), &both);
            push_suite(&mut out, graphs, 1, (dip_size, Density::Dense), per, mix(seed, 6), &both);
        }
    }
    // Interleave configurations and variants, so a run that ends
    // mid-pass still sees the whole mix (Fisher–Yates on the seed).
    for i in (1..out.len()).rev() {
        let j = mix(seed, 8 + i as u64) % (i as u64 + 1);
        out.swap(i, j as usize);
    }
    out
}

/// Sample up to `per` distinct patterns of one `(size, density)`
/// configuration from data graph `data` and queue each under every given
/// variant.
fn push_suite(
    out: &mut Vec<Query>,
    graphs: &[DataGraph],
    data: usize,
    (size, density): (usize, Density),
    per: usize,
    seed: u64,
    variants: &[Variant],
) {
    for suite in sample_suite(&graphs[data].graph, &[size], &[density], per, seed) {
        for (i, p) in suite.patterns.iter().enumerate() {
            for &variant in variants {
                out.push(Query {
                    name: format!("{}/{}/p{i}/{}", graphs[data].name, suite.name, variant.tag()),
                    data,
                    pattern: p.clone(),
                    variant,
                });
            }
        }
    }
}
