//! Pinned plan shapes: a seeded corpus of 64–256-vertex sparse patterns
//! sampled from the Patent-shaped graph with 2000 random vertex labels
//! (the `large-hetero` shape), planned under every variant and planner
//! preset. Each plan is pinned by its slot count, its `H` edge count, its
//! tree's split count and a digest of `Φ*`, `H`'s parent rows, the cache
//! slots and the tree, so a refactor of plan assembly is checked to build
//! the same plans, bit for bit, without running a benchmark.
//!
//! When a plan changes on purpose, the failure prints the fresh lines;
//! they replace `fixtures/plan_shapes.txt` after review.

use csce_ccsr::{build_ccsr, read_csr};
use csce_core::plan::{ExecTree, Step};
use csce_core::{Catalog, Plan, Planner, PlannerConfig};
use csce_graph::generate::{chung_lu, randomize_vertex_labels};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Variant, VertexId};

const PINNED: &str = include_str!("fixtures/plan_shapes.txt");

/// 64-bit FNV-1a over a stream of `u64` words, each hashed as its eight
/// little-endian bytes: the same digest on every platform.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.word(x);
        }
    }
}

/// The digest of `Φ*`, `H`'s parent rows, the cache slots and the tree
/// (its program walked in preorder: `Seq` as its vertex, `Split` as its
/// component count, and the end of each component as a `Done` marker).
fn digest(plan: &Plan) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.words(plan.order.iter().map(|&u| u64::from(u)));
    for u in 0..plan.order.len() as VertexId {
        let parents = plan.dag.parents(u);
        h.word(parents.len() as u64);
        h.words(parents.iter().map(|&w| u64::from(w)));
    }
    h.words(plan.cache_slot.iter().map(|&s| u64::from(s)));
    digest_steps(&mut h, &plan.root, plan.root.steps());
    h.0
}

/// Hash one component slice of `tree`: a `Split` ends the slice, its
/// components hashed in turn; a slice that runs out ends in `Done`.
fn digest_steps(h: &mut Fnv, tree: &ExecTree, steps: &[Step]) {
    let mut rest = steps;
    while let Some((step, tail)) = rest.split_first() {
        match step {
            Step::Seq { u, .. } => h.word(u64::from(*u)),
            Step::Split { components } => {
                h.word(u64::MAX - 1 - components.len() as u64);
                for c in tree.components(components, tail) {
                    digest_steps(h, tree, c);
                }
                return;
            }
        }
        rest = tail;
    }
    h.word(u64::MAX);
}

/// One line per pattern, variant and preset.
fn fresh_lines() -> String {
    let g = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 0x5A9E), 2000, 3);
    let gc = build_ccsr(&g).expect("the generated graph is valid");
    let mut sampler = PatternSampler::new(&g, 0x5A9E);
    let mut out = String::new();
    for size in [64, 128, 256] {
        for i in 0..2 {
            let p = sampler.sample(size, Density::Sparse).expect("a sparse pattern").pattern;
            for variant in Variant::ALL {
                let star = read_csr(&gc, &p, variant);
                let catalog = Catalog::new(&p, &star);
                for config in PlannerConfig::ALL {
                    let plan = Planner::new(config).plan(&catalog, variant);
                    out.push_str(&format!(
                        "S{size}/p{i}/{}/{} slots={} dag_edges={} splits={} digest={:016x}\n",
                        variant.tag(),
                        config.name(),
                        plan.slot_count,
                        plan.dag.edge_count(),
                        plan.root.split_count(),
                        digest(&plan),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn plans_match_the_pinned_shapes() {
    let fresh = fresh_lines();
    if fresh != PINNED {
        let pinned: Vec<&str> = PINNED.lines().collect();
        let changed: Vec<&str> = fresh.lines().filter(|l| !pinned.contains(l)).collect();
        panic!(
            "{} plan line(s) differ from tests/fixtures/plan_shapes.txt:\n{}\n\n\
             fresh fixture:\n{fresh}",
            changed.len(),
            changed.join("\n"),
        );
    }
}
