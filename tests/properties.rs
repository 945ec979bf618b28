//! Property-based tests (proptest) over the core data structures and
//! engine invariants.

use csce::ccsr::{build_ccsr, persist, read_csr};
use csce::engine::{Catalog, Engine, Planner, PlannerConfig, RunConfig};
use csce::graph::oracle::oracle_count;
use csce::graph::{Graph, GraphBuilder, Variant, NO_LABEL};
use proptest::prelude::*;

/// Strategy: a random small heterogeneous graph.
fn arb_graph(
    max_n: usize,
    max_m: usize,
    labels: u32,
    directed: bool,
) -> impl Strategy<Value = Graph> {
    (2..=max_n, proptest::collection::vec((0u32..100, 0u32..100, 0u32..labels.max(1)), 0..max_m))
        .prop_map(move |(n, raw_edges)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(if labels == 0 { NO_LABEL } else { (i as u32) % labels });
            }
            for (x, y, _l) in raw_edges {
                let (a, c) = ((x as usize % n) as u32, (y as usize % n) as u32);
                if a == c {
                    continue;
                }
                if directed {
                    let _ = b.add_edge(a, c, NO_LABEL);
                } else {
                    let _ = b.add_undirected_edge(a, c, NO_LABEL);
                }
            }
            b.build()
        })
}

/// Strategy: a random connected pattern (path/tree-like with extras).
fn arb_pattern(labels: u32) -> impl Strategy<Value = Graph> {
    (2usize..=5, proptest::collection::vec((0u32..100, 0u32..100), 0..4)).prop_map(
        move |(n, extras)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(if labels == 0 { NO_LABEL } else { (i as u32) % labels });
            }
            for i in 1..n {
                let _ = b.add_undirected_edge(i as u32 - 1, i as u32, NO_LABEL);
            }
            for (x, y) in extras {
                let (a, c) = ((x as usize % n) as u32, (y as usize % n) as u32);
                if a != c {
                    let _ = b.add_undirected_edge(a, c, NO_LABEL);
                }
            }
            b.build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row indexes over one cluster with arbitrary row occupancy serve
    /// every row exactly, convert losslessly to the on-disk runs and back,
    /// and stay within the paper's `I_R ≤ 4 · I_C` bound.
    #[test]
    fn csr_compression_roundtrip(
        n in 1usize..200,
        pairs in proptest::collection::vec((0u32..200, 0u32..200), 0..300),
    ) {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        let mut rows = vec![std::collections::BTreeSet::new(); n];
        for (r, c) in pairs {
            let (r, c) = (r % n as u32, c % n as u32);
            if r != c && b.add_edge(r, c, NO_LABEL).is_ok() {
                rows[r as usize].insert(c);
            }
        }
        let gc = build_ccsr(&b.build()).unwrap();
        let bytes = persist::to_bytes(&gc).unwrap();
        let back = persist::from_bytes(&bytes).unwrap();
        prop_assert!(persist::to_bytes(&back).unwrap() == bytes);
        for cluster in back.clusters() {
            for (v, want) in rows.iter().enumerate() {
                let want: Vec<u32> = want.iter().copied().collect();
                prop_assert_eq!(cluster.out_neighbors(v as u32), &want[..]);
            }
        }
        prop_assert!(back.total_ir_len() <= 4 * back.total_ic_len());
    }

    /// Clustering partitions the edge multiset: every edge in exactly one
    /// cluster, arc totals 2|E|.
    #[test]
    fn ccsr_is_an_edge_partition(g in arb_graph(20, 60, 3, false)) {
        let gc = build_ccsr(&g).unwrap();
        let total_edges: usize = gc.clusters().map(|c| c.edge_count()).sum();
        prop_assert_eq!(total_edges, g.m());
        prop_assert_eq!(gc.total_ic_len(), 2 * g.m());
        prop_assert!(gc.total_ir_len() <= 4 * 2 * g.m() + 2 * gc.cluster_count());
    }

    /// Persistence round-trips the clustered graph.
    #[test]
    fn ccsr_persist_roundtrip(g in arb_graph(15, 40, 4, true)) {
        let gc = build_ccsr(&g).unwrap();
        let back = persist::from_bytes(&persist::to_bytes(&gc).unwrap()).unwrap();
        prop_assert_eq!(back.n(), gc.n());
        prop_assert_eq!(back.cluster_count(), gc.cluster_count());
        prop_assert_eq!(back.vertex_labels(), gc.vertex_labels());
        prop_assert!(persist::to_bytes(&back).unwrap() == persist::to_bytes(&gc).unwrap());
        for c in gc.clusters() {
            let other = back.cluster(&c.key).expect("cluster survives");
            for v in 0..gc.n() as u32 {
                prop_assert_eq!(other.out_neighbors(v), c.out_neighbors(v));
                prop_assert_eq!(other.in_neighbors(v), c.in_neighbors(v));
            }
        }
    }

    /// Plans are topological permutations of the dependency DAG.
    #[test]
    fn plan_is_topological_permutation(
        g in arb_graph(15, 40, 3, false),
        p in arb_pattern(3),
        variant_idx in 0usize..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..p.n() as u32).collect::<Vec<_>>());
        let pos = |u: u32| plan.order.iter().position(|&w| w == u);
        for u in 0..p.n() as u32 {
            for &child in plan.dag.children(u) {
                prop_assert!(pos(u) < pos(child));
            }
        }
    }

    /// The engine count equals the brute-force oracle for every variant.
    #[test]
    fn engine_matches_oracle(
        g in arb_graph(12, 30, 2, false),
        p in arb_pattern(2),
        variant_idx in 0usize..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let engine = Engine::build(&g);
        prop_assert_eq!(engine.count(&p, variant), oracle_count(&g, &p, variant));
    }

    /// Factorized counting and the SCE cache never change results.
    #[test]
    fn runtime_toggles_preserve_counts(
        g in arb_graph(14, 35, 2, true),
        p in arb_pattern(2),
        variant_idx in 0usize..3,
    ) {
        let variant = Variant::ALL[variant_idx];
        let engine = Engine::build(&g);
        let reference = engine.count(&p, variant);
        for (cache, factorize) in [(false, false), (false, true), (true, false)] {
            let run = RunConfig { use_sce_cache: cache, factorize, ..RunConfig::default() };
            let out = engine.run(&p, variant, PlannerConfig::csce(), run);
            prop_assert_eq!(out.count, reference);
        }
    }

    /// Variant inclusion: vertex-induced embeddings are a subset of
    /// edge-induced, which are a subset of homomorphic.
    #[test]
    fn variant_count_ordering(
        g in arb_graph(12, 30, 2, false),
        p in arb_pattern(2),
    ) {
        let engine = Engine::build(&g);
        let v = engine.count(&p, Variant::VertexInduced);
        let e = engine.count(&p, Variant::EdgeInduced);
        let h = engine.count(&p, Variant::Homomorphic);
        prop_assert!(v <= e, "vertex-induced {} <= edge-induced {}", v, e);
        prop_assert!(e <= h, "edge-induced {} <= homomorphic {}", e, h);
    }

    /// The pattern DSL writer round-trips arbitrary graphs exactly.
    #[test]
    fn query_dsl_roundtrip(g in arb_graph(10, 25, 4, true)) {
        let rendered = csce::graph::query::to_query_string(&g);
        let back = csce::graph::query::parse_pattern(&rendered).unwrap();
        prop_assert_eq!(back.labels(), g.labels());
        prop_assert_eq!(back.edges(), g.edges());
    }

    /// WL codes are invariant under vertex relabeling (isomorphism by
    /// permutation).
    #[test]
    fn wl_code_permutation_invariant(
        g in arb_graph(10, 25, 3, false),
        seed in 0u64..1000,
    ) {
        use csce::graph::pattern::wl_code;
        // Build an isomorphic copy under a pseudo-random permutation.
        let n = g.n();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut b = GraphBuilder::new();
        let mut labels = vec![0u32; n];
        for v in 0..n {
            labels[perm[v] as usize] = g.label(v as u32);
        }
        for &l in &labels {
            b.add_vertex(l);
        }
        for e in g.edges() {
            if e.directed {
                b.add_edge(perm[e.src as usize], perm[e.dst as usize], e.label).unwrap();
            } else {
                b.add_undirected_edge(perm[e.src as usize], perm[e.dst as usize], e.label).unwrap();
            }
        }
        let h = b.build();
        prop_assert_eq!(wl_code(&g, 3), wl_code(&h, 3));
    }
}
