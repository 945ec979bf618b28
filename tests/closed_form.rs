//! Validation against closed-form combinatorics: on complete graphs,
//! complete bipartite graphs and cycles, subgraph-matching counts have
//! textbook formulas. These are independent of every matcher
//! implementation in the workspace, so they catch correlated bugs the
//! cross-engine tests cannot.

use csce::engine::Engine;
use csce::graph::{Graph, GraphBuilder};
use csce::{Variant, NO_LABEL};

fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            b.add_undirected_edge(i, j, NO_LABEL).unwrap();
        }
    }
    b.build()
}

fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 - 1 {
        b.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
    }
    b.build()
}

fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(n);
    for i in 0..n as u32 {
        b.add_undirected_edge(i, (i + 1) % n as u32, NO_LABEL).unwrap();
    }
    b.build()
}

fn star(leaves: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(leaves + 1);
    for leaf in 1..=leaves as u32 {
        b.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
    }
    b.build()
}

fn complete_bipartite(a: usize, b_: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_unlabeled_vertices(a + b_);
    for i in 0..a as u32 {
        for j in 0..b_ as u32 {
            b.add_undirected_edge(i, a as u32 + j, NO_LABEL).unwrap();
        }
    }
    b.build()
}

/// A label-0 centre with `per_label` leaves of each label `1..=labels`,
/// and the pattern star with one leaf per label: the pattern has
/// `per_label^labels` edge-induced embeddings.
fn labeled_stars(labels: u32, per_label: usize) -> (Graph, Graph) {
    let mut g = GraphBuilder::new();
    let mut p = GraphBuilder::new();
    g.add_vertex(0);
    p.add_vertex(0);
    for l in 1..=labels {
        for _ in 0..per_label {
            let leaf = g.add_vertex(l);
            g.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let leaf = p.add_vertex(l);
        p.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
    }
    (g.build(), p.build())
}

fn falling(n: u64, k: u64) -> u64 {
    (0..k).map(|i| n - i).product()
}

#[test]
fn cliques_in_complete_graphs() {
    // Injective mappings of K_k into K_n: n falling-factorial k.
    for n in [5usize, 6, 7] {
        let engine = Engine::build(&clique(n));
        for k in 2..=4usize {
            let expected = falling(n as u64, k as u64);
            assert_eq!(engine.count(&clique(k), Variant::EdgeInduced), expected, "K{k} in K{n}");
            // In a complete graph every injective mapping is induced too.
            assert_eq!(engine.count(&clique(k), Variant::VertexInduced), expected);
        }
    }
}

#[test]
fn paths_in_complete_graphs() {
    // Edge-induced path mappings of P_k into K_n: any injective mapping
    // works -> n falling k. Homomorphic: walks of length k-1 on K_n:
    // n * (n-1)^(k-1).
    let n = 6usize;
    let engine = Engine::build(&clique(n));
    for k in 2..=4usize {
        assert_eq!(
            engine.count(&path(k), Variant::EdgeInduced),
            falling(n as u64, k as u64),
            "P{k} in K{n}"
        );
        let walks = (n as u64) * (n as u64 - 1).pow(k as u32 - 1);
        assert_eq!(engine.count(&path(k), Variant::Homomorphic), walks, "walks P{k} in K{n}");
    }
    // Induced paths (k >= 3) don't exist in a complete graph.
    assert_eq!(engine.count(&path(3), Variant::VertexInduced), 0);
}

#[test]
fn cycles_in_complete_graphs() {
    // C_k mappings into K_n: n falling k (every injective placement works).
    let n = 7usize;
    let engine = Engine::build(&clique(n));
    for k in [3usize, 4, 5] {
        assert_eq!(
            engine.count(&cycle(k), Variant::EdgeInduced),
            falling(n as u64, k as u64),
            "C{k} in K{n}"
        );
    }
    // Distinct subgraphs: C(n,k) * (k-1)!/2 ... via count_subgraphs:
    // mappings / |Aut(C_k)| = falling(n,k) / (2k).
    for k in [4usize, 5] {
        assert_eq!(
            engine.count_subgraphs(&cycle(k), Variant::EdgeInduced),
            Ok(falling(n as u64, k as u64) / (2 * k as u64)),
            "distinct C{k} subgraphs in K{n}"
        );
    }
}

#[test]
fn stars_in_stars_and_bipartite_graphs() {
    // S_l (center + l leaves) into S_L: center must map to center:
    // L falling l leaf arrangements.
    let engine = Engine::build(&star(5));
    for l in 2..=4usize {
        assert_eq!(
            engine.count(&star(l), Variant::EdgeInduced),
            falling(5, l as u64),
            "S{l} in S5"
        );
    }
    // Edges in K_{a,b}: 2ab mappings (each endpoint order).
    let (a, b) = (3usize, 4usize);
    let engine = Engine::build(&complete_bipartite(a, b));
    assert_eq!(engine.count(&path(2), Variant::EdgeInduced), 2 * (a * b) as u64);
    // Wedges (P3) in K_{a,b}: centers on either side:
    // a * b*(b-1) + b * a*(a-1).
    let expected = (a * b * (b - 1) + b * a * (a - 1)) as u64;
    assert_eq!(engine.count(&path(3), Variant::EdgeInduced), expected);
    // Triangles: none in a bipartite graph.
    assert_eq!(engine.count(&clique(3), Variant::EdgeInduced), 0);
    // 4-cycles in K_{a,b}: mappings = C4 placements alternating sides:
    // 2 * a(a-1) * b(b-1) (start side choice folded into mapping count:
    // total injective hom of C4 = 2*a(a-1)*b(b-1)... verify against the
    // oracle instead of trusting the derivation.
    let oracle =
        csce::graph::oracle_count(&complete_bipartite(a, b), &cycle(4), Variant::EdgeInduced);
    assert_eq!(engine.count(&cycle(4), Variant::EdgeInduced), oracle);
    assert_eq!(oracle, 2 * (a * (a - 1) * b * (b - 1)) as u64);
}

#[test]
fn homomorphisms_onto_a_single_edge() {
    // Hom count of any bipartite connected pattern into a single
    // undirected edge = 2 (the two 2-colorings).
    let mut gb = GraphBuilder::new();
    gb.add_unlabeled_vertices(2);
    gb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
    let engine = Engine::build(&gb.build());
    for p in [path(3), path(5), star(4), cycle(4)] {
        assert_eq!(engine.count(&p, Variant::Homomorphic), 2);
    }
    // Odd cycles have no homomorphism into an edge (not 2-colorable).
    assert_eq!(engine.count(&cycle(5), Variant::Homomorphic), 0);
}

#[test]
fn deep_pattern_recursion_is_safe() {
    // A 600-vertex path pattern exercises recursion depth in planning and
    // execution; count paths inside a 700-cycle (exactly 2*700 = 1400
    // edge-induced mappings of P600 in C700... every mapping walks the
    // cycle one way or the other from any start: 700 starts * 2
    // directions).
    let engine = Engine::build(&cycle(700));
    let count = engine.count(&path(600), Variant::EdgeInduced);
    assert_eq!(count, 1400);
}

#[test]
fn counts_past_u64_are_flagged_saturated() {
    // 1000^7 = 10^21 overflows u64; 1000^6 = 10^18 does not.
    for (labels, saturated) in [(7u32, true), (6, false)] {
        let (g, p) = labeled_stars(labels, 1000);
        let engine = Engine::build(&g);
        let out = engine.run(
            &p,
            Variant::EdgeInduced,
            csce::PlannerConfig::csce(),
            csce::RunConfig::default(),
        );
        assert_eq!(out.stats.saturated, saturated, "{labels} leaves");
        let want = if saturated { u64::MAX } else { 10u64.pow(18) };
        assert_eq!(out.count, want, "{labels} leaves");
    }
}
