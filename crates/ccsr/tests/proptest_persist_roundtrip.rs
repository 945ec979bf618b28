//! Properties over random labeled graphs (directed and undirected):
//!
//! * every cluster of `build_ccsr`, and of its `to_bytes → from_bytes`
//!   round trip, answers `out_neighbors`, `in_neighbors` and
//!   `nonempty_rows` for every vertex exactly as a brute-force adjacency
//!   built from the edge list — on graphs whose row indexes land on both
//!   sides of the dense/sparse size rule and exactly on it;
//! * every built `G_C` passes `Ccsr::check`, re-encodes to identical
//!   bytes, and keeps its row indexes within the paper's `I_R ≤ 4 · I_C`;
//! * decoding is total and canonical: flipping bit 0 or bit 1 of any byte
//!   of a valid encoding (so every 4-byte word XOR 1, aligned or not, and
//!   flag bytes turned into `2`/`3`) never panics `from_bytes`, and a
//!   mutation it accepts passes the check and re-encodes to exactly the
//!   mutated bytes.

use csce_ccsr::{build_ccsr, persist, Ccsr, ClusterKey};
use csce_graph::{Graph, GraphBuilder, VertexId, NO_LABEL};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a random small heterogeneous graph with labeled vertices and
/// edges, mixing directed and undirected edges when `mixed` allows.
fn arb_graph(directed_bias: bool) -> impl Strategy<Value = Graph> {
    (
        2usize..=12,
        1u32..=4,
        1u32..=3,
        proptest::collection::vec((0u32..144, 0u32..144, 0u32..3, 0u32..2), 0..40),
    )
        .prop_map(move |(n, vlabels, elabels, raw)| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(i as u32 % vlabels);
            }
            for (x, y, l, dir) in raw {
                let (a, c) = ((x as usize % n) as VertexId, (y as usize % n) as VertexId);
                if a == c {
                    continue;
                }
                let label = if l == 0 { NO_LABEL } else { l % elabels };
                if dir == 1 || directed_bias {
                    let _ = b.add_edge(a, c, label);
                } else {
                    let _ = b.add_undirected_edge(a, c, label);
                }
            }
            b.build()
        })
}

/// Strategy: one unlabeled directed cluster over `n` vertices whose first
/// `k` vertices each have one out-arc, with `k` at, just below and just
/// above the size rule's boundary `n = 2k`, so the out index is dense
/// exactly when `n ≤ 2k`.
fn arb_boundary_graph() -> impl Strategy<Value = Graph> {
    (2usize..=24, 0usize..3, 1usize..24).prop_map(|(n, shift, hop)| {
        // `k` is n / 2 - 1, n / 2 or n / 2 + 1.
        let k = (n / 2 + shift).saturating_sub(1).clamp(1, n);
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        for v in 0..k {
            let w = (v + 1 + hop % (n - 1)) % n;
            b.add_edge(v as VertexId, w as VertexId, NO_LABEL).unwrap();
        }
        b.build()
    })
}

type Adjacency = BTreeMap<VertexId, BTreeSet<VertexId>>;

/// Per-cluster adjacency derived straight from the edge list: out- and
/// in-neighbors of every vertex (an undirected edge is both).
fn expected_adjacency(g: &Graph) -> BTreeMap<ClusterKey, (Adjacency, Adjacency)> {
    let mut by_key: BTreeMap<ClusterKey, (Adjacency, Adjacency)> = BTreeMap::new();
    for e in g.edges() {
        let key = ClusterKey::of_edge(g, e.src, e.dst, e.label, e.directed);
        let (out, inc) = by_key.entry(key).or_default();
        out.entry(e.src).or_default().insert(e.dst);
        inc.entry(e.dst).or_default().insert(e.src);
        if !e.directed {
            out.entry(e.dst).or_default().insert(e.src);
            inc.entry(e.src).or_default().insert(e.dst);
        }
    }
    by_key
}

/// The rows a direction's index addresses under the size rule: all `n`
/// when `n ≤ 2 · rows`, else the non-empty rows.
fn indexed_rows(n: usize, adj: &Adjacency) -> usize {
    if n <= 2 * adj.len() {
        n
    } else {
        adj.len()
    }
}

fn assert_matches_graph(gc: &Ccsr, g: &Graph) {
    let expected = expected_adjacency(g);
    prop_assert_eq!(gc.cluster_count(), expected.len());
    for (key, (out, inc)) in &expected {
        let cluster = gc.cluster(key).expect("cluster of every edge key");
        for v in 0..g.n() as VertexId {
            let want = |adj: &Adjacency| adj.get(&v).map(|s| s.iter().copied().collect());
            let want_out: Vec<VertexId> = want(out).unwrap_or_default();
            let want_in: Vec<VertexId> = want(inc).unwrap_or_default();
            prop_assert_eq!(cluster.out_neighbors(v), &want_out[..], "{:?} out of {}", key, v);
            prop_assert_eq!(cluster.in_neighbors(v), &want_in[..], "{:?} in of {}", key, v);
        }
        let rows: Vec<VertexId> = cluster.nonempty_rows(false).collect();
        prop_assert_eq!(rows, out.keys().copied().collect::<Vec<_>>(), "{:?} out rows", key);
        let rows: Vec<VertexId> = cluster.nonempty_rows(true).collect();
        prop_assert_eq!(rows, inc.keys().copied().collect::<Vec<_>>(), "{:?} in rows", key);
        let want_rows =
            indexed_rows(g.n(), out) + if key.directed { indexed_rows(g.n(), inc) } else { 0 };
        prop_assert_eq!(cluster.indexed_rows(), want_rows, "{:?} indexed rows", key);
    }
}

fn assert_roundtrip(g: &Graph) {
    let gc = build_ccsr(g).unwrap();
    prop_assert_eq!(gc.check(), Ok(()));
    prop_assert!(gc.total_ir_len() <= 4 * gc.total_ic_len());
    let bytes = persist::to_bytes(&gc).unwrap();
    let loaded = persist::from_bytes(&bytes).expect("roundtrip decodes");
    prop_assert_eq!(loaded.n(), g.n());
    prop_assert_eq!(loaded.vertex_labels(), g.labels());
    prop_assert!(persist::to_bytes(&loaded).unwrap() == bytes, "re-encoding changed the bytes");
    assert_matches_graph(&gc, g);
    assert_matches_graph(&loaded, g);
}

fn assert_mutations_rejected_or_canonical(g: &Graph) {
    let good = persist::to_bytes(&build_ccsr(g).unwrap()).unwrap();
    for (i, mask) in (0..good.len()).flat_map(|i| [(i, 1u8), (i, 2)]) {
        let mut bad = good.clone();
        bad[i] ^= mask;
        if let Ok(gc) = persist::from_bytes(&bad) {
            prop_assert_eq!(gc.check(), Ok(()));
            prop_assert!(
                persist::to_bytes(&gc).unwrap() == bad,
                "byte {} ^ {} re-encodes differently",
                i,
                mask
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_graph_pipeline_is_lossless(g in arb_graph(false)) {
        assert_roundtrip(&g);
    }

    #[test]
    fn directed_graph_pipeline_is_lossless(g in arb_graph(true)) {
        assert_roundtrip(&g);
    }

    #[test]
    fn boundary_graph_pipeline_is_lossless(g in arb_boundary_graph()) {
        assert_roundtrip(&g);
    }

    #[test]
    fn mutated_mixed_encodings_are_rejected_or_canonical(g in arb_graph(false)) {
        assert_mutations_rejected_or_canonical(&g);
    }

    #[test]
    fn mutated_directed_encodings_are_rejected_or_canonical(g in arb_graph(true)) {
        assert_mutations_rejected_or_canonical(&g);
    }
}
