//! Properties over random labeled graphs (directed and undirected):
//!
//! * the full offline pipeline `build_ccsr → to_bytes → from_bytes →
//!   decompress` yields exactly the per-cluster CSR built directly from the
//!   edge list — persistence and RLE compression are lossless end to end —
//!   and every built `G_C` passes `Ccsr::check`;
//! * decoding is total and canonical: flipping bit 0 or bit 1 of any byte
//!   of a valid encoding (so every 4-byte word XOR 1, aligned or not, and
//!   flag bytes turned into `2`/`3`) never panics `from_bytes`, and a
//!   mutation it accepts passes the check and re-encodes to exactly the
//!   mutated bytes.

use csce_ccsr::{build_ccsr, persist, ClusterKey, Csr};
use csce_graph::{Graph, GraphBuilder, VertexId, NO_LABEL};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

type ArcsByKey = BTreeMap<ClusterKey, Vec<(VertexId, VertexId)>>;

/// Per-cluster arc lists derived straight from the edge list, in the same
/// orientation convention the CCSR builder uses (undirected edges stored
/// from both endpoints, directed ones as separate out/in CSRs).
fn expected_arcs(g: &Graph) -> (ArcsByKey, ArcsByKey) {
    let mut out: ArcsByKey = BTreeMap::new();
    let mut inc: ArcsByKey = BTreeMap::new();
    for e in g.edges() {
        let key = ClusterKey::of_edge(g, e.src, e.dst, e.label, e.directed);
        if e.directed {
            out.entry(key).or_default().push((e.src, e.dst));
            inc.entry(key).or_default().push((e.dst, e.src));
        } else {
            let v = out.entry(key).or_default();
            v.push((e.src, e.dst));
            v.push((e.dst, e.src));
        }
    }
    (out, inc)
}

fn assert_roundtrip(g: &Graph) {
    let gc = build_ccsr(g).unwrap();
    prop_assert_eq!(gc.check(), Ok(()));
    let loaded = persist::from_bytes(&persist::to_bytes(&gc).unwrap()).expect("roundtrip decodes");
    prop_assert_eq!(loaded.n(), g.n());
    prop_assert_eq!(loaded.vertex_labels(), g.labels());

    let (out, inc) = expected_arcs(g);
    prop_assert_eq!(loaded.cluster_count(), out.len());
    for (key, pairs) in &out {
        let cluster = loaded.cluster(key).expect("cluster survives persistence");
        let direct = Csr::from_pairs(g.n(), pairs.clone()).unwrap();
        prop_assert_eq!(&cluster.out.decompress(), &direct, "out csr for {:?}", key);
        match inc.get(key) {
            Some(pairs) => {
                let inc_csr = cluster.inc.as_ref().expect("directed cluster has inc");
                let direct = Csr::from_pairs(g.n(), pairs.clone()).unwrap();
                prop_assert_eq!(&inc_csr.decompress(), &direct, "inc csr for {:?}", key);
            }
            None => prop_assert!(cluster.inc.is_none(), "undirected cluster has no inc"),
        }
    }
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
    fn mutated_mixed_encodings_are_rejected_or_canonical(g in arb_graph(false)) {
        assert_mutations_rejected_or_canonical(&g);
    }

    #[test]
    fn mutated_directed_encodings_are_rejected_or_canonical(g in arb_graph(true)) {
        assert_mutations_rejected_or_canonical(&g);
    }
}
