//! `build_ccsr` against an oracle read straight off the data graph, over
//! random heterogeneous graphs (up to 200 vertices, 1–30 vertex labels,
//! edge labels, directed and undirected edges mixed):
//!
//! * for every possible key, `cluster(k)` is `None` exactly when no edge
//!   has that key, and otherwise its out- and in-rows of every vertex are
//!   `Graph::adj` filtered by the key;
//! * `negation_clusters(a, b)` is, in key order, every cluster whose
//!   `label_pair()` is `(min(a, b), max(a, b))`;
//! * `clusters()` is strictly ordered by `(label_pair(), key)`, so the
//!   clusters of each label pair, and of each smaller label (its run), are
//!   contiguous — the order the label-pair CSR relies on — for the built
//!   `G_C` and for its `persist` round trip;
//! * the built `G_C` passes `Ccsr::check`.

use csce_ccsr::{build_ccsr, persist, Ccsr, ClusterKey};
use csce_graph::{Graph, GraphBuilder, Label, Orient, VertexId, NO_LABEL};
use proptest::prelude::*;

const EDGE_LABELS: u32 = 3;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(0u32..30, 1..=200),
        1u32..=30,
        proptest::collection::vec((0u32..200, 0u32..200, 0..=EDGE_LABELS, 0u32..2), 0..400),
    )
        .prop_map(|(labels, vlabels, raw)| {
            let (n, mut b) = (labels.len(), GraphBuilder::new());
            for l in labels {
                b.add_vertex(l % vlabels);
            }
            for (x, y, l, dir) in raw {
                let (a, c) = ((x as usize % n) as VertexId, (y as usize % n) as VertexId);
                let label = if l == EDGE_LABELS { NO_LABEL } else { l };
                // Self-loops, duplicates and mixed kinds are rejected.
                let _ = if dir == 1 {
                    b.add_edge(a, c, label)
                } else {
                    b.add_undirected_edge(a, c, label)
                };
            }
            b.build()
        })
}

/// The neighbors of `v` along (`incoming == false`) or against the key's
/// direction, read off `Graph::adj` and filtered by the key.
fn oracle_row(g: &Graph, key: &ClusterKey, v: VertexId, incoming: bool) -> Vec<VertexId> {
    let (lv, mut row): (Label, Vec<VertexId>) = (g.label(v), Vec::new());
    for a in g.adj(v).iter().filter(|a| a.elabel == key.edge_label) {
        let lw = g.label(a.nbr);
        let fits = match (key.directed, a.orient, incoming) {
            (true, Orient::Out, false) => (lv, lw) == (key.src_label, key.dst_label),
            (true, Orient::In, true) => (lw, lv) == (key.src_label, key.dst_label),
            (false, Orient::Und, _) => (lv.min(lw), lv.max(lw)) == key.label_pair(),
            _ => false,
        };
        if fits {
            row.push(a.nbr);
        }
    }
    row.sort_unstable();
    row
}

/// Every key over the graph's vertex labels and the edge labels, one past
/// each so that some keys name labels no vertex has.
fn all_keys(vlabels: Label) -> Vec<ClusterKey> {
    let mut keys = Vec::new();
    for s in 0..=vlabels {
        for d in 0..=vlabels {
            for e in (0..EDGE_LABELS).chain([NO_LABEL]) {
                keys.push(ClusterKey::directed(s, d, e));
                if s <= d {
                    keys.push(ClusterKey::undirected(s, d, e));
                }
            }
        }
    }
    keys
}

fn assert_matches_oracle(g: &Graph, gc: &Ccsr) {
    prop_assert_eq!(gc.check(), Ok(()));
    let vlabels = g.labels().iter().copied().max().unwrap_or(0) + 1;
    let mut present = 0;
    for key in all_keys(vlabels) {
        // Only a vertex carrying one of the key's labels can have a row.
        let labelled = |v: &VertexId| [key.src_label, key.dst_label].contains(&g.label(*v));
        let rows: Vec<(VertexId, Vec<VertexId>, Vec<VertexId>)> = (0..g.n() as VertexId)
            .filter(labelled)
            .map(|v| (v, oracle_row(g, &key, v, false), oracle_row(g, &key, v, true)))
            .filter(|(_, out, inc)| !out.is_empty() || !inc.is_empty())
            .collect();
        let Some(cluster) = gc.cluster(&key) else {
            prop_assert!(rows.is_empty(), "{} has edges but no cluster", key);
            continue;
        };
        present += 1;
        prop_assert_eq!(cluster.key, key);
        let mut rows = rows.into_iter().peekable();
        for v in 0..g.n() as VertexId {
            let (out, inc) = match rows.next_if(|(w, _, _)| *w == v) {
                Some((_, out, inc)) => (out, inc),
                None => (Vec::new(), Vec::new()),
            };
            prop_assert_eq!(cluster.out_neighbors(v), &out[..], "{} out of {}", key, v);
            prop_assert_eq!(cluster.in_neighbors(v), &inc[..], "{} in of {}", key, v);
        }
    }
    prop_assert_eq!(present, gc.cluster_count());
    for a in 0..=vlabels {
        for b in 0..=vlabels {
            let pair = (a.min(b), a.max(b));
            let mut want: Vec<ClusterKey> =
                gc.clusters().map(|c| c.key).filter(|k| k.label_pair() == pair).collect();
            want.sort_unstable();
            let got: Vec<ClusterKey> = gc.negation_clusters(a, b).iter().map(|c| c.key).collect();
            prop_assert_eq!(got, want, "negation clusters of ({}, {})", a, b);
        }
    }
}

/// The cluster table is strictly ordered by `(label pair, key)`: each
/// label's run, the clusters whose smaller label it is, is contiguous and
/// ordered by `(larger label, key)`.
fn assert_table_is_ordered(gc: &Ccsr) {
    let order: Vec<_> = gc.clusters().map(|c| (c.key.label_pair(), c.key)).collect();
    prop_assert_eq!(order.len(), gc.cluster_count());
    prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "{:?}", order);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_matches_adjacency_oracle(g in arb_graph()) {
        assert_matches_oracle(&g, &build_ccsr(&g).unwrap());
    }

    #[test]
    fn label_runs_survive_a_persist_round_trip(g in arb_graph()) {
        let gc = build_ccsr(&g).unwrap();
        assert_table_is_ordered(&gc);
        let back = persist::from_bytes(&persist::to_bytes(&gc).unwrap()).unwrap();
        assert_table_is_ordered(&back);
        let keys = |c: &Ccsr| c.clusters().map(|c| c.key).collect::<Vec<_>>();
        prop_assert_eq!(keys(&back), keys(&gc));
    }
}
