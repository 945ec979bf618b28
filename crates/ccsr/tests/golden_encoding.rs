//! The `.ccsr` format does not move: `fixtures/golden.ccsr` is
//! `persist::to_bytes(build_ccsr(g))` of [`golden_graph`], committed before
//! the in-memory layout last changed. Building the same graph must encode
//! to exactly those bytes, and decoding the file must re-encode to them.

use csce_ccsr::{build_ccsr, persist, Ccsr};
use csce_graph::{Graph, GraphBuilder, NO_LABEL};

const FIXTURE: &[u8] = include_bytes!("fixtures/golden.ccsr");

/// Eight vertices labelled 0, 1 and 2; directed and undirected edges, with
/// and without edge labels. The undirected `(0, 1, 5)` cluster has arcs
/// at six of the eight vertices, so its index is dense; the others are
/// sparse.
fn golden_graph() -> Graph {
    let mut b = GraphBuilder::new();
    for l in [0, 1, 0, 1, 2, 2, 0, 1] {
        b.add_vertex(l);
    }
    for (s, d) in [(0, 1), (2, 3), (6, 7)] {
        b.add_edge(s, d, NO_LABEL).unwrap();
    }
    for (s, d) in [(0, 3), (2, 7), (6, 1), (2, 1)] {
        b.add_undirected_edge(s, d, 5).unwrap();
    }
    for (s, d) in [(4, 0), (5, 2), (7, 0)] {
        b.add_edge(s, d, 9).unwrap();
    }
    b.add_undirected_edge(4, 5, NO_LABEL).unwrap();
    b.build()
}

/// Whether some cluster index is dense (addresses more rows than have
/// arcs) and some is sparse.
fn has_both_forms(gc: &Ccsr) -> (bool, bool) {
    let nonempty = |c: &csce_ccsr::Cluster| {
        c.nonempty_rows(false).count()
            + if c.key.directed { c.nonempty_rows(true).count() } else { 0 }
    };
    let dense = gc.clusters().any(|c| c.indexed_rows() > nonempty(c));
    let sparse = gc.clusters().any(|c| c.indexed_rows() == nonempty(c));
    (dense, sparse)
}

#[test]
fn build_encodes_to_the_fixture() {
    let gc = build_ccsr(&golden_graph()).unwrap();
    assert_eq!(has_both_forms(&gc), (true, true));
    assert!(persist::to_bytes(&gc).unwrap() == FIXTURE, "build no longer encodes to the fixture");
}

#[test]
fn fixture_decodes_and_reencodes_exactly() {
    let gc = persist::from_bytes(FIXTURE).unwrap();
    assert_eq!(gc.cluster_count(), 5);
    assert!(persist::to_bytes(&gc).unwrap() == FIXTURE, "decode/encode moved the fixture");
}
