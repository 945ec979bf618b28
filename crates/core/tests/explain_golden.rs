//! Pinned renderings of the factorized execution tree: a few small plans,
//! one of them with a `Split` nested inside a `Split` component, rendered
//! by `render_tree` under every variant and compared with
//! `fixtures/render_tree.txt`, so a change to the tree's layout is checked
//! to print the same text.
//!
//! When the rendering changes on purpose, the failure prints the fresh
//! text; it replaces the fixture after review.

use csce_ccsr::{build_ccsr, read_csr};
use csce_core::plan::explain::render_tree;
use csce_core::{Catalog, Planner, PlannerConfig};
use csce_graph::{Graph, GraphBuilder, Variant, VertexId, NO_LABEL};

const PINNED: &str = include_str!("fixtures/render_tree.txt");

/// An undirected pattern over `labels`, one vertex per entry.
fn pattern(labels: &[u32], edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::new();
    for &l in labels {
        b.add_vertex(l);
    }
    for &(a, c) in edges {
        b.add_undirected_edge(a, c, NO_LABEL).expect("a simple pattern");
    }
    b.build()
}

/// The named patterns: a nested split (one arm of the root forks again),
/// a star whose leaves share a label, a path and a 4-cycle with a tail.
fn patterns() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "nested",
            pattern(
                &[0, 1, 2, 3, 4, 5, 6, 7],
                &[(0, 1), (0, 2), (0, 3), (0, 7), (1, 4), (1, 5), (2, 6)],
            ),
        ),
        ("twin-leaves", pattern(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)])),
        ("path", pattern(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)])),
        ("cycle-tail", pattern(&[0, 1, 0, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])),
    ]
}

fn fresh_text() -> String {
    let mut out = String::new();
    for (name, p) in patterns() {
        let gc = build_ccsr(&p).expect("a valid pattern graph");
        for variant in Variant::ALL {
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
            out.push_str(&format!(
                "## {name} {} order {:?} ({} splits)\n",
                variant.tag(),
                plan.order,
                plan.root.split_count()
            ));
            out.push_str(&render_tree(&plan.root));
        }
    }
    out
}

#[test]
fn rendered_trees_match_the_pinned_text() {
    let fresh = fresh_text();
    assert!(fresh.contains("\n    split x"), "a split nested in a component:\n{fresh}");
    assert_eq!(fresh, PINNED, "fresh rendering:\n{fresh}");
}
