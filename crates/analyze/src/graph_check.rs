//! Deep structural validation of [`csce_graph::Graph`].
//!
//! The graph model promises (module docs of `csce_graph::graph`): sorted
//! per-vertex adjacency, undirected edges visible from both endpoints,
//! degrees counting distinct neighbors, no self loops, and `Σ` a function
//! of the vertex pair (no duplicate same-kind edges). Each promise is
//! re-derived here from the canonical edge list alone, so a
//! desynchronized adjacency or stale degree shows up as a violation
//! rather than a wrong match count.

use crate::{Validate, ValidationReport};
use csce_graph::graph::{Adj, Orient};
use csce_graph::{FxHashMap, Graph, VertexId};

impl Validate for Graph {
    fn validate(&self) -> ValidationReport {
        let mut r =
            ValidationReport::new(format!("graph ({} vertices, {} edges)", self.n(), self.m()));
        check_edge_list(self, &mut r);
        check_adjacency(self, &mut r);
        check_degrees(self, &mut r);
        r
    }
}

/// The canonical edge list: no self loops, undirected edges stored with
/// `src <= dst`, endpoints in range, and no duplicate same-kind edge on a
/// vertex pair.
fn check_edge_list(g: &Graph, r: &mut ValidationReport) {
    r.ran("graph.no-self-loop");
    r.ran("graph.edge-endpoints");
    r.ran("graph.undirected-canonical");
    r.ran("graph.edge-uniqueness");
    let n = g.n() as VertexId;
    // (min, max) -> bitmask: 1 fwd directed, 2 bwd directed, 4 undirected.
    let mut pair_kinds: FxHashMap<(VertexId, VertexId), u8> = FxHashMap::default();
    for (i, e) in g.edges().iter().enumerate() {
        if e.src == e.dst {
            r.violation("graph.no-self-loop", format!("edge {i} is a self loop on {}", e.src));
            continue;
        }
        if e.src >= n || e.dst >= n {
            r.violation(
                "graph.edge-endpoints",
                format!("edge {i} ({} -> {}) leaves the vertex range 0..{n}", e.src, e.dst),
            );
            continue;
        }
        if !e.directed && e.src > e.dst {
            r.violation(
                "graph.undirected-canonical",
                format!(
                    "undirected edge {i} stored as ({}, {}), expected src <= dst",
                    e.src, e.dst
                ),
            );
        }
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        let kind = if !e.directed {
            4
        } else if e.src < e.dst {
            1
        } else {
            2
        };
        let entry = pair_kinds.entry(key).or_insert(0);
        if *entry & kind != 0 {
            r.violation(
                "graph.edge-uniqueness",
                format!("edge {i} duplicates an existing edge between {} and {}", e.src, e.dst),
            );
        }
        if (kind == 4 && *entry & 3 != 0) || (kind != 4 && *entry & 4 != 0) {
            r.violation(
                "graph.edge-uniqueness",
                format!(
                    "edge {i} mixes directed and undirected kinds between {} and {}",
                    e.src, e.dst
                ),
            );
        }
        *entry |= kind;
    }
}

/// Adjacency lists agree with the edge list exactly: every edge appears as
/// the right `Adj` entry at both endpoints, lists are sorted, and the two
/// views of each edge are mutual mirrors (symmetry under `Orient::flip`).
fn check_adjacency(g: &Graph, r: &mut ValidationReport) {
    r.ran("graph.adjacency-sorted");
    r.ran("graph.adjacency-symmetry");
    r.ran("graph.edge-adjacency-agreement");
    let n = g.n() as VertexId;
    for v in 0..n {
        let list = g.adj(v);
        if list.windows(2).any(|w| w[0] > w[1]) {
            r.violation("graph.adjacency-sorted", format!("adjacency of vertex {v} is not sorted"));
        }
        for a in list {
            if a.nbr >= n {
                r.violation(
                    "graph.adjacency-symmetry",
                    format!("adjacency of {v} references out-of-range vertex {}", a.nbr),
                );
                continue;
            }
            let mirror = Adj { nbr: v, orient: a.orient.flip(), elabel: a.elabel };
            if g.adj(a.nbr).binary_search(&mirror).is_err() {
                r.violation(
                    "graph.adjacency-symmetry",
                    format!(
                        "arc {v} -> {} ({:?}, label {}) has no mirror entry at {}",
                        a.nbr, a.orient, a.elabel, a.nbr
                    ),
                );
            }
        }
    }
    // Every edge contributes exactly two adjacency entries, and nothing else
    // does: count agreement plus per-edge membership.
    let total: usize = (0..n).map(|v| g.adj(v).len()).sum();
    if total != 2 * g.m() {
        r.violation(
            "graph.edge-adjacency-agreement",
            format!("adjacency holds {total} entries, expected 2|E| = {}", 2 * g.m()),
        );
    }
    for (i, e) in g.edges().iter().enumerate() {
        if e.src >= n || e.dst >= n {
            continue; // reported by check_edge_list
        }
        let (from_src, from_dst) =
            if e.directed { (Orient::Out, Orient::In) } else { (Orient::Und, Orient::Und) };
        let src_entry = Adj { nbr: e.dst, orient: from_src, elabel: e.label };
        let dst_entry = Adj { nbr: e.src, orient: from_dst, elabel: e.label };
        if g.adj(e.src).binary_search(&src_entry).is_err()
            || g.adj(e.dst).binary_search(&dst_entry).is_err()
        {
            r.violation(
                "graph.edge-adjacency-agreement",
                format!(
                    "edge {i} ({} -> {}) is missing from an endpoint's adjacency",
                    e.src, e.dst
                ),
            );
        }
    }
}

/// `degree(v)` counts distinct neighbor vertices (antiparallel arcs to the
/// same neighbor count once), recomputed from the adjacency.
fn check_degrees(g: &Graph, r: &mut ValidationReport) {
    r.ran("graph.degree");
    for v in 0..g.n() as VertexId {
        let mut distinct = 0u32;
        let mut prev = VertexId::MAX;
        for a in g.adj(v) {
            if a.nbr != prev {
                distinct += 1;
                prev = a.nbr;
            }
        }
        if distinct != g.degree(v) {
            r.violation(
                "graph.degree",
                format!(
                    "vertex {v}: stored degree {} but {} distinct neighbors",
                    g.degree(v),
                    distinct
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{GraphBuilder, NO_LABEL};

    #[test]
    fn valid_graphs_pass() {
        let mut b = GraphBuilder::new();
        for l in [0, 1, 2, 0, NO_LABEL] {
            b.add_vertex(l);
        }
        b.add_edge(0, 1, 7).unwrap();
        b.add_edge(1, 0, 8).unwrap();
        b.add_undirected_edge(2, 4, NO_LABEL).unwrap();
        let g = b.build();
        let report = g.validate();
        assert!(report.is_ok(), "{:?}", report.details());
        assert!(report.checks_run() >= 8);
    }

    #[test]
    fn empty_graph_passes() {
        assert!(GraphBuilder::new().build().validate().is_ok());
    }
}
