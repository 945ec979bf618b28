//! The per-task catalog: a pattern-aware view over the selected cluster set
//! `G_C^*`.
//!
//! The planner asks it for cluster sizes (the `|I_C(u_i, u_x)|` statistics
//! behind the GCF and LDSF tie-breaks) and the executor for neighbor rows
//! and seed candidates. All lookups read the star's per-edge table and
//! resolve to slices inside the clusters' row indexes; nothing here
//! allocates on the hot path except the seed list of a plan's first
//! vertex. A catalog holds no mutable state, so parallel workers share one.

pub use csce_ccsr::Side;
use csce_ccsr::{Cluster, GcStar};
use csce_graph::util::intersect_sorted;
use csce_graph::{Graph, Label, VertexId};

/// A pattern-specific, variant-agnostic view over `G_C^*`.
pub struct Catalog<'a> {
    pattern: &'a Graph,
    star: &'a GcStar<'a>,
    /// Per pattern-edge index: the cluster, or `None` when no data edge
    /// matches the identifier (candidates through it are empty).
    edge_clusters: &'a [Option<&'a Cluster>],
}

impl<'a> Catalog<'a> {
    /// A view of `star`, which must have been read for `pattern`. It
    /// copies nothing: the star already holds the per-edge clusters and
    /// the incident edges.
    pub fn new(pattern: &'a Graph, star: &'a GcStar<'a>) -> Catalog<'a> {
        Catalog { pattern, star, edge_clusters: star.edge_clusters() }
    }

    #[inline]
    pub fn pattern(&self) -> &'a Graph {
        self.pattern
    }

    #[inline]
    pub fn star(&self) -> &'a GcStar<'a> {
        self.star
    }

    /// Data-graph vertex count.
    #[inline]
    pub fn data_n(&self) -> usize {
        self.star.ccsr().n()
    }

    /// Label of a data vertex.
    #[inline]
    pub fn data_label(&self, v: VertexId) -> Label {
        self.star.ccsr().vertex_label(v)
    }

    /// Frequency of a vertex label in the data graph (plan tie-break #3).
    #[inline]
    pub fn label_frequency(&self, l: Label) -> u32 {
        self.star.ccsr().label_frequency(l)
    }

    /// `|I_C|` of the cluster serving pattern edge `eidx` (0 when empty) —
    /// the paper's candidate-count estimate for tie-breaking.
    #[inline]
    pub fn cluster_size(&self, eidx: usize) -> usize {
        self.edge_clusters[eidx].map_or(0, |c| c.size())
    }

    /// Which side of pattern edge `eidx` vertex `u` is. Panics if `u` is
    /// not an endpoint.
    pub fn side_of(&self, eidx: usize, u: VertexId) -> Side {
        let e = &self.pattern.edges()[eidx];
        if e.src == u {
            Side::Src
        } else {
            debug_assert_eq!(e.dst, u, "vertex is not an endpoint of edge {eidx}");
            Side::Dst
        }
    }

    /// Pattern edge indexes incident to `u`, with `u`'s side, in edge
    /// order (the star's lists, so the plan heuristics' inner loops stay
    /// linear).
    pub fn incident_edges(&self, u: VertexId) -> impl Iterator<Item = (usize, Side)> + 'a {
        self.star.incident_edges(u).iter().copied()
    }

    /// The smallest cluster size among edges from `x` to the placed side
    /// (`towards_placed`) or to the unplaced side, as `placed` tells them;
    /// `usize::MAX` when `x` has no such edge. The LDSF tie-break; GCF
    /// keeps `ω¹`/`ω²` incrementally and recomputes them with this only
    /// to cross-check its heap in debug builds.
    pub fn min_connecting_cluster(
        &self,
        x: VertexId,
        placed: impl Fn(VertexId) -> bool,
        towards_placed: bool,
    ) -> usize {
        let mut best = usize::MAX;
        for (eidx, side) in self.incident_edges(x) {
            let e = &self.pattern.edges()[eidx];
            let other = if side == Side::Src { e.dst } else { e.src };
            if placed(other) == towards_placed {
                best = best.min(self.cluster_size(eidx));
            }
        }
        best
    }

    /// Candidates for the *other* endpoint of pattern edge `eidx` when the
    /// endpoint `from_side` is mapped to data vertex `v`: the sorted
    /// neighbor row of `v` in the edge's cluster.
    #[inline]
    pub fn extend_row(&self, eidx: usize, from_side: Side, v: VertexId) -> &'a [u32] {
        match self.edge_clusters[eidx] {
            None => &[],
            // Undirected clusters answer both directions from one index.
            Some(c) => match from_side {
                Side::Src => c.out_neighbors(v),
                Side::Dst => c.in_neighbors(v),
            },
        }
    }

    /// Seed candidates for `u` when it has no matched neighbors (the first
    /// vertex of a plan): the intersection over every incident pattern
    /// edge of the vertices occurring on `u`'s side of the edge's cluster
    /// — exactly a worst-case-optimal join of `u`'s relations on `u`.
    pub fn seeds(&self, u: VertexId) -> Vec<VertexId> {
        let mut lists: Vec<Vec<VertexId>> = Vec::new();
        for (eidx, side) in self.incident_edges(u) {
            lists.push(self.side_vertices(eidx, side, self.pattern.label(u)));
        }
        match lists.iter().min_by_key(|l| l.len()) {
            None => {
                // Isolated pattern vertex: all data vertices of the label.
                let label = self.pattern.label(u);
                (0..self.data_n() as VertexId).filter(|&v| self.data_label(v) == label).collect()
            }
            Some(smallest) => {
                let mut acc = smallest.clone();
                let mut tmp = Vec::new();
                for list in &lists {
                    if std::ptr::eq(list, smallest) {
                        continue;
                    }
                    intersect_sorted(&acc, list, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// The vertices appearing on one side of a pattern edge's cluster,
    /// filtered to a vertex label (needed for undirected clusters whose
    /// two label sides share one index).
    fn side_vertices(&self, eidx: usize, side: Side, want_label: Label) -> Vec<VertexId> {
        let Some(&Some(c)) = self.edge_clusters.get(eidx) else { return Vec::new() };
        let rows = c.nonempty_rows(side == Side::Dst);
        if c.key.directed || c.key.symmetric_labels() {
            rows.collect()
        } else {
            // Mixed-label undirected cluster: keep only rows of the wanted
            // label.
            rows.filter(|&v| self.data_label(v) == want_label).collect()
        }
    }

    /// Whether the data graph has any edge between two labels (Algorithm 2
    /// line 8) — a property of `G_C`, whatever was selected, for Fig. 12
    /// and the debug cross-check of `H` (plans read the star's pairs).
    #[inline]
    pub fn labels_ever_adjacent(&self, a: Label, b: Label) -> bool {
        !self.star.ccsr().negation_clusters(a, b).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::{GraphBuilder, Variant, NO_LABEL};

    fn data() -> csce_graph::Graph {
        // Labels: 0 (A), 1 (B). Edges: A->B: 0->1, 0->3, 2->3; undirected
        // B-B: 1-3.
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_edge(0, 3, NO_LABEL).unwrap();
        b.add_edge(2, 3, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 3, NO_LABEL).unwrap();
        b.build()
    }

    fn pattern() -> csce_graph::Graph {
        // u0 (A) -> u1 (B) — u2 (B undirected): a directed edge plus an
        // undirected one.
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        b.build()
    }

    #[test]
    fn extend_rows_follow_direction() {
        let g = data();
        let p = pattern();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let cat = Catalog::new(&p, &star);
        // Edge 0 is u0->u1 (A->B cluster). From the source v0:
        assert_eq!(cat.extend_row(0, Side::Src, 0), &[1, 3]);
        // From the destination v3 backwards:
        assert_eq!(cat.extend_row(0, Side::Dst, 3), &[0, 2]);
        // Edge 1 is undirected B-B. Both directions served by one CSR:
        assert_eq!(cat.extend_row(1, Side::Src, 1), &[3]);
        assert_eq!(cat.extend_row(1, Side::Dst, 1), &[3]);
    }

    #[test]
    fn cluster_sizes_feed_tiebreaks() {
        let g = data();
        let p = pattern();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let cat = Catalog::new(&p, &star);
        assert_eq!(cat.cluster_size(0), 3); // three A->B arcs
        assert_eq!(cat.cluster_size(1), 2); // one undirected edge, two arcs
    }

    #[test]
    fn seeds_intersect_all_incident_relations() {
        let g = data();
        let p = pattern();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let cat = Catalog::new(&p, &star);
        // u1 (B) must appear as destination of an A->B arc and as an
        // endpoint of a B-B undirected edge: v1 and v3 both qualify.
        assert_eq!(cat.seeds(1), vec![1, 3]);
        // u0 (A) is only constrained by the A->B cluster sources.
        assert_eq!(cat.seeds(0), vec![0, 2]);
    }

    #[test]
    fn missing_cluster_yields_empty() {
        let g = data();
        let mut b = GraphBuilder::new();
        b.add_vertex(7); // label absent in data
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        let p = b.build();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let cat = Catalog::new(&p, &star);
        assert_eq!(cat.cluster_size(0), 0);
        assert!(cat.seeds(0).is_empty());
        assert!(cat.extend_row(0, Side::Src, 0).is_empty());
    }

    #[test]
    fn undirected_mixed_label_sides_filter_by_label() {
        // Data: undirected A-B edges 0(A)-1(B), 2(A)-1(B).
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(0);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(2, 1, NO_LABEL).unwrap();
        let g = b.build();
        let mut pb = GraphBuilder::new();
        pb.add_vertex(0);
        pb.add_vertex(1);
        pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        let p = pb.build();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let cat = Catalog::new(&p, &star);
        assert_eq!(cat.seeds(0), vec![0, 2], "A-side seeds");
        assert_eq!(cat.seeds(1), vec![1], "B-side seeds");
    }
}
