//! The heterogeneous graph model.
//!
//! A [`Graph`] follows the paper's definition `G = (V_G, E_G, L_G, Σ_G)`:
//! vertices carry labels, edges carry labels, and each edge is either
//! directed (`v_a → v_b`) or undirected (`v_a — v_b`, conceptually the two
//! arcs `(v_a, v_b)` and `(v_b, v_a)` that always travel together). Patterns
//! and data graphs share this one type.
//!
//! Vertices are dense `u32` ids. Construction goes through
//! [`GraphBuilder`], which enforces the paper's structural requirements
//! (no self loops; the edge label is a function of the vertex pair, so no
//! parallel edges of the same kind). The adjacency is one [`Csr`] with a
//! row per vertex, built by counting over the edge list, each row then
//! sorted in place: no per-vertex allocation, patterns and data graphs
//! alike.

use crate::util::{Csr, FxHashMap, FxHashSet};
use crate::{Label, VertexId, NO_LABEL};

/// How an incident edge relates to the vertex whose adjacency list it is in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Orient {
    /// The edge leaves this vertex (`this → nbr`).
    Out,
    /// The edge enters this vertex (`nbr → this`).
    In,
    /// The edge is undirected (`this — nbr`).
    Und,
}

impl Orient {
    /// The orientation the same edge has from the other endpoint's view.
    #[inline]
    pub fn flip(self) -> Orient {
        match self {
            Orient::Out => Orient::In,
            Orient::In => Orient::Out,
            Orient::Und => Orient::Und,
        }
    }
}

/// One edge of the canonical edge list. Undirected edges are stored once
/// with `src <= dst` (enforced by the builder).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    pub label: Label,
    pub directed: bool,
}

/// One entry of a vertex's adjacency list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Adj {
    /// The neighbor vertex.
    pub nbr: VertexId,
    /// Orientation of the connecting edge relative to the owning vertex.
    pub orient: Orient,
    /// Label of the connecting edge ([`NO_LABEL`] when unlabeled).
    pub elabel: Label,
}

/// An immutable heterogeneous graph (data graph or pattern).
#[derive(Clone, Debug)]
pub struct Graph {
    labels: Vec<Label>,
    adj: Csr<Adj>,
    edges: Vec<Edge>,
    degree: Vec<u32>,
}

impl Graph {
    /// Number of vertices `|V_G|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E_G|`; undirected edges count once, as in Table IV.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The canonical edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Full adjacency of `v`, sorted by `(nbr, orient, elabel)`.
    #[inline]
    pub fn adj(&self, v: VertexId) -> &[Adj] {
        self.adj.row(v as usize)
    }

    /// Degree of `v` — the number of *distinct neighbor vertices*, matching
    /// the paper's `d(v)` (two antiparallel arcs to the same neighbor count
    /// once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.degree[v as usize]
    }

    /// Number of incident arcs leaving `v` (Out + Und), for Table IV's
    /// max-out-degree column.
    pub fn out_arcs(&self, v: VertexId) -> usize {
        self.adj(v).iter().filter(|a| a.orient != Orient::In).count()
    }

    /// Number of incident arcs entering `v` (In + Und).
    pub fn in_arcs(&self, v: VertexId) -> usize {
        self.adj(v).iter().filter(|a| a.orient != Orient::Out).count()
    }

    /// The incident edges between `a` and `b`, seen from `a`'s side.
    /// Empty when not adjacent. Because adjacency is sorted by neighbor id,
    /// this is a binary search plus a short scan.
    pub fn edges_between(&self, a: VertexId, b: VertexId) -> &[Adj] {
        let list = self.adj(a);
        let lo = list.partition_point(|x| x.nbr < b);
        let hi = lo + list[lo..].partition_point(|x| x.nbr == b);
        &list[lo..hi]
    }

    /// Whether `a` and `b` are connected by any edge, ignoring direction —
    /// the paper's `⟨u_i, u_j⟩ ∈ E_P` predicate.
    #[inline]
    pub fn connected(&self, a: VertexId, b: VertexId) -> bool {
        !self.edges_between(a, b).is_empty()
    }

    /// Whether there is an edge `a → b` (directed) or `a — b` (undirected)
    /// with the given label and directedness.
    pub fn has_edge(&self, src: VertexId, dst: VertexId, label: Label, directed: bool) -> bool {
        self.edges_between(src, dst).iter().any(|a| {
            a.elabel == label
                && match a.orient {
                    Orient::Out => directed,
                    Orient::Und => !directed,
                    Orient::In => false,
                }
        })
    }

    /// Number of distinct vertex labels (`l_v`). An unlabeled graph — all
    /// vertices carrying [`NO_LABEL`] — reports zero, matching Table IV.
    pub fn vertex_label_count(&self) -> usize {
        if self.labels.iter().all(|&l| l == NO_LABEL) {
            0
        } else {
            self.distinct_vertex_labels()
        }
    }

    /// Number of distinct edge labels (`l_e`); [`NO_LABEL`] is not counted.
    pub fn edge_label_count(&self) -> usize {
        self.edges
            .iter()
            .map(|e| e.label)
            .filter(|&l| l != NO_LABEL)
            .collect::<FxHashSet<_>>()
            .len()
    }

    /// Whether the graph is heterogeneous per the paper's `l_v + l_e > 2`
    /// criterion (counting `NO_LABEL` as a single label).
    pub fn is_heterogeneous(&self) -> bool {
        self.distinct_vertex_labels() + self.edge_label_count().max(1) > 2
    }

    /// Number of distinct vertex labels, [`NO_LABEL`] included.
    fn distinct_vertex_labels(&self) -> usize {
        self.labels.iter().collect::<FxHashSet<_>>().len()
    }

    /// Whether any edge is directed.
    pub fn has_directed_edges(&self) -> bool {
        self.edges.iter().any(|e| e.directed)
    }

    /// Average degree `2|E| / |V|` (each undirected edge contributes two
    /// endpoints, each directed edge also two).
    pub fn average_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Whether the graph is connected when directions are ignored.
    /// Patterns are required to be connected by the planner.
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for a in self.adj(v) {
                if !seen[a.nbr as usize] {
                    seen[a.nbr as usize] = true;
                    count += 1;
                    stack.push(a.nbr);
                }
            }
        }
        count == self.n()
    }

    /// Rebuild with new vertex labels (same structure). Used to vary the
    /// label count of a dataset, e.g. "Patent with 2000 randomly assigned
    /// vertex labels" in Fig. 10/11.
    pub fn with_vertex_labels(&self, labels: Vec<Label>) -> Graph {
        assert_eq!(labels.len(), self.n(), "label vector must cover all vertices");
        // Relabelling cannot invalidate the (already validated) structure, so
        // copy it directly instead of replaying edges through the builder.
        Graph {
            labels,
            adj: self.adj.clone(),
            edges: self.edges.clone(),
            degree: self.degree.clone(),
        }
    }
}

/// Errors raised by [`GraphBuilder`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The paper requires `G` to have no self-loops.
    SelfLoop(VertexId),
    /// Edge endpoint does not exist.
    UnknownVertex(VertexId),
    /// `Σ` is a function of the vertex pair: a second edge of the same kind
    /// between the same pair was added.
    DuplicateEdge(VertexId, VertexId),
    /// An undirected edge cannot coexist with a directed edge on the same
    /// vertex pair (the direction of `Σ`'s argument would be ambiguous).
    MixedEdgeKinds(VertexId, VertexId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self loop on vertex {v}"),
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge between {a} and {b}"),
            GraphError::MixedEdgeKinds(a, b) => {
                write!(f, "directed and undirected edges mixed between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental, validated construction of a [`Graph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<Edge>,
    // (min, max) pair -> bitmask: 1 = fwd directed, 2 = bwd directed, 4 = undirected
    pair_kinds: FxHashMap<(VertexId, VertexId), u8>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size internal storage for `n` vertices and `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
            pair_kinds: FxHashMap::default(),
        }
    }

    /// Add a vertex with the given label; returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = self.labels.len() as VertexId;
        self.labels.push(label);
        id
    }

    /// Add `n` vertices all carrying [`NO_LABEL`]; returns the first new id.
    pub fn add_unlabeled_vertices(&mut self, n: usize) -> VertexId {
        let first = self.labels.len() as VertexId;
        self.labels.resize(self.labels.len() + n, NO_LABEL);
        first
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn check_pair(&mut self, a: VertexId, b: VertexId, kind: u8) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let n = self.labels.len() as VertexId;
        if a >= n {
            return Err(GraphError::UnknownVertex(a));
        }
        if b >= n {
            return Err(GraphError::UnknownVertex(b));
        }
        let key = (a.min(b), a.max(b));
        let entry = self.pair_kinds.entry(key).or_insert(0);
        if *entry & kind != 0 {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        let mixing = (kind == 4 && *entry & 3 != 0) || (kind != 4 && *entry & 4 != 0);
        if mixing {
            return Err(GraphError::MixedEdgeKinds(a, b));
        }
        *entry |= kind;
        Ok(())
    }

    /// Add a directed edge `src → dst` with an edge label
    /// (use [`NO_LABEL`] for unlabeled edges).
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: Label,
    ) -> Result<(), GraphError> {
        let kind = if src < dst { 1 } else { 2 };
        self.check_pair(src, dst, kind)?;
        self.edges.push(Edge { src, dst, label, directed: true });
        Ok(())
    }

    /// Add an undirected edge `a — b` with an edge label.
    pub fn add_undirected_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        label: Label,
    ) -> Result<(), GraphError> {
        self.check_pair(a, b, 4)?;
        let (src, dst) = (a.min(b), a.max(b));
        self.edges.push(Edge { src, dst, label, directed: false });
        Ok(())
    }

    /// Finalize into an immutable [`Graph`] with sorted adjacency.
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let arcs = self.edges.iter().flat_map(|e| {
            let (out, inc) =
                if e.directed { (Orient::Out, Orient::In) } else { (Orient::Und, Orient::Und) };
            [
                (e.src as usize, Adj { nbr: e.dst, orient: out, elabel: e.label }),
                (e.dst as usize, Adj { nbr: e.src, orient: inc, elabel: e.label }),
            ]
        });
        let mut adj = Csr::by_row(n, arcs);
        for v in 0..n {
            adj.row_mut(v).sort_unstable();
        }
        let degree = adj
            .iter()
            .map(|list| {
                let distinct = list.chunk_by(|a, b| a.nbr == b.nbr).count();
                u32::try_from(distinct).unwrap_or(u32::MAX)
            })
            .collect();
        // Boundary invariant (deep form in `csce-analyze`): each edge
        // contributes exactly two adjacency entries and lists are strictly
        // sorted — equal entries would mean an undetected duplicate edge.
        debug_assert!(
            adj.items().len() == 2 * self.edges.len()
                && adj.iter().all(|list| list.windows(2).all(|w| w[0] < w[1])),
            "adjacency must mirror the edge list with strictly sorted rows"
        );
        Graph { labels: self.labels, adj, edges: self.edges, degree }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper's Fig. 1: 8-vertex pattern P.
    /// Labels: A=0, B=1, C=2, D=3.
    pub(crate) fn fig1_pattern() -> Graph {
        let mut b = GraphBuilder::new();
        // u1..u8 -> ids 0..7
        let labels = [0, 1, 2, 2, 1, 0, 3, 0]; // A B C C B A D A
        for &l in &labels {
            b.add_vertex(l);
        }
        // Directed edges of P (Fig. 1): u1→u2, u1→u3, u1→u6, u7→u1,
        // u2→u4, u5→u2, u6→u5, u6→u8.
        let edges = [(0, 1), (0, 2), (0, 5), (6, 0), (1, 3), (4, 1), (5, 4), (5, 7)];
        for (s, d) in edges {
            b.add_edge(s, d, NO_LABEL).unwrap();
        }
        b.build()
    }

    #[test]
    fn builds_fig1_pattern() {
        let p = fig1_pattern();
        assert_eq!(p.n(), 8);
        assert_eq!(p.m(), 8);
        assert_eq!(p.label(0), 0);
        assert_eq!(p.label(6), 3);
        assert!(p.is_connected());
        assert!(p.has_directed_edges());
        assert!(p.is_heterogeneous());
        assert_eq!(p.degree(0), 4); // u1 connects u2, u3, u6, u7
    }

    #[test]
    fn adjacency_is_sorted_and_queryable() {
        let p = fig1_pattern();
        let adj0 = p.adj(0);
        assert!(adj0.windows(2).all(|w| w[0] <= w[1]));
        assert!(p.connected(0, 1));
        assert!(!p.connected(0, 3));
        assert!(p.has_edge(0, 1, NO_LABEL, true));
        assert!(!p.has_edge(1, 0, NO_LABEL, true)); // direction matters
        assert!(!p.has_edge(0, 1, 7, true)); // label matters
    }

    #[test]
    fn undirected_edges_visible_from_both_sides() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_undirected_edge(1, 0, 5).unwrap();
        let g = b.build();
        assert!(g.has_edge(0, 1, 5, false));
        assert!(g.has_edge(1, 0, 5, false));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edges()[0].src, 0, "undirected edges canonicalize src<dst");
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(0);
        assert_eq!(b.add_edge(0, 0, NO_LABEL), Err(GraphError::SelfLoop(0)));
        assert_eq!(b.add_edge(0, 5, NO_LABEL), Err(GraphError::UnknownVertex(5)));
        b.add_edge(0, 1, NO_LABEL).unwrap();
        assert_eq!(b.add_edge(0, 1, 3), Err(GraphError::DuplicateEdge(0, 1)));
        // Antiparallel directed edge is allowed...
        b.add_edge(1, 0, NO_LABEL).unwrap();
        // ...but an undirected edge on the same pair is not.
        assert_eq!(b.add_undirected_edge(0, 1, 0), Err(GraphError::MixedEdgeKinds(0, 1)));
    }

    #[test]
    fn rejects_directed_over_undirected() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(0);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        assert_eq!(b.add_edge(0, 1, NO_LABEL), Err(GraphError::MixedEdgeKinds(0, 1)));
        assert_eq!(b.add_undirected_edge(1, 0, NO_LABEL), Err(GraphError::DuplicateEdge(1, 0)));
    }

    #[test]
    fn degree_counts_distinct_neighbors() {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_edge(1, 0, NO_LABEL).unwrap(); // antiparallel: same neighbor
        b.add_edge(0, 2, NO_LABEL).unwrap();
        let g = b.build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.adj(0).len(), 3);
        assert_eq!(g.out_arcs(0), 2);
        assert_eq!(g.in_arcs(0), 1);
    }

    #[test]
    fn unlabeled_graph_reports_zero_labels() {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(2, 3, NO_LABEL).unwrap();
        let g = b.build();
        assert_eq!(g.vertex_label_count(), 0);
        assert_eq!(g.edge_label_count(), 0);
        assert!(!g.is_heterogeneous());
        assert!(!g.is_connected());
    }

    /// Pin the four label/direction statistics and Table IV's label count
    /// for a graph built through the builder and through relabeling.
    /// `expected` is (vertex labels, edge labels, heterogeneous, directed).
    fn check_statistics(
        labels: &[Label],
        edges: &[(VertexId, VertexId, Label, bool)],
        expected: (usize, usize, bool, bool),
    ) {
        let build = |labels: &[Label]| {
            let mut b = GraphBuilder::new();
            for &l in labels {
                b.add_vertex(l);
            }
            for &(s, d, l, directed) in edges {
                if directed {
                    b.add_edge(s, d, l).unwrap();
                } else {
                    b.add_undirected_edge(s, d, l).unwrap();
                }
            }
            b.build()
        };
        let relabeled = build(&vec![42; labels.len()]).with_vertex_labels(labels.to_vec());
        for g in [build(labels), relabeled] {
            let got = (
                g.vertex_label_count(),
                g.edge_label_count(),
                g.is_heterogeneous(),
                g.has_directed_edges(),
            );
            assert_eq!(got, expected, "labels {labels:?}");
            assert_eq!(crate::GraphStats::of(&g).label_count, expected.0, "labels {labels:?}");
        }
    }

    #[test]
    fn label_and_direction_statistics() {
        const X: Label = NO_LABEL;
        // All unlabeled: no labels at all, not heterogeneous.
        check_statistics(&[X, X, X], &[(0, 1, X, false), (1, 2, X, false)], (0, 0, false, false));
        // NO_LABEL mixed with two labels counts as a third vertex label.
        check_statistics(
            &[X, 0, 1, 0],
            &[(0, 1, 7, false), (1, 2, X, false), (2, 3, 8, false)],
            (3, 2, true, false),
        );
        // Labeled vertices, unlabeled edges: `l_e` is zero, but NO_LABEL
        // counts as one edge label towards heterogeneity.
        check_statistics(&[0, 1, 1], &[(0, 1, X, true), (2, 1, X, true)], (2, 0, true, true));
    }

    #[test]
    fn relabeling_preserves_structure() {
        let p = fig1_pattern();
        let g = p.with_vertex_labels(vec![9; 8]);
        assert_eq!(g.n(), p.n());
        assert_eq!(g.m(), p.m());
        assert_eq!(g.label(3), 9);
        assert_eq!(g.vertex_label_count(), 1);
    }

    #[test]
    fn edges_between_finds_all_parallel_arcs() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_edge(0, 1, 10).unwrap();
        b.add_edge(1, 0, 11).unwrap();
        let g = b.build();
        let between = g.edges_between(0, 1);
        assert_eq!(between.len(), 2);
        assert_eq!(g.edges_between(1, 0).len(), 2);
        assert!(between.iter().any(|a| a.orient == Orient::Out && a.elabel == 10));
        assert!(between.iter().any(|a| a.orient == Orient::In && a.elabel == 11));
    }

    #[test]
    fn average_degree() {
        let p = fig1_pattern();
        assert!((p.average_degree() - 2.0).abs() < 1e-9);
    }
}
