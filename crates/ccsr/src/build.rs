//! Offline clustering: building `G_C` from a data graph.
//!
//! Each edge is routed to its cluster by [`ClusterKey`] in O(1), giving
//! the paper's `O(|E|)` clustering bound; each cluster's row indexes are
//! built from its sorted arcs, giving the `2|E| log 2|E|` sorting bound and
//! no `O(n)` work per cluster. After construction the original [`Graph`]
//! is no longer needed: the `Ccsr` keeps the vertex labels and every edge
//! (twice, in exactly one cluster).

use crate::cluster::Cluster;
use crate::index::RowIndex;
use crate::key::ClusterKey;
use crate::CcsrError;
use csce_graph::{FxHashMap, Graph, Label, VertexId};

/// The set of all clustered CSRs of a data graph — the paper's `G_C`.
#[derive(Clone, Debug)]
pub struct Ccsr {
    n: u32,
    vertex_labels: Vec<Label>,
    label_freq: FxHashMap<Label, u32>,
    clusters: FxHashMap<ClusterKey, Cluster>,
    /// Unordered label pair → all cluster keys between those labels; this
    /// is the `(u_x, u_y)*`-clusters index used for vertex-induced
    /// negation (Algorithms 1 and 2).
    pair_index: FxHashMap<(Label, Label), Vec<ClusterKey>>,
}

/// Cluster all edges of `g` into CCSR form (the offline stage of Fig. 2).
/// Fails with [`CcsrError::Overflow`] when the graph exceeds the 32-bit
/// budgets of the CCSR layout (vertex ids, per-cluster arc counts).
pub fn build_ccsr(g: &Graph) -> Result<Ccsr, CcsrError> {
    let n = g.n();
    let n32 = u32::try_from(n).map_err(|_| CcsrError::Overflow { what: "vertex count" })?;
    // Route each arc to its cluster: O(|E|).
    let mut out_pairs: FxHashMap<ClusterKey, Vec<(VertexId, VertexId)>> = FxHashMap::default();
    let mut in_pairs: FxHashMap<ClusterKey, Vec<(VertexId, VertexId)>> = FxHashMap::default();
    for e in g.edges() {
        let key = ClusterKey::of_edge(g, e.src, e.dst, e.label, e.directed);
        if e.directed {
            out_pairs.entry(key).or_default().push((e.src, e.dst));
            in_pairs.entry(key).or_default().push((e.dst, e.src));
        } else {
            let v = out_pairs.entry(key).or_default();
            v.push((e.src, e.dst));
            v.push((e.dst, e.src));
        }
    }
    // Sort each cluster's arcs into its row indexes: O(arcs log arcs).
    let mut clusters = Vec::with_capacity(out_pairs.len());
    for (key, pairs) in out_pairs {
        let out = RowIndex::from_arcs(n, pairs)?;
        let inc = in_pairs.remove(&key).map(|pairs| RowIndex::from_arcs(n, pairs)).transpose()?;
        clusters.push(Cluster { key, out, inc });
    }
    let ccsr = Ccsr::from_parts(n32, g.labels().to_vec(), clusters);
    debug_assert_eq!(ccsr.check(), Ok(()), "build_ccsr produced an invalid G_C");
    Ok(ccsr)
}

impl Ccsr {
    /// Number of data-graph vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Label of a data vertex (`G` itself is dropped; labels live here).
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        self.vertex_labels[v as usize]
    }

    /// All vertex labels indexed by vertex id.
    #[inline]
    pub fn vertex_labels(&self) -> &[Label] {
        &self.vertex_labels
    }

    /// Frequency of each vertex label (plan heuristics' final tie-break).
    #[inline]
    pub fn label_frequency(&self) -> &FxHashMap<Label, u32> {
        &self.label_freq
    }

    /// Look up one cluster by identifier.
    #[inline]
    pub fn cluster(&self, key: &ClusterKey) -> Option<&Cluster> {
        self.clusters.get(key)
    }

    /// All clusters.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.values()
    }

    /// Number of clusters (`c` in the space analysis).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// All cluster keys between an unordered vertex-label pair — the
    /// `(u_x, u_y)*`-clusters.
    pub fn negation_keys(&self, a: Label, b: Label) -> &[ClusterKey] {
        self.pair_index.get(&(a.min(b), a.max(b))).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total `I_C` length over all clusters; equals `2|E|` by construction.
    pub fn total_ic_len(&self) -> usize {
        self.clusters
            .values()
            .map(|c| c.out.arc_count() + c.inc.as_ref().map_or(0, RowIndex::arc_count))
            .sum()
    }

    /// Total row-index (`I_R`) length over all clusters: `2 · rows + 1` per
    /// sparse index, `n + 1` per dense one; bounded by `4|E|`.
    pub fn total_ir_len(&self) -> usize {
        self.clusters
            .values()
            .map(|c| c.out.ir_len() + c.inc.as_ref().map_or(0, RowIndex::ir_len))
            .sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.vertex_labels.capacity() * std::mem::size_of::<Label>()
            + self.clusters.values().map(|c| c.heap_bytes()).sum::<usize>()
    }

    /// The one constructor, shared by [`build_ccsr`] and decoding: it
    /// derives the label-frequency and negation indexes from the parts.
    /// Callers run [`Ccsr::check`] on the result.
    pub(crate) fn from_parts(n: u32, vertex_labels: Vec<Label>, clusters: Vec<Cluster>) -> Ccsr {
        let mut label_freq: FxHashMap<Label, u32> = FxHashMap::default();
        for &l in &vertex_labels {
            *label_freq.entry(l).or_insert(0) += 1;
        }
        let clusters: FxHashMap<ClusterKey, Cluster> =
            clusters.into_iter().map(|c| (c.key, c)).collect();
        let mut pair_index: FxHashMap<(Label, Label), Vec<ClusterKey>> = FxHashMap::default();
        for key in clusters.keys() {
            pair_index.entry(key.label_pair()).or_default().push(*key);
        }
        for keys in pair_index.values_mut() {
            keys.sort_unstable();
        }
        Ccsr { n, vertex_labels, label_freq, clusters, pair_index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{GraphBuilder, NO_LABEL};

    /// The data graph G of the paper's Fig. 1, reconstructed from the text:
    /// labels A=0, B=1, C=2, D=3; directed edges.
    pub(crate) fn fig1_data_graph() -> Graph {
        let mut b = GraphBuilder::new();
        // v1..v10 -> ids 0..9
        // Labels chosen to make (A,B) cluster = {v1->v2, v1->v6, v4->v5}
        // and (A,C) cluster = {v1->v3, v1->v10} as in Fig. 4.
        let labels = [0, 1, 2, 0, 1, 1, 2, 0, 1, 2]; // A B C A B B C A B C
        for &l in &labels {
            b.add_vertex(l);
        }
        let edges = [
            (0, 1), // v1->v2 (A,B)
            (0, 5), // v1->v6 (A,B)
            (3, 4), // v4->v5 (A,B)
            (0, 2), // v1->v3 (A,C)
            (0, 9), // v1->v10 (A,C)
            (7, 8), // v8->v9 (A,B)  extra structure
            (5, 6), // v6->v7 (B,C)
        ];
        for (s, d) in edges {
            b.add_edge(s, d, NO_LABEL).unwrap();
        }
        b.build()
    }

    #[test]
    fn clusters_partition_edges() {
        let g = fig1_data_graph();
        let gc = build_ccsr(&g).unwrap();
        let total_edges: usize = gc.clusters().map(|c| c.edge_count()).sum();
        assert_eq!(total_edges, g.m());
        assert_eq!(gc.total_ic_len(), 2 * g.m());
        assert!(gc.total_ir_len() <= 4 * 2 * g.m());
    }

    #[test]
    fn fig4_ab_cluster_contents() {
        let g = fig1_data_graph();
        let gc = build_ccsr(&g).unwrap();
        let key = ClusterKey::directed(0, 1, NO_LABEL);
        let d = gc.cluster(&key).expect("(A,B,NULL) cluster exists");
        // v1 (id 0) has outgoing neighbors v2, v6 (ids 1, 5) in the cluster.
        assert_eq!(d.out_neighbors(0), &[1, 5]);
        assert_eq!(d.out_neighbors(3), &[4]);
        assert_eq!(d.in_neighbors(1), &[0]);
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn unlabeled_graph_has_at_most_two_clusters() {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(5);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        b.add_undirected_edge(3, 4, NO_LABEL).unwrap();
        let gc = build_ccsr(&b.build()).unwrap();
        assert_eq!(gc.cluster_count(), 2); // one directed, one undirected
    }

    #[test]
    fn undirected_cluster_stores_each_edge_twice() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_undirected_edge(0, 1, 9).unwrap();
        let gc = build_ccsr(&b.build()).unwrap();
        let key = ClusterKey::undirected(0, 1, 9);
        let d = gc.cluster(&key).unwrap();
        assert_eq!(d.out_neighbors(0), &[1]);
        assert_eq!(d.out_neighbors(1), &[0]);
        assert!(d.inc.is_none());
    }

    #[test]
    fn edge_labels_split_clusters() {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(0, 2, 2).unwrap();
        let gc = build_ccsr(&b.build()).unwrap();
        assert_eq!(gc.cluster_count(), 2);
        assert!(gc.cluster(&ClusterKey::directed(NO_LABEL, NO_LABEL, 1)).is_some());
        assert!(gc.cluster(&ClusterKey::directed(NO_LABEL, NO_LABEL, 2)).is_some());
    }

    #[test]
    fn negation_index_covers_both_orientations() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(0);
        b.add_edge(0, 1, NO_LABEL).unwrap(); // (0,1) directed
        b.add_edge(1, 2, NO_LABEL).unwrap(); // (1,0) directed the other way
        let gc = build_ccsr(&b.build()).unwrap();
        let keys = gc.negation_keys(1, 0);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&ClusterKey::directed(0, 1, NO_LABEL)));
        assert!(keys.contains(&ClusterKey::directed(1, 0, NO_LABEL)));
        assert!(gc.negation_keys(5, 6).is_empty());
    }

    #[test]
    fn labels_survive_without_graph() {
        let g = fig1_data_graph();
        let gc = build_ccsr(&g).unwrap();
        for v in 0..g.n() as u32 {
            assert_eq!(gc.vertex_label(v), g.label(v));
        }
        assert_eq!(gc.label_frequency(), g.label_frequency());
    }
}
