//! Offline clustering: building `G_C` from a data graph.
//!
//! The build is one counting sort. One hash lookup per edge numbers its
//! cluster by [`ClusterKey`] and counts the cluster's edges (the paper's
//! `O(|E|)` clustering bound). The distinct keys are ordered once by
//! `(label pair, key)`, the order [`Ccsr`] keeps. Every edge then writes
//! its two arcs into one flat buffer at its cluster's cursor, and each
//! direction's slice is sorted into its row index (the `2|E| log 2|E|`
//! sorting bound). No per-cluster list is grown and no `O(n)` work is done
//! per cluster. `Ccsr::from_parts` then numbers the vertex labels in one
//! table with their counts, and derives the label-pair CSR (a [`Csr`]
//! built from its row ends) and the key index from the ordered table, one
//! pass each. After construction the original [`Graph`] is no longer
//! needed: the `Ccsr` keeps the vertex labels and every edge (twice, in
//! exactly one cluster).

use crate::cluster::Cluster;
use crate::index::RowIndex;
use crate::key::ClusterKey;
use crate::CcsrError;
use csce_graph::util::Csr;
use csce_graph::{FxHashMap, Graph, Label, VertexId};
use std::ops::Range;

/// The set of all clustered CSRs of a data graph — the paper's `G_C`.
#[derive(Clone, Debug)]
pub struct Ccsr {
    n: u32,
    vertex_labels: Vec<Label>,
    /// Every cluster, ordered by `(label_pair, key)`: the clusters between
    /// one unordered label pair are contiguous and in key order.
    clusters: Vec<Cluster>,
    /// The distinct vertex labels, ascending, each with the number of
    /// vertices carrying it: label id `i` is `labels[i].0`.
    labels: Vec<(Label, u32)>,
    /// The label-pair CSR over label ids. Row `a` lists the pairs `(a, b)`,
    /// `a ≤ b`, that have clusters, each entry `(b, first cluster)`,
    /// ascending `b`. The entries are in table order, so a pair's clusters
    /// end where the next entry's begin, and row `a`'s clusters are `a`'s
    /// *run*: every cluster whose smaller label is `a`.
    /// [`Ccsr::negation_clusters`] finds a row by binary search over the
    /// labels; `ReadCSR` walks the rows of the pattern's labels for the
    /// label pairs `G_C` joins.
    pairs: Csr<(u32, u32)>,
    /// The key index [`Ccsr::cluster`] probes: an open-addressing table of
    /// cluster indexes (`u32::MAX` for an empty slot), a power of two at
    /// least twice the cluster count, each key probing linearly from its
    /// hash. One probe, usually, per pattern edge.
    slots: Vec<u32>,
}

/// Cluster all edges of `g` into CCSR form (the offline stage of Fig. 2).
/// Fails with [`CcsrError::Overflow`] when the graph exceeds the 32-bit
/// budgets of the CCSR layout (vertex ids, cluster count, per-cluster arc
/// counts).
pub fn build_ccsr(g: &Graph) -> Result<Ccsr, CcsrError> {
    let n = g.n();
    let n32 = u32::try_from(n).map_err(|_| CcsrError::Overflow { what: "vertex count" })?;
    let edges = g.edges();
    // Number the clusters in order of first appearance and count their
    // edges: one lookup per edge, none while the key repeats.
    let mut ids: FxHashMap<ClusterKey, usize> = FxHashMap::default();
    let mut keys: Vec<ClusterKey> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut edge_ids: Vec<usize> = Vec::with_capacity(edges.len());
    let mut last = None;
    for e in edges {
        let key = ClusterKey::of_edge(g, e.src, e.dst, e.label, e.directed);
        let id = match last {
            Some((k, id)) if k == key => id,
            _ => *ids.entry(key).or_insert_with(|| {
                keys.push(key);
                sizes.push(0);
                keys.len() - 1
            }),
        };
        last = Some((key, id));
        sizes[id] += 1;
        edge_ids.push(id);
    }
    drop(ids);
    // `Ccsr` addresses its cluster table with `u32` ranges.
    u32::try_from(keys.len()).map_err(|_| CcsrError::Overflow { what: "cluster count" })?;
    // Order the clusters once, as `Ccsr` keeps them, and lay their arcs
    // out in that order, `2 · edges` each: a directed cluster's out arcs
    // then its in arcs, an undirected cluster's one list.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&id| (keys[id].label_pair(), keys[id]));
    // Per cluster: the next free position and the distance from an arc to
    // its reverse (the in half of a directed cluster, or the next slot).
    let mut cursors = vec![(0, 0); keys.len()];
    let mut end = 0;
    for &id in &order {
        cursors[id] = (end, if keys[id].directed { sizes[id] } else { 1 });
        end += 2 * sizes[id];
    }
    // Counting-sort scatter: each edge writes its arc and its reverse.
    let mut arcs: Vec<(VertexId, VertexId)> = vec![(0, 0); 2 * edges.len()];
    for (e, &id) in edges.iter().zip(&edge_ids) {
        let (at, reverse) = &mut cursors[id];
        arcs[*at] = (e.src, e.dst);
        arcs[*at + *reverse] = (e.dst, e.src);
        *at += if e.directed { 1 } else { 2 };
    }
    drop(edge_ids);
    // Each cluster's slice becomes its row indexes.
    let mut rest: &mut [(VertexId, VertexId)] = &mut arcs;
    let mut clusters = Vec::with_capacity(keys.len());
    for &id in &order {
        let (key, size) = (keys[id], sizes[id]);
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut(2 * size);
        rest = tail;
        let (out, inc) = if key.directed {
            let (out, inc) = slice.split_at_mut(size);
            (RowIndex::from_sorted(n, out)?, Some(RowIndex::from_sorted(n, inc)?))
        } else {
            (RowIndex::from_sorted(n, slice)?, None)
        };
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

    /// Number of vertices carrying label `l`, 0 for none (plan
    /// heuristics' final tie-break): its label id's entry of the labels.
    #[inline]
    pub fn label_frequency(&self, l: Label) -> u32 {
        let id = self.label_id(l);
        id.and_then(|i| self.labels.get(i as usize)).map_or(0, |&(_, count)| count)
    }

    /// Look up one cluster by identifier, in the key index: an empty slot
    /// ends the probe.
    #[inline]
    pub fn cluster(&self, key: &ClusterKey) -> Option<&Cluster> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = slot(key, self.slots.len());
        loop {
            let c = self.clusters.get(*self.slots.get(at)? as usize)?;
            if c.key == *key {
                return Some(c);
            }
            at = (at + 1) & mask;
        }
    }

    /// All clusters, ordered by `(label pair, key)`.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter()
    }

    /// Number of clusters (`c` in the space analysis).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// All clusters between an unordered vertex-label pair, in key order —
    /// the `(u_x, u_y)*`-clusters. Label ids order like the labels, so the
    /// smaller label's row holds the pair: one binary search per label and
    /// one in the row.
    pub fn negation_clusters(&self, a: Label, b: Label) -> &[Cluster] {
        let (Some(a), Some(b)) = (self.label_id(a.min(b)), self.label_id(a.max(b))) else {
            return &[];
        };
        let (first, row) = self.pair_row(a);
        let k = row.partition_point(|&(x, _)| x < b);
        match row.get(k) {
            Some(&(x, _)) if x == b => self.clusters_at(self.entry_range(first + k)),
            _ => &[],
        }
    }

    /// The label id of `l`: its rank among the distinct vertex labels, or
    /// `None` when no vertex carries `l`. Labels are usually dense from 0,
    /// where `l`'s rank is `l` itself: that entry is read first, and only
    /// a miss pays a binary search.
    #[inline]
    pub(crate) fn label_id(&self, l: Label) -> Option<u32> {
        match self.labels.get(l as usize) {
            Some(&(x, _)) if x == l => Some(l),
            _ => self.labels.binary_search_by_key(&l, |&(x, _)| x).ok()?.try_into().ok(),
        }
    }

    /// Row `a` of the label-pair CSR, `(larger label id, first cluster)`
    /// per pair, ascending, with the index of its first entry.
    pub(crate) fn pair_row(&self, a: u32) -> (usize, &[(u32, u32)]) {
        (self.pairs.row_start(a as usize), self.pairs.row(a as usize))
    }

    /// The clusters of entry `e` of the label-pair CSR, as a range of the
    /// table: from its first cluster to the next entry's (empty past the
    /// last entry).
    pub(crate) fn entry_range(&self, e: usize) -> Range<usize> {
        let first =
            |e: usize| self.pairs.items().get(e).map_or(self.clusters.len(), |&(_, c)| c as usize);
        first(e)..first(e + 1)
    }

    /// The clusters at `range` of the table (none past its end).
    pub(crate) fn clusters_at(&self, range: Range<usize>) -> &[Cluster] {
        self.clusters.get(range).unwrap_or(&[])
    }

    /// Total `I_C` length over all clusters; equals `2|E|` by construction.
    pub fn total_ic_len(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.out.arc_count() + c.inc.as_ref().map_or(0, RowIndex::arc_count))
            .sum()
    }

    /// Total row-index (`I_R`) length over all clusters: `2 · rows + 1` per
    /// sparse index, `n + 1` per dense one; bounded by `4|E|`.
    pub fn total_ir_len(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.out.ir_len() + c.inc.as_ref().map_or(0, RowIndex::ir_len))
            .sum()
    }

    /// Heap bytes of the whole `G_C`: the vertex labels, the label table,
    /// the cluster table and its row buffers, the label-pair CSR and the
    /// key index.
    pub fn heap_bytes(&self) -> usize {
        self.vertex_labels.capacity() * std::mem::size_of::<Label>()
            + self.clusters.capacity() * std::mem::size_of::<Cluster>()
            + self.clusters.iter().map(Cluster::heap_bytes).sum::<usize>()
            + self.labels.capacity() * std::mem::size_of::<(Label, u32)>()
            + self.pairs.heap_bytes()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// The one constructor, shared by [`build_ccsr`] and decoding: it
    /// orders the clusters by `(label pair, key)` (a linear pass when they
    /// already are, as a build's are), numbers the distinct vertex labels
    /// with their counts and derives the label-pair CSR and the key index
    /// from that order: the smaller labels ascend, so a cursor finds their
    /// ids and where each row ends, and one hash lookup per pair finds the
    /// larger label's. A
    /// pair with a label no vertex carries is left out of the CSR; such a
    /// `G_C` fails [`Ccsr::check`] (`key-label-agreement`), which callers
    /// run on the result.
    pub(crate) fn from_parts(
        n: u32,
        vertex_labels: Vec<Label>,
        mut clusters: Vec<Cluster>,
    ) -> Ccsr {
        let mut counts: FxHashMap<Label, u32> = FxHashMap::default();
        for &l in &vertex_labels {
            *counts.entry(l).or_insert(0) += 1;
        }
        let mut labels: Vec<(Label, u32)> = counts.into_iter().collect();
        labels.sort_unstable();
        clusters.sort_unstable_by_key(|c| (c.key.label_pair(), c.key));
        clusters.shrink_to_fit();
        let ids: FxHashMap<Label, u32> = labels.iter().map(|&(l, _)| l).zip(0..).collect();
        let (mut ends, mut pairs) = (Vec::with_capacity(labels.len() + 1), Vec::new());
        let (mut last, mut a) = (None, 0);
        for (i, c) in (0u32..).zip(&clusters) {
            let pair = c.key.label_pair();
            if last.replace(pair) == Some(pair) {
                continue;
            }
            while labels.get(a).is_some_and(|&(l, _)| l < pair.0) {
                a += 1;
            }
            match (labels.get(a), ids.get(&pair.1)) {
                (Some(&(l, _)), Some(&b)) if l == pair.0 => {
                    // Every row before `a` ends here.
                    ends.resize(a, pairs.len());
                    pairs.push((b, i));
                }
                _ => {}
            }
        }
        ends.resize(labels.len(), pairs.len());
        pairs.shrink_to_fit();
        let pairs = Csr::from_ends(ends, pairs);
        // The cluster count fits a `u32` (builds and decodes check it), so
        // no index is the empty mark.
        let len = (2 * clusters.len()).next_power_of_two();
        let mut slots = vec![u32::MAX; len];
        for (i, c) in (0u32..).zip(&clusters) {
            let mut at = slot(&c.key, len);
            while slots[at] != u32::MAX {
                at = (at + 1) & (len - 1);
            }
            slots[at] = i;
        }
        Ccsr { n, vertex_labels, clusters, labels, pairs, slots }
    }
}

/// The home slot of `key` in a key index of `len` slots (a power of two):
/// the top bits of a multiplicative hash.
#[inline]
fn slot(key: &ClusterKey, len: usize) -> usize {
    let pair = u64::from(key.src_label) << 32 | u64::from(key.dst_label);
    let rest = u64::from(key.edge_label) << 1 | u64::from(key.directed);
    let hash =
        (pair.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rest).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    hash.checked_shr((len as u64).leading_zeros() + 1).unwrap_or(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use crate::read::tests::Rng;
    use csce_graph::{GraphBuilder, NO_LABEL};
    use proptest::prelude::*;

    /// The pair index the label-pair CSR replaced, kept as its oracle: a
    /// hash map from each unordered label pair to its range of the table.
    struct PairMap {
        pairs: FxHashMap<(Label, Label), (u32, u32)>,
    }

    impl PairMap {
        fn new(gc: &Ccsr) -> PairMap {
            let mut pairs = FxHashMap::default();
            for (i, c) in (0u32..).zip(gc.clusters()) {
                pairs.entry(c.key.label_pair()).or_insert((i, i)).1 = i + 1;
            }
            PairMap { pairs }
        }

        fn negation_clusters<'c>(&self, gc: &'c Ccsr, a: Label, b: Label) -> &'c [Cluster] {
            match self.pairs.get(&(a.min(b), a.max(b))) {
                Some(&(lo, hi)) => gc.clusters_at(lo as usize..hi as usize),
                None => &[],
            }
        }
    }

    /// Whether two cluster slices are the same clusters of one table.
    fn same(a: &[Cluster], b: &[Cluster]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(x, y))
    }

    /// Vertex labels for the oracle property, the `u32` extremes included
    /// (`u32::MAX` is `NO_LABEL`, the largest label a vertex may carry is
    /// one less); each also asked about one off, so that labels no vertex
    /// carries are asked about too.
    const POOL: [Label; 8] = [0, 1, 2, 5, 1000, 1 << 31, u32::MAX - 2, u32::MAX - 1];

    /// `negation_clusters` of every asked label pair is the pair map's, and
    /// the key index finds every cluster of the table and, of every key
    /// over the asked labels, exactly the one the pair map's group holds.
    fn assert_matches_pair_map(gc: &Ccsr, asked: &[Label]) {
        let oracle = PairMap::new(gc);
        for c in gc.clusters() {
            prop_assert!(gc.cluster(&c.key).is_some_and(|found| std::ptr::eq(found, c)));
        }
        for &a in asked {
            for &b in asked {
                let (got, want) = (gc.negation_clusters(a, b), oracle.negation_clusters(gc, a, b));
                prop_assert!(same(got, want), "clusters of ({}, {})", a, b);
                for edge in [0, 1, NO_LABEL] {
                    for key in
                        [ClusterKey::directed(a, b, edge), ClusterKey::undirected(a, b, edge)]
                    {
                        let want = want.iter().find(|c| c.key == key);
                        prop_assert_eq!(
                            gc.cluster(&key).map(std::ptr::from_ref),
                            want.map(std::ptr::from_ref)
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The label-pair CSR answers `negation_clusters` for every pair
        /// of asked labels as the pair map did, and the key index finds
        /// each key's cluster, for a built `G_C` and for its `persist`
        /// round trip, whose answers are the same clusters by key. Graphs
        /// have 2–60 vertices over a random subset of [`POOL`], with
        /// directed and undirected edges and edge labels.
        #[test]
        fn label_pair_csr_matches_pair_map_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let pool: Vec<Label> = POOL.iter().copied().filter(|_| rng.below(2) == 0).collect();
            let pool = if pool.is_empty() { vec![POOL[rng.below(POOL.len())]] } else { pool };
            let mut b = GraphBuilder::new();
            let n = 2 + rng.below(59);
            for _ in 0..n {
                b.add_vertex(pool[rng.below(pool.len())]);
            }
            for _ in 0..rng.below(4 * n) {
                let (x, y) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
                let label = [0, 1, NO_LABEL][rng.below(3)];
                let _ = if rng.below(3) == 0 {
                    b.add_undirected_edge(x, y, label)
                } else {
                    b.add_edge(x, y, label)
                };
            }
            let gc = build_ccsr(&b.build()).unwrap();
            let back = persist::from_bytes(&persist::to_bytes(&gc).unwrap()).unwrap();
            let mut asked: Vec<Label> =
                POOL.iter().flat_map(|&l| [l.saturating_sub(1), l, l.saturating_add(1)]).collect();
            asked.sort_unstable();
            asked.dedup();
            assert_matches_pair_map(&gc, &asked);
            assert_matches_pair_map(&back, &asked);
            let keys = |c: &[Cluster]| c.iter().map(|c| c.key).collect::<Vec<_>>();
            for &a in &asked {
                for &b in &asked {
                    let (x, y) = (back.negation_clusters(a, b), gc.negation_clusters(a, b));
                    prop_assert_eq!(keys(x), keys(y), "({}, {})", a, b);
                }
            }
        }
    }

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
        let keys: Vec<ClusterKey> = gc.negation_clusters(1, 0).iter().map(|c| c.key).collect();
        assert_eq!(
            keys,
            [ClusterKey::directed(0, 1, NO_LABEL), ClusterKey::directed(1, 0, NO_LABEL)]
        );
        assert!(gc.negation_clusters(5, 6).is_empty());
    }

    #[test]
    fn labels_survive_without_graph() {
        let g = fig1_data_graph();
        let gc = build_ccsr(&g).unwrap();
        for v in 0..g.n() as u32 {
            assert_eq!(gc.vertex_label(v), g.label(v));
        }
        for &l in g.labels() {
            let count = g.labels().iter().filter(|&&x| x == l).count();
            assert_eq!(gc.label_frequency(l) as usize, count, "label {l}");
        }
        assert_eq!(gc.label_frequency(9), 0, "a label no vertex carries");
    }

    #[test]
    fn heap_bytes_count_every_table() {
        let gc = build_ccsr(&fig1_data_graph()).unwrap();
        let rows: usize = gc.clusters().map(Cluster::heap_bytes).sum();
        let table = gc.cluster_count() * std::mem::size_of::<Cluster>();
        let labels = gc.n() * std::mem::size_of::<Label>();
        assert!(gc.heap_bytes() >= table + rows + labels, "{}", gc.heap_bytes());
    }
}
