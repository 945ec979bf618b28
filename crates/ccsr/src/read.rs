//! `ReadCSR` — Algorithm 1 of the paper.
//!
//! For a given pattern `P` and variant `θ`, only a subset `G_C^*` of the
//! clusters is needed: one per pattern edge (by identifier lookup), plus —
//! for vertex-induced matching — the `(u_x, u_y)*`-clusters between the
//! labels of every pattern vertex pair, which drive negation. Those depend
//! only on the label pair, and most label pairs have no cluster, so
//! `ReadCSR` does not probe every pair of pattern labels. For each
//! distinct pattern label `a` it walks `a`'s run in `G_C` — the clusters
//! with `a` as their smaller label, [`Ccsr::label_run`] — and keeps the
//! clusters whose larger label is a pattern label too (`a` itself only
//! when two pattern vertices carry it). It records the label pairs it
//! found, which Algorithm 2 reads for its negation dependencies
//! ([`GcStar::adjacent_label_pairs`]).
//!
//! A read selects the clusters and never decodes them: the executor reads
//! rows straight from each cluster's row index
//! ([`Cluster::out_neighbors`]). Edge-induced and homomorphic reads cost
//! one pair-map lookup per pattern edge. A vertex-induced read adds
//! `O(|V_P| log |V_P|)` to sort the pattern labels, then per distinct
//! pattern label a binary search for its run and a walk over the run's
//! clusters up to the last pattern label, with one set lookup per label
//! pair passed, plus one load per selected cluster: bounded by the
//! clusters of the pattern labels' runs, not by `|L_P|²`, whatever the
//! data graph's vertex count.

use crate::build::Ccsr;
use crate::cluster::Cluster;
use crate::key::ClusterKey;
use csce_graph::graph::Edge;
use csce_graph::{FxHashMap, FxHashSet, Graph, Label, Variant};
use std::collections::hash_map::Entry;

/// The working set `G_C^*` for one matching task: references to the
/// selected clusters of `G_C`.
pub struct GcStar<'a> {
    ccsr: &'a Ccsr,
    clusters: FxHashMap<ClusterKey, &'a Cluster>,
    /// Vertex-induced reads only: the pattern label pairs `G_C` joins.
    adjacent_label_pairs: Option<Vec<(Label, Label)>>,
    stats: ReadStats,
}

/// What `ReadCSR` did: the CCSR-side work counters of one matching task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Clusters selected (distinct identifiers; repeated pattern edges
    /// share one cluster).
    pub clusters_read: u64,
    /// Rows the selected clusters' indexes address, out + in directions:
    /// the non-empty rows of a sparse index, all `n` of a dense one
    /// ([`Cluster::indexed_rows`]). No row is copied: the name predates
    /// the row index and stays because benchmark reports use it.
    pub rows_decompressed: u64,
    /// Cluster identifiers consulted that turned out empty in `G_C`.
    pub missing_clusters: u64,
}

/// The cluster identifier a pattern edge looks up (Algorithm 1, lines 3–8).
pub fn pattern_edge_key(p: &Graph, e: &Edge) -> ClusterKey {
    if e.directed {
        ClusterKey::directed(p.label(e.src), p.label(e.dst), e.label)
    } else {
        ClusterKey::undirected(p.label(e.src), p.label(e.dst), e.label)
    }
}

/// Algorithm 1: select the clusters needed by `(P, θ)`.
pub fn read_csr<'a>(ccsr: &'a Ccsr, p: &Graph, variant: Variant) -> GcStar<'a> {
    let mut clusters: FxHashMap<ClusterKey, &'a Cluster> = FxHashMap::default();
    let mut stats = ReadStats::default();
    let mut load = |c: &'a Cluster| {
        if let Entry::Vacant(slot) = clusters.entry(c.key) {
            stats.clusters_read += 1;
            stats.rows_decompressed += c.indexed_rows() as u64;
            slot.insert(c);
        }
    };
    for e in p.edges() {
        match ccsr.cluster(&pattern_edge_key(p, e)) {
            Some(c) => load(c),
            None => stats.missing_clusters += 1,
        }
    }
    // Induced matching needs every cluster between the labels of each
    // pattern vertex pair: unconnected pairs for negation, and connected
    // pairs to reject candidates carrying extra arcs (e.g. an antiparallel
    // data arc the pattern does not have).
    let adjacent_label_pairs = (variant == Variant::VertexInduced).then(|| {
        let mut pairs = Vec::new();
        walk_label_pairs(ccsr, p, |a, b, group| {
            group.iter().for_each(&mut load);
            pairs.push((a, b));
        });
        pairs
    });
    GcStar { ccsr, clusters, adjacent_label_pairs, stats }
}

/// The unordered pairs of `p`'s labels that some data edge joins, as a
/// vertex-induced [`read_csr`] records them
/// ([`GcStar::adjacent_label_pairs`]), without selecting any cluster.
pub fn adjacent_label_pairs(ccsr: &Ccsr, p: &Graph) -> Vec<(Label, Label)> {
    let mut pairs = Vec::new();
    walk_label_pairs(ccsr, p, |a, b, _| pairs.push((a, b)));
    pairs
}

/// Visit every label pair `(a, b)`, `a ≤ b`, of `p`'s labels that has
/// clusters in `G_C` — `(a, a)` only when two pattern vertices carry `a` —
/// with its clusters, in ascending pair order. For each distinct pattern
/// label `a` it walks `a`'s run group by group, up to the last pattern
/// label, and keeps the groups whose larger label is a pattern label.
fn walk_label_pairs<'a>(
    ccsr: &'a Ccsr,
    p: &Graph,
    mut visit: impl FnMut(Label, Label, &'a [Cluster]),
) {
    let mut labels = p.labels().to_vec();
    labels.sort_unstable();
    let in_pattern: FxHashSet<Label> = labels.iter().copied().collect();
    let last = labels.last().copied().unwrap_or_default();
    // Each distinct pattern label, and whether two pattern vertices carry it.
    for same in labels.chunk_by(|x, y| x == y) {
        let (Some(&a), repeated) = (same.first(), same.len() > 1) else { continue };
        for group in ccsr.label_run(a).chunk_by(|x, y| x.key.label_pair() == y.key.label_pair()) {
            let Some(b) = group.first().map(|c| c.key.label_pair().1) else { continue };
            if b > last {
                break;
            }
            if (b != a || repeated) && in_pattern.contains(&b) {
                visit(a, b, group);
            }
        }
    }
}

impl<'a> GcStar<'a> {
    /// The underlying `G_C` (vertex labels, label frequencies, indexes).
    #[inline]
    pub fn ccsr(&self) -> &'a Ccsr {
        self.ccsr
    }

    /// Look up a selected cluster; `None` means no data edge matches that
    /// identifier (the cluster is empty).
    #[inline]
    pub fn get(&self, key: &ClusterKey) -> Option<&'a Cluster> {
        self.clusters.get(key).copied()
    }

    /// The cluster serving one pattern edge, if non-empty.
    #[inline]
    pub fn cluster_for_edge(&self, p: &Graph, e: &Edge) -> Option<&'a Cluster> {
        self.get(&pattern_edge_key(p, e))
    }

    /// The unordered pairs `(a, b)`, `a ≤ b`, of pattern labels that some
    /// data edge joins, ascending — `(a, a)` only when two pattern
    /// vertices carry `a` — or `None` unless this working set was read for
    /// vertex-induced matching. Algorithm 2 line 8 adds a negation
    /// dependency between non-adjacent pattern vertices exactly when their
    /// labels form such a pair.
    pub fn adjacent_label_pairs(&self) -> Option<&[(Label, Label)]> {
        self.adjacent_label_pairs.as_deref()
    }

    /// Number of selected clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Work counters of the `ReadCSR` call that built this working set.
    pub fn read_stats(&self) -> ReadStats {
        self.stats
    }

    /// Heap bytes of the clusters this working set references (they live
    /// in `G_C`; the working set copies none of them), for the
    /// CCSR-overhead experiments (Fig. 11).
    pub fn heap_bytes(&self) -> usize {
        self.clusters.values().map(|c| c.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ccsr;
    use csce_graph::{GraphBuilder, VertexId, NO_LABEL};
    use proptest::prelude::*;

    /// The vertex-pair loop that the run walk replaced, kept as its
    /// oracle: it loads the clusters between the labels of every pair of
    /// pattern vertices, and records each such label pair with clusters.
    fn read_csr_vertex_pairs<'a>(ccsr: &'a Ccsr, p: &Graph, variant: Variant) -> GcStar<'a> {
        let mut star = read_csr(ccsr, p, Variant::EdgeInduced);
        if variant == Variant::VertexInduced {
            let mut pairs = std::collections::BTreeSet::new();
            let n = p.n() as VertexId;
            for a in 0..n {
                for b in a + 1..n {
                    let (la, lb) = (p.label(a), p.label(b));
                    for c in ccsr.negation_clusters(la, lb) {
                        pairs.insert((la.min(lb), la.max(lb)));
                        if let Entry::Vacant(slot) = star.clusters.entry(c.key) {
                            star.stats.clusters_read += 1;
                            star.stats.rows_decompressed += c.indexed_rows() as u64;
                            slot.insert(c);
                        }
                    }
                }
            }
            star.adjacent_label_pairs = Some(pairs.into_iter().collect());
        }
        star
    }

    /// The run walk selects exactly what the vertex-pair loop does: the
    /// same counters, clusters, heap bytes and adjacent label pairs, in
    /// every variant, and the pairs [`adjacent_label_pairs`] returns.
    fn assert_matches_vertex_pair_oracle(gc: &Ccsr, p: &Graph) {
        for variant in Variant::ALL {
            let got = read_csr(gc, p, variant);
            let want = read_csr_vertex_pairs(gc, p, variant);
            prop_assert_eq!(got.read_stats(), want.read_stats(), "{}", variant);
            prop_assert_eq!(got.cluster_count(), want.cluster_count(), "{}", variant);
            prop_assert!(want.clusters.keys().all(|k| got.get(k).is_some()), "{}", variant);
            prop_assert_eq!(got.heap_bytes(), want.heap_bytes(), "{}", variant);
            prop_assert_eq!(got.adjacent_label_pairs(), want.adjacent_label_pairs(), "{}", variant);
        }
        let walked = adjacent_label_pairs(gc, p);
        let read = read_csr(gc, p, Variant::VertexInduced);
        prop_assert_eq!(Some(&walked[..]), read.adjacent_label_pairs());
    }

    /// SplitMix64: the random source of the oracle property.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A label count: one label (every pair is a same-label pair), a
        /// few (labels repeat), or up to 40 (most are distinct).
        fn label_count(&mut self) -> usize {
            match self.below(4) {
                0 => 1,
                1 => 1 + self.below(4),
                _ => 1 + self.below(40),
            }
        }
    }

    /// A random graph: `n` vertices over the vertex labels `labels` and
    /// `edges` attempted edges, directed or undirected, with three edge
    /// labels plus none. Rejected edges (self-loops, duplicates, mixed
    /// kinds) are skipped.
    fn random_graph(
        rng: &mut Rng,
        n: usize,
        labels: std::ops::Range<usize>,
        edges: usize,
    ) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex((labels.start + rng.below(labels.len())) as u32);
        }
        for _ in 0..edges {
            let (x, y) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
            let label = match rng.below(4) {
                3 => NO_LABEL,
                l => l as u32,
            };
            let _ = if rng.below(3) == 0 {
                b.add_undirected_edge(x, y, label)
            } else {
                b.add_edge(x, y, label)
            };
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The run walk matches the vertex-pair oracle on 1–48-vertex
        /// patterns over 1–40 labels (one label, a few repeated ones, or
        /// mostly distinct ones) and data graphs whose labels start past
        /// some pattern labels and run past the pattern's last one, so
        /// some pattern labels are missing from `G_C` and `G_C` carries
        /// labels the pattern lacks.
        #[test]
        fn label_pair_read_matches_vertex_pair_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let (n, labels) = (1 + rng.below(48), rng.label_count());
            let p_edges = rng.below(2 * n + 1);
            let p = random_graph(&mut rng, n, 0..labels, p_edges);
            let data_n = 2 + rng.below(80);
            let data_edges = rng.below(4 * data_n);
            let first = rng.below(labels / 2 + 1);
            let extra = rng.below(4);
            let g = random_graph(&mut rng, data_n, first..labels + extra, data_edges);
            assert_matches_vertex_pair_oracle(&build_ccsr(&g).unwrap(), &p);
        }
    }

    /// 500- and 2000-vertex patterns sampled from a 20 000-vertex power-law
    /// graph with 2000 random vertex labels (the Fig. 10 shape), where the
    /// run walk replaces ~10⁵ label-pair probes.
    #[test]
    fn label_pair_read_matches_vertex_pair_oracle_at_2000_labels() {
        use csce_graph::generate::{chung_lu, randomize_vertex_labels};
        use csce_graph::sample::PatternSampler;
        use csce_graph::Density;
        let g = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 7), 2000, 7);
        let gc = build_ccsr(&g).unwrap();
        let mut sampler = PatternSampler::new(&g, 7);
        for size in [500, 2000] {
            let sp = sampler.sample(size, Density::Sparse).expect("a sparse pattern");
            assert_matches_vertex_pair_oracle(&gc, &sp.pattern);
            let pairs = read_csr(&gc, &sp.pattern, Variant::VertexInduced);
            assert!(pairs.adjacent_label_pairs().is_some_and(|pairs| pairs.len() > size));
        }
    }

    /// Data: labels 0,1,2; edges (0)-(1) directed per label combination.
    fn data() -> Ccsr {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(2);
        let v3 = b.add_vertex(1);
        b.add_edge(v0, v1, NO_LABEL).unwrap();
        b.add_edge(v0, v2, NO_LABEL).unwrap();
        b.add_edge(v1, v2, NO_LABEL).unwrap();
        b.add_edge(v3, v2, NO_LABEL).unwrap();
        build_ccsr(&b.build()).unwrap()
    }

    fn pattern_edge_01() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.build()
    }

    #[test]
    fn loads_only_pattern_edge_clusters() {
        let gc = data();
        let p = pattern_edge_01();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        assert_eq!(star.cluster_count(), 1);
        let d = star.cluster_for_edge(&p, &p.edges()[0]).unwrap();
        assert_eq!(d.out_neighbors(0), &[1]);
    }

    #[test]
    fn vertex_induced_adds_negation_clusters() {
        let gc = data();
        // Pattern: 0(label 0) -> 1(label 1), plus an isolated-but-connected
        // story needs 3 vertices: path 0 -> 1 -> 2 with labels 0,1,2 and no
        // edge between pattern 0 and 2 => negation clusters for labels (0,2).
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_edge(1, 2, NO_LABEL).unwrap();
        let p = b.build();
        let star_e = read_csr(&gc, &p, Variant::EdgeInduced);
        assert_eq!(star_e.cluster_count(), 2);
        let star_v = read_csr(&gc, &p, Variant::VertexInduced);
        // Adds the (0,2) directed cluster for negation.
        assert_eq!(star_v.cluster_count(), 3);
        let negation = gc.negation_clusters(0, 2);
        assert_eq!(negation.len(), 1);
        assert!(star_v.get(&negation[0].key).is_some());
    }

    #[test]
    fn missing_clusters_stay_missing() {
        let gc = data();
        let mut b = GraphBuilder::new();
        b.add_vertex(5); // label that does not exist in the data
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        let p = b.build();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        assert_eq!(star.cluster_count(), 0);
        assert!(star.cluster_for_edge(&p, &p.edges()[0]).is_none());
    }

    #[test]
    fn duplicate_pattern_edges_share_one_cluster() {
        let gc = data();
        // Two pattern edges with identical identifiers: star of label-1
        // leaves under a label-0 root... both edges map to the same cluster.
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_edge(0, 2, NO_LABEL).unwrap();
        let p = b.build();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        assert_eq!(star.cluster_count(), 1);
    }
}
