//! `ReadCSR` — Algorithm 1 of the paper.
//!
//! For a given pattern `P` and variant `θ`, only a subset `G_C^*` of the
//! clusters is needed: one per pattern edge (by identifier lookup), plus —
//! for vertex-induced matching — the `(u_x, u_y)*`-clusters between the
//! labels of every pattern vertex pair, which drive negation. Those depend
//! only on the label pair, so `ReadCSR` visits each unordered pair of
//! pattern labels once (a label paired with itself only when two pattern
//! vertices carry it). It selects the clusters and never decodes them: the
//! executor reads rows straight from each cluster's row index
//! ([`Cluster::out_neighbors`]), so a read costs O(selected clusters),
//! whatever the data graph's vertex count.

use crate::build::Ccsr;
use crate::cluster::Cluster;
use crate::key::ClusterKey;
use csce_graph::graph::Edge;
use csce_graph::{FxHashMap, Graph, Label, Variant};
use std::collections::hash_map::Entry;

/// The working set `G_C^*` for one matching task: references to the
/// selected clusters of `G_C`.
pub struct GcStar<'a> {
    ccsr: &'a Ccsr,
    clusters: FxHashMap<ClusterKey, &'a Cluster>,
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
    if variant == Variant::VertexInduced {
        // Induced matching needs every cluster between the labels of each
        // pattern vertex pair: unconnected pairs for negation, and
        // connected pairs to reject candidates carrying extra arcs (e.g.
        // an antiparallel data arc the pattern does not have).
        let mut labels = p.labels().to_vec();
        labels.sort_unstable();
        // Each distinct label, and whether two pattern vertices carry it.
        let mut distinct: Vec<(Label, bool)> = Vec::new();
        for l in labels {
            match distinct.last_mut() {
                Some((last, repeated)) if *last == l => *repeated = true,
                _ => distinct.push((l, false)),
            }
        }
        let mut rest = distinct.as_slice();
        while let Some((&(a, repeated), tail)) = rest.split_first() {
            if repeated {
                ccsr.negation_clusters(a, a).iter().for_each(&mut load);
            }
            for &(b, _) in tail {
                ccsr.negation_clusters(a, b).iter().for_each(&mut load);
            }
            rest = tail;
        }
    }
    GcStar { ccsr, clusters, stats }
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

    /// The vertex-pair loop that the label-pair visit replaced, kept as
    /// its oracle: it loads the clusters between the labels of every pair
    /// of pattern vertices.
    fn read_csr_vertex_pairs<'a>(ccsr: &'a Ccsr, p: &Graph, variant: Variant) -> GcStar<'a> {
        let mut star = read_csr(ccsr, p, Variant::EdgeInduced);
        if variant == Variant::VertexInduced {
            let n = p.n() as VertexId;
            for a in 0..n {
                for b in a + 1..n {
                    for c in ccsr.negation_clusters(p.label(a), p.label(b)) {
                        if let Entry::Vacant(slot) = star.clusters.entry(c.key) {
                            star.stats.clusters_read += 1;
                            star.stats.rows_decompressed += c.indexed_rows() as u64;
                            slot.insert(c);
                        }
                    }
                }
            }
        }
        star
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
    }

    /// A random graph: `n` vertices over `labels` vertex labels and
    /// `edges` attempted edges, directed or undirected, with three edge
    /// labels plus none. Rejected edges (self-loops, duplicates, mixed
    /// kinds) are skipped.
    fn random_graph(rng: &mut Rng, n: usize, labels: usize, edges: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.below(labels) as u32);
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

        /// Visiting label pairs selects exactly what visiting vertex pairs
        /// did: the same counters, cluster count and heap bytes, in every
        /// variant, on 1–24-vertex patterns over 1–5 labels (so labels
        /// repeat) and data graphs with one more label than the pattern.
        #[test]
        fn label_pair_read_matches_vertex_pair_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let (n, labels) = (1 + rng.below(24), 1 + rng.below(5));
            let p_edges = rng.below(2 * n + 1);
            let p = random_graph(&mut rng, n, labels, p_edges);
            let data_n = 2 + rng.below(40);
            let data_edges = rng.below(3 * data_n);
            let gc = build_ccsr(&random_graph(&mut rng, data_n, labels + 1, data_edges)).unwrap();
            for variant in Variant::ALL {
                let got = read_csr(&gc, &p, variant);
                let want = read_csr_vertex_pairs(&gc, &p, variant);
                prop_assert_eq!(got.read_stats(), want.read_stats(), "{}", variant);
                prop_assert_eq!(got.cluster_count(), want.cluster_count(), "{}", variant);
                prop_assert_eq!(got.heap_bytes(), want.heap_bytes(), "{}", variant);
            }
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
