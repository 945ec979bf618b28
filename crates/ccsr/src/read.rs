//! `ReadCSR` — Algorithm 1 of the paper.
//!
//! For a given pattern `P` and variant `θ`, only a subset `G_C^*` of the
//! clusters is needed: one per pattern edge (by identifier lookup), plus —
//! for vertex-induced matching — the `(u_x, u_y)*`-clusters between the
//! labels of every pattern vertex pair, which drive negation. [`GcStar`]
//! is `P` resolved against `G_C` once, and the catalog, `BuildDAG` and the
//! executor read it instead of `G_C`'s maps: each pattern edge's cluster,
//! a dense id per pattern label, and the label pairs `G_C` joins, listed
//! over those ids from both ends.
//!
//! Most label pairs have no cluster, so the read does not probe every
//! pair of pattern labels: for each distinct pattern label `a` it walks
//! `a`'s row of `G_C`'s label-pair CSR (`a`'s run of clusters) up to the
//! last pattern label, and keeps the entries whose larger label is
//! a pattern label (`a` itself only when two pattern vertices carry it),
//! each checked by one read of a table from `G_C` label ids to pattern
//! label ids. A vertex-induced read walks at once, any other star on first
//! use. The read decodes no cluster: the executor reads rows in place
//! ([`Cluster::out_neighbors`]). Every read costs one key-index probe per
//! pattern edge and one sort of the pattern's `(label, vertex)` pairs,
//! which numbers the labels in one pass; the walk, a binary
//! search per pattern label, a table over the span of their `G_C` ids and
//! `O(1)` per walked entry — no merge, no hash probe. The kept pairs are
//! one [`Csr`] built from its row ends, and their transpose one built by
//! counting. The star also lists each pattern vertex's incident edges, in
//! one [`Csr`] built by counting, so every catalog over it borrows them.
//! The read's report counters ([`GcStar::read_stats`],
//! [`GcStar::heap_bytes`], [`GcStar::cluster_count`]) are computed from
//! the selected clusters when asked, so a query that reports nothing does
//! not pay for them.

use crate::build::Ccsr;
use crate::cluster::Cluster;
use crate::key::ClusterKey;
use csce_graph::graph::Edge;
use csce_graph::util::Csr;
use csce_graph::{Graph, Label, Variant, VertexId};
use std::ops::Range;
use std::sync::OnceLock;

/// Which endpoint of a pattern edge a pattern vertex is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    Src,
    Dst,
}

/// The working set `G_C^*` for one matching task: the pattern resolved
/// against `G_C`.
pub struct GcStar<'a> {
    ccsr: &'a Ccsr,
    /// Per pattern edge, in `p.edges()` order: its cluster, if any.
    edge_clusters: Vec<Option<&'a Cluster>>,
    /// Per pattern vertex, its incident edges in `p.edges()` order with
    /// its side of each.
    incident: Csr<(usize, Side)>,
    /// The distinct pattern labels, ascending (label id `l` is
    /// `labels[l]`), the pattern vertices of each, and each vertex's id.
    labels: Vec<Label>,
    label_sizes: Vec<usize>,
    label_id: Vec<usize>,
    /// The label pairs `G_C` joins, walked by a vertex-induced read and on
    /// first use otherwise.
    pairs: OnceLock<LabelPairs>,
    /// The variant the star was read for: which clusters it selects.
    variant: Variant,
}

/// The label pairs `G_C` joins, over label ids, one row per label: each
/// pair `(a, b)`, `a ≤ b`, sits once in `a`'s row of `upper`, ascending
/// `b`, with its range in `G_C`'s cluster table (a range, not a slice, so
/// the star's lazy cell holds no borrow), and `lower` is its transpose,
/// listing under each `b` the `a ≤ b` joined to it, ascending.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct LabelPairs {
    upper: Csr<(usize, Range<usize>)>,
    lower: Csr<usize>,
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
    let edge_clusters: Vec<Option<&'a Cluster>> =
        p.edges().iter().map(|e| ccsr.cluster(&pattern_edge_key(p, e))).collect();
    let (labels, label_sizes, label_id) = number_labels(p.labels());
    // Induced matching needs every cluster between the labels of each
    // pattern vertex pair: unconnected pairs for negation, and connected
    // pairs to reject candidates carrying extra arcs (e.g. an antiparallel
    // data arc the pattern does not have).
    let pairs = if variant == Variant::VertexInduced {
        OnceLock::from(walk_label_pairs(ccsr, &labels, &label_sizes))
    } else {
        OnceLock::new()
    };
    // Filling the rows in edge order keeps every row in edge order.
    let incident = Csr::by_row(
        p.n(),
        p.edges().iter().enumerate().flat_map(|(i, e)| {
            [(e.src as usize, (i, Side::Src)), (e.dst as usize, (i, Side::Dst))]
        }),
    );
    GcStar { ccsr, edge_clusters, incident, labels, label_sizes, label_id, pairs, variant }
}

/// The distinct labels of `vertex_labels`, ascending, the number of
/// vertices carrying each, and each vertex's label id (its label's rank
/// among them): one sort of the `(label, vertex)` pairs, each packed in a
/// `u64`, then one pass that numbers the labels as they change.
fn number_labels(vertex_labels: &[Label]) -> (Vec<Label>, Vec<usize>, Vec<usize>) {
    let mut pairs: Vec<u64> =
        vertex_labels.iter().zip(0u64..).map(|(&l, v)| (u64::from(l) << 32) | v).collect();
    pairs.sort_unstable();
    let (mut labels, mut sizes) = (Vec::new(), Vec::new());
    let mut label_id = vec![0usize; vertex_labels.len()];
    for pair in pairs {
        let label = Label::try_from(pair >> 32).unwrap_or(Label::MAX);
        if labels.last() != Some(&label) {
            labels.push(label);
            sizes.push(0);
        }
        if let Some(size) = sizes.last_mut() {
            *size += 1;
        }
        if let Some(id) = label_id.get_mut((pair & u64::from(u32::MAX)) as usize) {
            *id = labels.len() - 1;
        }
    }
    (labels, sizes, label_id)
}

/// The label pairs `(a, b)`, `a ≤ b`, of the pattern labels `labels`
/// (distinct, ascending, `sizes` vertices each) that have clusters in
/// `G_C` — `(a, a)` only when two pattern vertices carry `a`.
///
/// Each pattern label's `G_C` label id is found once, by binary search,
/// and one table maps each `G_C` label id in the span of the pattern's ids
/// to its pattern label id. The walk reads each pattern label's row of
/// `G_C`'s label-pair CSR up to the last pattern id and checks each entry
/// with one table read: `O(walked entries + span)`, never a merge against
/// the pattern labels. The span is at most `G_C`'s label count, whatever
/// the label values.
fn walk_label_pairs(ccsr: &Ccsr, labels: &[Label], sizes: &[usize]) -> LabelPairs {
    let gc_ids: Vec<Option<u32>> = labels.iter().map(|&l| ccsr.label_id(l)).collect();
    let mut present = gc_ids.iter().flatten();
    let lo = present.next().copied().unwrap_or(0);
    let span = present.last().map_or(1, |&hi| (hi - lo) as usize + 1);
    // Pattern label id per `G_C` label id `lo + k`, `usize::MAX` for none.
    let mut pattern_id = vec![usize::MAX; span];
    for (l, &g) in gc_ids.iter().enumerate() {
        if let Some(slot) = g.and_then(|g| pattern_id.get_mut((g - lo) as usize)) {
            *slot = l;
        }
    }
    let (mut ends, mut upper) = (Vec::with_capacity(gc_ids.len() + 1), Vec::new());
    for (i, (&g, &size)) in gc_ids.iter().zip(sizes).enumerate() {
        if let Some(g) = g {
            let (first, row) = ccsr.pair_row(g);
            for (k, &(b, _)) in row.iter().enumerate() {
                // Rows ascend, so the first entry past the span ends the walk.
                let Some(&j) = pattern_id.get((b - lo) as usize) else { break };
                if j == usize::MAX || (j == i && size < 2) {
                    continue;
                }
                upper.push((j, ccsr.entry_range(first + k)));
            }
        }
        ends.push(upper.len());
    }
    LabelPairs::from_upper(Csr::from_ends(ends, upper))
}

impl LabelPairs {
    /// The pairs from their `upper` rows, with the `lower` rows their
    /// transpose by counting: the rows are walked in ascending `a`, so
    /// each `lower` row ascends.
    fn from_upper(upper: Csr<(usize, Range<usize>)>) -> LabelPairs {
        let lower = upper.transpose(upper.rows(), |&(b, _)| b, |a| a);
        LabelPairs { upper, lower }
    }
}

impl<'a> GcStar<'a> {
    /// The underlying `G_C` (vertex labels, label frequencies, indexes).
    #[inline]
    pub fn ccsr(&self) -> &'a Ccsr {
        self.ccsr
    }

    /// Each pattern edge's cluster, in `p.edges()` order; `None` means no
    /// data edge matches that edge's identifier (the cluster is empty).
    #[inline]
    pub fn edge_clusters(&self) -> &[Option<&'a Cluster>] {
        &self.edge_clusters
    }

    /// The pattern edges incident to pattern vertex `u`, in `p.edges()`
    /// order, each with `u`'s side of it.
    #[inline]
    pub fn incident_edges(&self, u: VertexId) -> &[(usize, Side)] {
        self.incident.row(u as usize)
    }

    /// The dense label id of pattern vertex `u`: its label's rank among
    /// the pattern's distinct labels.
    #[inline]
    pub fn label_id(&self, u: VertexId) -> usize {
        self.label_id.get(u as usize).copied().unwrap_or(usize::MAX)
    }

    /// Pattern vertices per label id, one entry per distinct label.
    pub fn label_sizes(&self) -> &[usize] {
        &self.label_sizes
    }

    /// The label pairs `G_C` joins, walked on first use by a star read
    /// for another variant than vertex-induced.
    fn label_pairs(&self) -> &LabelPairs {
        self.pairs.get_or_init(|| walk_label_pairs(self.ccsr, &self.labels, &self.label_sizes))
    }

    /// The label ids `G_C` joins to label id `l`, ascending — `l` itself
    /// when two pattern vertices carry it. Algorithm 2 line 8 adds a
    /// negation dependency between non-adjacent pattern vertices exactly
    /// when their labels are joined.
    pub fn adjacent_labels(&self, l: usize) -> impl Iterator<Item = usize> + '_ {
        let pairs = self.label_pairs();
        let upper = pairs.upper.row(l).iter().map(|&(b, _)| b);
        // `lower` ends in `l` itself when `upper` starts with it.
        pairs.lower.row(l).iter().copied().take_while(move |&a| a < l).chain(upper)
    }

    /// The `(a, b)*`-clusters between the labels of ids `l` and `m`, in
    /// key order — what vertex-induced matching subtracts; empty unless
    /// `G_C` joins them.
    pub fn pair_clusters(&self, l: usize, m: usize) -> &'a [Cluster] {
        let (pairs, b) = (self.label_pairs(), l.max(m));
        let row = pairs.upper.row(l.min(m));
        match row.get(row.partition_point(|&(x, _)| x < b)) {
            Some((x, range)) if *x == b => self.ccsr.clusters_at(range.clone()),
            _ => &[],
        }
    }

    /// The clusters the read selected, each once. A vertex-induced read
    /// selects the clusters of the label pairs it walked: the groups are
    /// disjoint and hold every edge cluster (patterns have no
    /// self-loops). Any other read selects the distinct edge clusters.
    fn selected(&self) -> Vec<&'a Cluster> {
        if self.variant == Variant::VertexInduced {
            let ccsr = self.ccsr;
            let upper = self.label_pairs().upper.items().iter();
            upper.flat_map(|(_, range)| ccsr.clusters_at(range.clone())).collect()
        } else {
            let mut selected: Vec<&'a Cluster> =
                self.edge_clusters.iter().flatten().copied().collect();
            // One cluster per key, so identity in `G_C`'s table dedups keys.
            selected.sort_unstable_by_key(|&c| std::ptr::from_ref(c));
            selected.dedup_by_key(|c| std::ptr::from_ref(*c));
            selected
        }
    }

    /// Number of selected clusters, counted on call.
    pub fn cluster_count(&self) -> usize {
        self.selected().len()
    }

    /// Work counters of the `ReadCSR` call that built this working set.
    /// Only reports read them, so they are computed on call, from the
    /// selected clusters, not by the read.
    pub fn read_stats(&self) -> ReadStats {
        let selected = self.selected();
        ReadStats {
            clusters_read: selected.len() as u64,
            rows_decompressed: selected.iter().map(|c| c.indexed_rows() as u64).sum(),
            missing_clusters: self.edge_clusters.iter().filter(|c| c.is_none()).count() as u64,
        }
    }

    /// Heap bytes of the clusters this working set references (they live
    /// in `G_C`; the working set copies none of them), for the
    /// CCSR-overhead experiments (Fig. 11). Computed on call.
    pub fn heap_bytes(&self) -> usize {
        self.selected().iter().map(|c| c.heap_bytes()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::build_ccsr;
    use csce_graph::{FxHashMap, GraphBuilder, NO_LABEL};
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::BTreeSet;

    /// The key-map read the resolved star replaced, kept as its oracle:
    /// one hash-map entry per distinct selected cluster, loaded per pattern
    /// edge and, for vertex-induced matching, per pair of pattern vertices
    /// through [`Ccsr::negation_clusters`], recording each such label pair
    /// with clusters.
    #[derive(Default)]
    struct KeyMapRead<'a> {
        clusters: FxHashMap<ClusterKey, &'a Cluster>,
        stats: ReadStats,
        pairs: BTreeSet<(Label, Label)>,
    }

    impl<'a> KeyMapRead<'a> {
        fn new(ccsr: &'a Ccsr, p: &Graph, variant: Variant) -> KeyMapRead<'a> {
            let mut read = KeyMapRead::default();
            for e in p.edges() {
                match ccsr.cluster(&pattern_edge_key(p, e)) {
                    Some(c) => read.load(c),
                    None => read.stats.missing_clusters += 1,
                }
            }
            if variant == Variant::VertexInduced {
                let n = p.n() as VertexId;
                for a in 0..n {
                    for b in a + 1..n {
                        let (la, lb) = (p.label(a), p.label(b));
                        for c in ccsr.negation_clusters(la, lb) {
                            read.pairs.insert((la.min(lb), la.max(lb)));
                            read.load(c);
                        }
                    }
                }
            }
            read
        }

        fn load(&mut self, c: &'a Cluster) {
            if let Entry::Vacant(slot) = self.clusters.entry(c.key) {
                self.stats.clusters_read += 1;
                self.stats.rows_decompressed += c.indexed_rows() as u64;
                slot.insert(c);
            }
        }
    }

    /// The merge walk the label-id table replaced, kept as its oracle: for
    /// each pattern label (distinct, ascending, `sizes` vertices each) it
    /// walks the label's run, the clusters whose smaller label it is,
    /// contiguous in the table's `(label pair, key)` order, advancing
    /// through the sorted pattern labels for every group of the run.
    fn walk_label_pairs_merge(ccsr: &Ccsr, labels: &[Label], sizes: &[usize]) -> LabelPairs {
        let smaller: Vec<Label> = ccsr.clusters().map(|c| c.key.label_pair().0).collect();
        let (mut ends, mut upper) = (Vec::new(), Vec::new());
        for (i, (&a, &size)) in labels.iter().zip(sizes).enumerate() {
            let start = smaller.partition_point(|&l| l < a);
            let run = ccsr.clusters_at(start..smaller.partition_point(|&l| l <= a));
            let (mut end, mut j) = (start, i);
            for group in run.chunk_by(|x, y| x.key.label_pair() == y.key.label_pair()) {
                let range = end..end + group.len();
                end = range.end;
                let b = group[0].key.label_pair().1;
                while labels.get(j).is_some_and(|&l| l < b) {
                    j += 1;
                }
                match labels.get(j) {
                    None => break,
                    Some(&l) if l == b && (j != i || size > 1) => upper.push((j, range)),
                    Some(_) => {}
                }
            }
            ends.push(upper.len());
        }
        LabelPairs::from_upper(Csr::from_ends(ends, upper))
    }

    /// Whether two cluster slices are the same clusters of `G_C`.
    fn same(a: &[Cluster], b: &[Cluster]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(x, y))
    }

    /// The read resolves `p` as the key-map oracle and `G_C`'s maps do, in
    /// every variant: each pattern edge's cluster is [`Ccsr::cluster`] of
    /// its identifier (repeated and missing identifiers included); the
    /// counters, cluster count and heap bytes are the oracle's; each
    /// vertex's incident edges are the edges it ends, in edge order, with
    /// its side; the label ids rank the distinct labels; and each pair of label ids finds
    /// [`Ccsr::negation_clusters`] of its labels under the same-label rule,
    /// with each row listing the oracle's label pairs, ascending, whether
    /// the pairs were walked at read time (vertex-induced) or on first use,
    /// and the walk's rows are the merge walk's.
    fn assert_matches_key_map_oracle(gc: &Ccsr, p: &Graph) {
        let adjacent = KeyMapRead::new(gc, p, Variant::VertexInduced).pairs;
        for variant in Variant::ALL {
            let got = read_csr(gc, p, variant);
            let want = KeyMapRead::new(gc, p, variant);
            let merge = walk_label_pairs_merge(gc, &got.labels, got.label_sizes());
            prop_assert_eq!(got.label_pairs(), &merge, "{}", variant);
            prop_assert_eq!(got.edge_clusters().len(), p.m(), "{}", variant);
            for (e, &c) in p.edges().iter().zip(got.edge_clusters()) {
                let lookup = gc.cluster(&pattern_edge_key(p, e));
                prop_assert_eq!(c.map(|c| c.key), lookup.map(|c| c.key), "{}", variant);
            }
            prop_assert_eq!(got.read_stats(), want.stats, "{}", variant);
            prop_assert_eq!(got.cluster_count(), want.clusters.len(), "{}", variant);
            let heap: usize = want.clusters.values().map(|c| c.heap_bytes()).sum();
            prop_assert_eq!(got.heap_bytes(), heap, "{}", variant);
            let (labels, sizes) = (&got.labels, got.label_sizes());
            prop_assert!(labels.windows(2).all(|w| w[0] < w[1]), "{}", variant);
            prop_assert_eq!(sizes.len(), labels.len(), "{}", variant);
            prop_assert_eq!(sizes.iter().sum::<usize>(), p.n(), "{}", variant);
            for u in 0..p.n() as VertexId {
                prop_assert_eq!(labels[got.label_id(u)], p.label(u), "{}", variant);
                let incident: Vec<(usize, Side)> = (0..p.m())
                    .filter_map(|i| match p.edges()[i] {
                        e if e.src == u => Some((i, Side::Src)),
                        e if e.dst == u => Some((i, Side::Dst)),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(got.incident_edges(u), &incident[..], "{}", variant);
            }
            let mut listed = BTreeSet::new();
            for (l, &a) in labels.iter().enumerate() {
                for (m, &b) in labels.iter().enumerate() {
                    let single = l == m && sizes[l] < 2;
                    let want = if single { &[][..] } else { gc.negation_clusters(a, b) };
                    prop_assert!(same(got.pair_clusters(l, m), want), "{} ({}, {})", variant, a, b);
                }
                let row: Vec<usize> = got.adjacent_labels(l).collect();
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "{}", variant);
                for m in row {
                    prop_assert!(!got.pair_clusters(l, m).is_empty(), "{}", variant);
                    listed.insert((a.min(labels[m]), a.max(labels[m])));
                }
            }
            prop_assert_eq!(&listed, &adjacent, "{}", variant);
        }
    }

    /// SplitMix64: the random source of the oracle property.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
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
            assert_matches_key_map_oracle(&build_ccsr(&g).unwrap(), &p);
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
            assert_matches_key_map_oracle(&gc, &sp.pattern);
            let star = read_csr(&gc, &sp.pattern, Variant::VertexInduced);
            let count: usize = (0..star.labels.len())
                .map(|l| star.adjacent_labels(l).filter(|&m| m >= l).count())
                .sum();
            assert!(count > size, "size {size}: {count} label pairs");
        }
    }

    /// A vertex-induced read whose data and pattern labels sit at the
    /// `u32` extremes, next to pattern labels `G_C` lacks: the walk's
    /// table spans `G_C`'s two label ids, not the label values, and the
    /// star's pairs and counters are the key-map oracle's.
    #[test]
    fn vertex_induced_read_at_the_label_extremes() {
        let (low, high) = (0, u32::MAX - 1);
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = [low, high, low, high].iter().map(|&l| b.add_vertex(l)).collect();
        b.add_edge(v[0], v[1], NO_LABEL).unwrap();
        b.add_edge(v[3], v[2], NO_LABEL).unwrap();
        b.add_undirected_edge(v[0], v[2], 7).unwrap();
        b.add_edge(v[1], v[3], NO_LABEL).unwrap();
        let gc = build_ccsr(&b.build()).unwrap();
        // A path low - 5 - high - (u32::MAX - 2) - low - high: labels 5 and
        // u32::MAX - 2 are missing from `G_C`.
        let mut b = GraphBuilder::new();
        for l in [low, 5, high, u32::MAX - 2, low, high] {
            b.add_vertex(l);
        }
        for u in 0..5 {
            b.add_edge(u, u + 1, NO_LABEL).unwrap();
        }
        let p = b.build();
        assert_matches_key_map_oracle(&gc, &p);
        let star = read_csr(&gc, &p, Variant::VertexInduced);
        let want = KeyMapRead::new(&gc, &p, Variant::VertexInduced);
        assert_eq!(star.read_stats(), want.stats);
        assert_eq!(want.stats.missing_clusters, 4);
        assert_eq!(want.pairs, BTreeSet::from([(low, low), (low, high), (high, high)]));
        let (l, h) = (star.label_id(0), star.label_id(2));
        assert!(same(star.pair_clusters(l, h), gc.negation_clusters(low, high)));
        assert_eq!(star.adjacent_labels(l).collect::<Vec<_>>(), [l, h]);
        assert_eq!(star.adjacent_labels(star.label_id(1)).count(), 0);
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
        let d = star.edge_clusters()[0].unwrap();
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
        let (first, last) = (star_v.label_id(0), star_v.label_id(2));
        assert!(same(star_v.pair_clusters(first, last), negation));
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
        assert!(matches!(star.edge_clusters(), [None]));
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
