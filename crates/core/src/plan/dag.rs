//! The candidate-dependency DAG `H` — Algorithm 2 (`BuildDAG`).
//!
//! Given a matching order `Φ`, the candidates of a later pattern vertex
//! depend on the mapping of an earlier one in two ways:
//!
//! * **edge dependencies** — the pair is adjacent in `P`: the later
//!   vertex's candidates are neighbor rows of the earlier one's mapping;
//! * **negation dependencies** (vertex-induced only) — the pair is *not*
//!   adjacent in `P` but the data graph contains edges between their
//!   labels (`∃ α ∈ (Φ[i], Φ[j])*-clusters, |α| > 0`), so induced
//!   matching must subtract the earlier mapping's data neighbors.
//!
//! Two pattern vertices with *no path* between them in `H` have
//! sequentially equivalent candidates (Definition 1) — the engine reuses
//! those candidate sets instead of recomputing them.
//!
//! [`Dag`] stores each vertex's parents once. Edge dependencies also name
//! the pattern edge that realizes them ([`Dag::edge_parents`]); the
//! negation parents are the remaining parents, derived on request
//! ([`Dag::negation_parents`]) rather than stored a second time. Each
//! relation (parents, children, edge parents) is one [`Csr`] indexed by
//! vertex id, so building `H` allocates no per-vertex list; the children
//! are the parents' transpose and the sorted parents the children's,
//! both built by counting.
//!
//! One deliberate deviation from the paper's pseudo-code: Algorithm 2
//! line 7 only adds a negation dependency `(Φ[i], Φ[j])` when some
//! `Φ[k], k < i` is already a `P`-neighbor of `Φ[j]`. We relax `k < i` to
//! `k < j` (the later vertex has *some* earlier neighbor, which under a
//! connected GCF order always holds), because the injectivity-style
//! re-filtering the paper applies on reuse does not cover cross-mapping
//! negation: a candidate set computed under one mapping of `Φ[i]` is not
//! valid for another whenever data edges exist between the two labels.
//! The relaxation only adds dependency edges, so it is conservative —
//! everything SCE reuses under our `H` is reused soundly.

use crate::bitset::BitSet;
use crate::catalog::{Catalog, Side};
use csce_ccsr::GcStar;
use csce_graph::util::Csr;
use csce_graph::{Variant, VertexId};

/// The dependency DAG over pattern vertices (indexed by vertex id, not by
/// plan position, so it survives LDSF reordering), one row per vertex in
/// each relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dag {
    /// Parents (incoming dependency sources) per vertex, ascending.
    parents: Csr<VertexId>,
    /// Children (outgoing dependency targets) per vertex, ascending: the
    /// transpose of `parents`.
    children: Csr<VertexId>,
    /// Edge dependencies with the pattern-edge index that realizes each:
    /// row `u` lists `(earlier vertex, pattern edge idx)` in `Φ` order.
    /// Every other parent is a negation dependency.
    edge_parents: Csr<(VertexId, usize)>,
}

/// Algorithm 2: build the dependency DAG for `Φ` under a variant.
///
/// Edge dependencies come from each vertex's incident pattern edges whose
/// other endpoint is earlier in `Φ`. Vertex-induced negation dependencies
/// come from the label pairs `G_C` joins, as the star numbers and lists
/// them ([`csce_ccsr::GcStar::adjacent_labels`]): each vertex visits only
/// the placed vertices of its adjacent labels, skipping its `P`-neighbours
/// by a stamp, rather than probing every earlier vertex. Each vertex's
/// parents are gathered in `Φ` order into one flat buffer, unsorted; the
/// rows are then copied by vertex id, each as one block
/// ([`Csr::permuted`]), the children are their transpose by counting and
/// the parents the children's transpose ([`Csr::transpose`]), each row
/// ascending without a sort. So `H` costs
/// `O(|E_P| + Σ adjacent labels + |E_H|)`, plus a sort of each vertex's
/// earlier `P`-neighbours, in a few flat buffers with no per-vertex
/// allocation.
///
/// `H` depends only on `P`, `G_C`, `Φ` and the variant, never on how the
/// star was read: a star read for another variant walks `G_C` for the
/// label pairs on first use (the same walk, at the cost of a
/// vertex-induced read). Debug builds check every vertex's negation
/// parents against Algorithm 2 line 8 (`check_negation_parents`).
pub fn build_dag(catalog: &Catalog<'_>, phi: &[VertexId], variant: Variant) -> Dag {
    let p = catalog.pattern();
    let n = p.n();
    debug_assert_eq!(phi.len(), n, "Φ must order every pattern vertex");
    let mut pos_of = vec![0usize; n];
    for (k, &u) in phi.iter().enumerate() {
        pos_of[u as usize] = k;
    }
    let star = catalog.star();
    let mut negation = (variant == Variant::VertexInduced).then(|| LabelBuckets::new(star, phi));
    // Each vertex's rows, gathered in `Φ` order: those of `Φ[j]` end at
    // `parent_ends[j]` and `edge_ends[j]`.
    let (mut parents, mut parent_ends) = (Vec::new(), Vec::with_capacity(n + 1));
    let (mut edge_parents, mut edge_ends) = (Vec::new(), Vec::with_capacity(n + 1));
    // `neighbour_of[w] == j` marks `w` as a `P`-neighbour of `Φ[j]`.
    let mut neighbour_of = vec![usize::MAX; n];
    let mut earlier: Vec<(usize, usize)> = Vec::new();
    for (j, &uj) in phi.iter().enumerate() {
        earlier.clear();
        for (eidx, side) in catalog.incident_edges(uj) {
            let e = &p.edges()[eidx];
            let w = if side == Side::Src { e.dst } else { e.src };
            neighbour_of[w as usize] = j;
            if pos_of[w as usize] < j {
                earlier.push((pos_of[w as usize], eidx));
            }
        }
        // Earlier neighbours in `Φ` order, each once per connecting edge;
        // a parent joined by several edges is listed once in `parents`.
        earlier.sort_unstable();
        for (k, &(i, eidx)) in earlier.iter().enumerate() {
            edge_parents.push((phi[i], eidx));
            if k == 0 || earlier[k - 1].0 != i {
                parents.push(phi[i]);
            }
        }
        // Negation parents are distinct (each placed vertex sits in one
        // bucket) and never `P`-neighbours, so the row needs no dedup.
        if let Some(buckets) = negation.as_mut() {
            let l = star.label_id(uj);
            if !earlier.is_empty() {
                for m in star.adjacent_labels(l) {
                    let placed = buckets.placed(m);
                    parents.extend(
                        placed.iter().copied().filter(|&ui| neighbour_of[ui as usize] != j),
                    );
                }
            }
            buckets.place(l);
        }
        parent_ends.push(parents.len());
        edge_ends.push(edge_parents.len());
    }
    let dag = Dag::from_unsorted(
        &Csr::from_ends(parent_ends, parents).permuted(&pos_of),
        Csr::from_ends(edge_ends, edge_parents).permuted(&pos_of),
    );
    #[cfg(debug_assertions)]
    if variant == Variant::VertexInduced {
        check_negation_parents(catalog, phi, &dag);
    }
    dag
}

/// The vertices of `Φ` placed so far, bucketed by pattern label id: where
/// a vertex-induced vertex finds its negation parents, in the buckets of
/// its adjacent labels.
struct LabelBuckets {
    /// Row `l` lists the vertices of label `l` in `Φ` order; the first
    /// `filled[l]` of them are placed.
    order: Csr<VertexId>,
    filled: Vec<usize>,
}

impl LabelBuckets {
    /// Empty buckets over the star's label ids.
    fn new(star: &GcStar<'_>, phi: &[VertexId]) -> LabelBuckets {
        let labels = star.label_sizes().len();
        let order = Csr::by_row(labels, phi.iter().map(|&u| (star.label_id(u), u)));
        LabelBuckets { order, filled: vec![0; labels] }
    }

    /// The placed vertices of label `l`.
    fn placed(&self, l: usize) -> &[VertexId] {
        &self.order.row(l)[..self.filled[l]]
    }

    /// Place the next vertex of label `l` in `Φ`: later vertices see it in
    /// `l`'s bucket.
    fn place(&mut self, l: usize) {
        self.filled[l] += 1;
    }
}

/// Debug cross-check of a vertex-induced `H`: each vertex with an earlier
/// `P`-neighbour has as negation parents exactly the earlier vertices that
/// are not `P`-neighbours and whose label pair `G_C` joins (Algorithm 2
/// line 8, probed through [`Catalog::labels_ever_adjacent`]); any other
/// vertex has none. `O(|V_P|²)` probes, so debug builds build a
/// vertex-induced `H` in quadratic time.
#[cfg(debug_assertions)]
fn check_negation_parents(catalog: &Catalog<'_>, phi: &[VertexId], dag: &Dag) {
    let p = catalog.pattern();
    let mut neighbour_of = vec![usize::MAX; p.n()];
    let mut want = Vec::new();
    for (j, &uj) in phi.iter().enumerate() {
        for (eidx, side) in catalog.incident_edges(uj) {
            let e = &p.edges()[eidx];
            let w = if side == Side::Src { e.dst } else { e.src };
            neighbour_of[w as usize] = j;
        }
        want.clear();
        if !dag.edge_parents(uj).is_empty() {
            want.extend(phi[..j].iter().copied().filter(|&ui| {
                neighbour_of[ui as usize] != j
                    && catalog.labels_ever_adjacent(p.label(ui), p.label(uj))
            }));
            want.sort_unstable();
        }
        debug_assert!(
            dag.negation_parents(uj).eq(want.iter().copied()),
            "negation parents of pattern vertex {uj}: {:?}, want {want:?}",
            dag.negation_parents(uj).collect::<Vec<_>>()
        );
    }
}

/// The sweep over all `Φ²` pairs that the adjacency-driven [`build_dag`]
/// replaced, kept as the oracle it is tested against. It keeps one list
/// per vertex and relation, children included, and lays them out as CSR
/// only at the end ([`Dag::from_lists`]), so it also checks the transpose.
#[cfg(test)]
pub(crate) fn build_dag_pairwise(catalog: &Catalog<'_>, phi: &[VertexId], variant: Variant) -> Dag {
    let p = catalog.pattern();
    let n = p.n();
    let mut out: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut inp: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut edge_parents: Vec<Vec<(VertexId, usize)>> = vec![Vec::new(); n];
    for j in 1..n {
        let uj = phi[j];
        let mut has_earlier_neighbor = false;
        for &ui in phi.iter().take(j) {
            if p.connected(ui, uj) {
                has_earlier_neighbor = true;
                out[ui as usize].push(uj);
                inp[uj as usize].push(ui);
                for (eidx, e) in p.edges().iter().enumerate() {
                    if (e.src, e.dst) == (ui, uj) || (e.src, e.dst) == (uj, ui) {
                        edge_parents[uj as usize].push((ui, eidx));
                    }
                }
            }
        }
        if variant == Variant::VertexInduced && has_earlier_neighbor {
            for &ui in phi.iter().take(j) {
                if p.connected(ui, uj) {
                    continue;
                }
                if catalog.labels_ever_adjacent(p.label(ui), p.label(uj)) {
                    out[ui as usize].push(uj);
                    inp[uj as usize].push(ui);
                }
            }
        }
    }
    for list in out.iter_mut().chain(inp.iter_mut()) {
        list.sort_unstable();
        list.dedup();
    }
    Dag::from_lists(&out, &inp, &edge_parents)
}

impl Dag {
    /// `H` from its parents and edge parents, with the children the
    /// parents' transpose: counting in vertex-id order keeps every row
    /// ascending.
    fn new(parents: Csr<VertexId>, edge_parents: Csr<(VertexId, usize)>) -> Dag {
        let children = parents.transpose(
            parents.rows(),
            |&w| w as usize,
            |u| VertexId::try_from(u).unwrap_or(VertexId::MAX),
        );
        Dag { parents, children, edge_parents }
    }

    /// `H` from parent rows in any order within each row: the children
    /// are their transpose and the parents the children's transpose, both
    /// by counting. Each transpose walks its source rows in vertex-id
    /// order, so every row of both comes out ascending, and no row is
    /// sorted.
    fn from_unsorted(parents: &Csr<VertexId>, edge_parents: Csr<(VertexId, usize)>) -> Dag {
        let (n, id) = (parents.rows(), |u: usize| VertexId::try_from(u).unwrap_or(VertexId::MAX));
        let children = parents.transpose(n, |&w| w as usize, id);
        let parents = children.transpose(n, |&c| c as usize, id);
        Dag { parents, children, edge_parents }
    }

    /// Construct a bare dependency graph from explicit arcs, without any
    /// pattern or catalog. Intended for validation tooling and tests that
    /// need to exercise structurally *invalid* inputs (e.g. a cyclic `H`)
    /// that [`build_dag`] can never produce. It carries no edge detail, so
    /// [`Dag::negation_parents`] reports every parent. An arc into a vertex
    /// at or past `n` is dropped; one out of such a vertex stays among the
    /// parents, where a vertex-range check finds it.
    pub fn from_arcs(n: usize, arcs: &[(VertexId, VertexId)]) -> Dag {
        let mut by_child: Vec<(VertexId, VertexId)> = arcs.iter().map(|&(a, b)| (b, a)).collect();
        by_child.sort_unstable();
        by_child.dedup();
        let parents = Csr::by_row(n, by_child.iter().map(|&(b, a)| (b as usize, a)));
        Dag::new(parents, Csr::by_row(n, []))
    }

    /// Lay out per-vertex lists as CSR, each row as given.
    #[cfg(test)]
    fn from_lists(
        out: &[Vec<VertexId>],
        inp: &[Vec<VertexId>],
        edge_parents: &[Vec<(VertexId, usize)>],
    ) -> Dag {
        fn flatten<T: Copy>(lists: &[Vec<T>]) -> Csr<T> {
            let ends = lists.iter().scan(0, |total, l| {
                *total += l.len();
                Some(*total)
            });
            Csr::from_ends(ends.collect(), lists.concat())
        }
        Dag { parents: flatten(inp), children: flatten(out), edge_parents: flatten(edge_parents) }
    }

    /// Number of pattern vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.parents.rows()
    }

    /// Children of `u` (vertices whose candidates depend on `u`),
    /// ascending.
    #[inline]
    pub fn children(&self, u: VertexId) -> &[VertexId] {
        self.children.row(u as usize)
    }

    /// Parents of `u` (vertices `u`'s candidates depend on), ascending.
    #[inline]
    pub fn parents(&self, u: VertexId) -> &[VertexId] {
        self.parents.row(u as usize)
    }

    /// `(parent, pattern edge idx)` pairs realizing `u`'s edge
    /// dependencies, in `Φ` order; a parent appears once per connecting
    /// pattern edge.
    #[inline]
    pub fn edge_parents(&self, u: VertexId) -> &[(VertexId, usize)] {
        self.edge_parents.row(u as usize)
    }

    /// Negation-dependency parents of `u`: the parents no
    /// [`Dag::edge_parents`] entry names (vertex-induced only).
    pub fn negation_parents(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let edge = self.edge_parents(u);
        self.parents(u).iter().copied().filter(move |&w| edge.iter().all(|&(e, _)| e != w))
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.children.items().len()
    }

    /// Ancestor bit sets: `anc[u]` contains every vertex with a path to
    /// `u`. O(V·E/64) via one pass in topological (plan) order.
    pub fn ancestor_sets(&self, phi: &[VertexId]) -> Vec<BitSet> {
        let mut anc = vec![BitSet::new(self.n()); self.n()];
        for &u in phi {
            // Parents are all earlier in Φ, so their sets are complete.
            let mut set = BitSet::new(self.n());
            for &parent in self.parents(u) {
                set.insert(parent as usize);
                set.union_with(&anc[parent as usize]);
            }
            anc[u as usize] = set;
        }
        anc
    }

    /// Whether `a` and `b` are independent — no path in either direction —
    /// given precomputed ancestor sets. Independent vertices have
    /// sequentially equivalent candidates (Definition 1).
    pub fn independent(anc: &[BitSet], a: VertexId, b: VertexId) -> bool {
        a != b && !anc[a as usize].contains(b as usize) && !anc[b as usize].contains(a as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{random_graph, Rng};
    use crate::plan::{Planner, PlannerConfig};
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::{Graph, GraphBuilder, NO_LABEL};
    use proptest::prelude::*;

    /// The paper's Fig. 1 pattern P (see csce-graph's graph.rs tests):
    /// directed edges u1→u2, u1→u3, u1→u6, u7→u1, u2→u4, u5→u2, u6→u5,
    /// u6→u8 with labels A,B,C,C,B,A,D,A.
    fn fig1_pattern() -> Graph {
        let mut b = GraphBuilder::new();
        for &l in &[0u32, 1, 2, 2, 1, 0, 3, 0] {
            b.add_vertex(l);
        }
        for (s, d) in [(0, 1), (0, 2), (0, 5), (6, 0), (1, 3), (4, 1), (5, 4), (5, 7)] {
            b.add_edge(s, d, NO_LABEL).unwrap();
        }
        b.build()
    }

    /// A small data graph with every label pair adjacent except D-D, D-B,
    /// D-C (D only connects A, as in the paper's example).
    fn fig1_like_data() -> Graph {
        let mut b = GraphBuilder::new();
        // Two vertices per label A,B,C plus one D.
        for &l in &[0u32, 0, 1, 1, 2, 2, 3] {
            b.add_vertex(l);
        }
        for (s, d) in [(0, 2), (0, 4), (1, 3), (2, 4), (2, 3), (4, 5), (0, 1), (6, 0), (6, 1)] {
            b.add_edge(s, d, NO_LABEL).unwrap();
        }
        b.build()
    }

    fn dag_for(variant: Variant) -> (Dag, Vec<VertexId>) {
        let p = fig1_pattern();
        let g = fig1_like_data();
        let gc = build_ccsr(&g).unwrap();
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let phi: Vec<VertexId> = (0..8).collect(); // Φ1 = u1..u8
        let dag = build_dag(&catalog, &phi, variant);
        (dag, phi)
    }

    #[test]
    fn edge_induced_dag_mirrors_pattern_edges() {
        let (dag, _) = dag_for(Variant::EdgeInduced);
        // Fig. 5 (a): H has exactly the 8 pattern edges, oriented by Φ1.
        assert_eq!(dag.edge_count(), 8);
        assert_eq!(dag.parents(1), &[0]); // u2 depends on u1
        assert_eq!(dag.parents(4), &[1]); // u5 depends on u2 (u5→u2 edge)
        assert_eq!(dag.parents(6), &[0]); // u7 depends on u1
        assert_eq!(dag.negation_parents(3).count(), 0);
    }

    #[test]
    fn fig5a_independence_of_u3_and_u4() {
        let (dag, phi) = dag_for(Variant::EdgeInduced);
        let anc = dag.ancestor_sets(&phi);
        // The paper: candidates of u3 (id 2) and u4 (id 3) are independent.
        assert!(Dag::independent(&anc, 2, 3));
        // But u2 (id 1) depends on u1 (id 0).
        assert!(!Dag::independent(&anc, 0, 1));
        // Transitive: u4 (id 3) depends on u1 through u2.
        assert!(!Dag::independent(&anc, 0, 3));
    }

    #[test]
    fn vertex_induced_adds_negation_dependencies() {
        let (dag_e, _) = dag_for(Variant::EdgeInduced);
        let (dag_v, _) = dag_for(Variant::VertexInduced);
        assert!(dag_v.edge_count() > dag_e.edge_count());
        // u3 (id 2, label C) is not adjacent to u4 (id 3, label C) in P,
        // and the data graph has C-C edges (4->5), so vertex-induced adds
        // the dependency.
        assert!(dag_v.negation_parents(3).any(|w| w == 2));
        // u7 (id 6, label D): D only connects A in the data, so no
        // negation dependency from u2 (label B, id 1) to u7.
        assert!(!dag_v.negation_parents(6).any(|w| w == 1));
        // ...but from u6 (label A, id 5) there is one (D-A edges exist).
        assert!(dag_v.negation_parents(6).any(|w| w == 5));
    }

    #[test]
    fn edge_parents_carry_pattern_edge_indexes() {
        let (dag, _) = dag_for(Variant::EdgeInduced);
        let p = fig1_pattern();
        for u in 0..8u32 {
            for &(parent, eidx) in dag.edge_parents(u) {
                let e = &p.edges()[eidx];
                assert!(
                    (e.src, e.dst) == (parent, u) || (e.src, e.dst) == (u, parent),
                    "edge index consistent with the dependency pair"
                );
            }
        }
        // u2 (id 1) has two edge parents once u1 and u5 are both earlier:
        // from u1 (edge u1→u2). u5 (id 4) comes after u2 in Φ1, so only 1.
        assert_eq!(dag.edge_parents(1).len(), 1);
    }

    #[test]
    fn homomorphic_matches_edge_induced_dag() {
        let (dag_e, _) = dag_for(Variant::EdgeInduced);
        let (dag_h, _) = dag_for(Variant::Homomorphic);
        assert_eq!(dag_e.edge_count(), dag_h.edge_count());
    }

    /// 500- and 2000-vertex vertex-induced patterns sampled from a
    /// 20 000-vertex power-law graph with 2000 random vertex labels (the
    /// Fig. 10 shape): the label-bucket sweep equals the `Φ²` sweep in
    /// the GCF order and in a reversed one, over a star read for
    /// vertex-induced matching and over one read for edge-induced matching.
    #[test]
    fn vertex_induced_dag_matches_pairwise_at_2000_labels() {
        use crate::plan::gcf::gcf_order;
        use csce_graph::generate::{chung_lu, randomize_vertex_labels};
        use csce_graph::sample::PatternSampler;
        use csce_graph::Density;
        let g = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 7), 2000, 7);
        let gc = build_ccsr(&g).unwrap();
        let mut sampler = PatternSampler::new(&g, 7);
        let variant = Variant::VertexInduced;
        for size in [500, 2000] {
            let p = sampler.sample(size, Density::Sparse).expect("a sparse pattern").pattern;
            let star = read_csr(&gc, &p, variant);
            let edge_star = read_csr(&gc, &p, Variant::EdgeInduced);
            let catalog = Catalog::new(&p, &star);
            let phi = gcf_order(&catalog, PlannerConfig::csce());
            let reversed: Vec<VertexId> = phi.iter().rev().copied().collect();
            for order in [phi, reversed] {
                let dag = build_dag(&catalog, &order, variant);
                assert_eq!(dag, build_dag_pairwise(&catalog, &order, variant), "size {size}");
                assert_eq!(build_dag(&Catalog::new(&p, &edge_star), &order, variant), dag);
                let negation: usize =
                    (0..size as VertexId).map(|u| dag.negation_parents(u).count()).sum();
                assert!(negation > 0, "size {size}: the pattern has negation dependencies");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `H` as the planner builds it (GCF, RI and LDSF orders), in every
        /// variant, on connected 1–48-vertex patterns over a few or up to
        /// 40 labels: every row is strictly ascending, the children are
        /// exactly the transpose of the parents, `edge_count` is the number
        /// of stored child entries, and rows past the last vertex are
        /// empty.
        #[test]
        fn children_are_the_transpose_of_parents(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(48);
            let labels = 1 + if rng.below(2) == 0 { rng.below(4) } else { rng.below(40) };
            let extra = rng.below(2 * n + 1);
            let p = random_graph(&mut rng, n, 0..labels, true, extra);
            let data_n = 2 + rng.below(40);
            let data_extra = rng.below(4 * data_n);
            let g = random_graph(&mut rng, data_n, 0..labels + 1, false, data_extra);
            let gc = build_ccsr(&g).unwrap();
            for variant in Variant::ALL {
                let star = read_csr(&gc, &p, variant);
                let catalog = Catalog::new(&p, &star);
                for config in PlannerConfig::ALL {
                    let dag = Planner::new(config).plan(&catalog, variant).dag;
                    let (mut arcs, mut stored) = (Vec::new(), Vec::new());
                    for u in 0..n as VertexId {
                        let ascending = |row: &[VertexId]| row.windows(2).all(|w| w[0] < w[1]);
                        prop_assert!(ascending(dag.parents(u)), "{} parents of {}", variant, u);
                        prop_assert!(ascending(dag.children(u)), "{} children of {}", variant, u);
                        arcs.extend(dag.parents(u).iter().map(|&w| (w, u)));
                        stored.extend(dag.children(u).iter().map(|&c| (u, c)));
                    }
                    arcs.sort_unstable();
                    prop_assert_eq!(&arcs, &stored, "{}", variant);
                    prop_assert_eq!(dag.edge_count(), stored.len(), "{}", variant);
                    let past = n as VertexId;
                    prop_assert!(dag.parents(past).is_empty() && dag.children(past).is_empty());
                    prop_assert!(dag.edge_parents(past).is_empty());
                }
            }
        }
    }

    #[test]
    fn ancestor_sets_are_transitive() {
        let (dag, phi) = dag_for(Variant::EdgeInduced);
        let anc = dag.ancestor_sets(&phi);
        // u8 (id 7) <- u6 (id 5) <- u5 (id 4) <- u2 (id 1) <- u1 (id 0).
        assert!(anc[7].contains(5));
        assert!(anc[7].contains(0));
        assert!(anc[7].contains(1), "u2 reaches u8 via u5 and u6");
        assert!(!anc[7].contains(2), "u3 is not an ancestor of u8");
        assert!(!anc[7].contains(6), "u7 is not an ancestor of u8");
    }
}
