//! Plan generation: GCF order → dependency DAG → NEC cache sharing →
//! factorized execution tree. The static SCE statistics
//! ([`SceAnalysis::of`]) are derived on demand.
//!
//! This is the orange stage of the paper's Fig. 2. The entry point is
//! [`Planner::plan`]. [`PlannerConfig`] is one of the four plans the
//! plan-quality experiment (Fig. 13) compares, named by the tokens `ri`
//! (plain RI), `ri+c` (RI + cluster tie-breaks), `csce` (full CSCE) and
//! `csce+ldsf` (CSCE with LDSF fine-tuning); [`PlannerConfig::ALL`] is
//! the whole set, and the CLI's `--plan` and `.repro` files parse them.
//!
//! CSCE matches in the GCF order (`Φ* = Φ`). The paper's LDSF
//! fine-tuning (descendant sizes, Alg. 3, then the descendant-first
//! topological order of `H`, Alg. 4) is kept as the measured ablation
//! [`PlannerConfig::ldsf`]: on the Patent-shaped plan-quality workload it
//! explores about 3.3× the nodes of the GCF order (DESIGN.md, "Documented
//! deviations").
//!
//! A vertex-induced plan stores nothing beyond `H`: the executor checks
//! each candidate against every `H`-parent's mapping, allowing exactly the
//! arcs of the pattern edges that [`Dag::edge_parents`] names for that
//! parent (none for a negation parent), read from the pattern itself.
//!
//! The factorized tree is one flat program ([`ExecTree`]): its steps in
//! one preorder array, each component a contiguous slice of them, and one
//! side table of component ranges, built by pushing each step as the
//! compiler decides it. The count recursion walks the slices.

pub mod dag;
pub mod descendant;
pub mod explain;
pub mod gcf;
pub mod ldsf;
pub mod nec;

use crate::catalog::Catalog;
use csce_ccsr::GcStar;
use csce_graph::util::Csr;
use csce_graph::{FxHashMap, Variant, VertexId};
use dag::{build_dag, Dag};
use descendant::descendant_sizes;
use gcf::gcf_order;
use ldsf::ldsf_order;
use nec::nec_classes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One of the four plans Fig. 13 compares: [`PlannerConfig::csce`] (the
/// default), [`PlannerConfig::ldsf`], [`PlannerConfig::ri_only`] and
/// [`PlannerConfig::ri_cluster`]. The stage switches are private, so no
/// other combination can be built; [`PlannerConfig::ALL`] lists the set and
/// [`PlannerConfig::name`] / [`str::parse`] map each to its token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Break GCF ties by CCSR cluster sizes (Eq. 2); off for plain RI.
    cluster_tiebreak: bool,
    /// Reorder `Φ` by LDSF (descendant size first) over the dependency
    /// DAG; only in the [`PlannerConfig::ldsf`] ablation.
    ldsf: bool,
    /// Identify NEC classes and share candidate caches within them.
    nec: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self::csce()
    }
}

impl PlannerConfig {
    /// Every preset, in the fuzz sweep's order: `csce`, `csce+ldsf`, `ri`,
    /// `ri+c`.
    pub const ALL: [PlannerConfig; 4] =
        [Self::csce(), Self::ldsf(), Self::ri_only(), Self::ri_cluster()];

    /// Full CSCE (the default): GCF with cluster tie-breaks as `Φ*`, NEC
    /// cache sharing, `H` and the factorized tree.
    pub const fn csce() -> Self {
        PlannerConfig { cluster_tiebreak: true, ldsf: false, nec: true }
    }

    /// Full CSCE with `Φ*` reordered by LDSF (Alg. 3–4): Fig. 13's last
    /// column, a measured ablation (DESIGN.md, "Documented deviations").
    pub const fn ldsf() -> Self {
        PlannerConfig { cluster_tiebreak: true, ldsf: true, nec: true }
    }

    /// Plain RI heuristics: no data-graph awareness, no NEC sharing.
    pub const fn ri_only() -> Self {
        PlannerConfig { cluster_tiebreak: false, ldsf: false, nec: false }
    }

    /// RI rules with CCSR cluster tie-breaking (Fig. 13's "RI+Cluster"):
    /// CSCE's order without NEC sharing.
    pub const fn ri_cluster() -> Self {
        PlannerConfig { cluster_tiebreak: true, ldsf: false, nec: false }
    }

    /// The preset's stable token, as `--plan` takes it and `.repro` files
    /// record it: `csce`, `csce+ldsf`, `ri` or `ri+c`.
    pub fn name(self) -> &'static str {
        if !self.cluster_tiebreak {
            "ri"
        } else if self.ldsf {
            "csce+ldsf"
        } else if self.nec {
            "csce"
        } else {
            "ri+c"
        }
    }
}

impl std::str::FromStr for PlannerConfig {
    type Err = String;

    /// Parse a [`PlannerConfig::name`] token.
    fn from_str(s: &str) -> Result<PlannerConfig, String> {
        Self::ALL.into_iter().find(|c| c.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Self::ALL.iter().map(|c| c.name()).collect();
            format!("unknown planner {s:?} (expected {})", names.join(", "))
        })
    }
}

/// The factorized execution tree compiled from `Φ*` and `H` for counting,
/// laid out as one flat program: when the unmatched suffix decomposes into
/// `H`-independent components whose candidates cannot collide, each
/// component is counted once and the counts multiply (the executable form
/// of SCE's conditional independence). Every `H`-parent of a step's vertex
/// is sequenced on that step's root path. The sink walk does not run it:
/// it maps `Φ*`, which interleaves the components
/// ([`Executor`](crate::exec::Executor)).
///
/// [`ExecTree::steps`] lists the tree's steps in preorder. A component is
/// a contiguous slice of them, and the whole program is the root
/// component. A [`Step::Seq`] continues with the rest of its slice; a
/// [`Step::Split`] ends it, since the rest of the slice is exactly its
/// components, one after another. `Done` is implicit at the end of a
/// slice. Each split names its components by a range of
/// [`ExecTree::component_ranges`], and each entry there is a range of
/// steps counted from the step after its split, so every component lies
/// inside the steps that follow its split and a walk down the program
/// always shrinks its slice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecTree {
    steps: Vec<Step>,
    components: Vec<Range<usize>>,
}

/// One step of an [`ExecTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Match `u`, then continue with the rest of the slice for every
    /// candidate. `leaf`: the step is the last of its component and not
    /// the program's first, so each admissible candidate completes one
    /// embedding of the component.
    Seq { u: VertexId, leaf: bool },
    /// Count each component and multiply: the component ranges
    /// `ExecTree::component_ranges()[components]`.
    Split { components: Range<usize> },
}

impl ExecTree {
    /// A program from its parts, as given: nothing is checked. Intended
    /// for validation tooling and tests that need structurally invalid
    /// programs, which the planner never builds; `csce-analyze`'s plan
    /// check reports them.
    pub fn from_parts(steps: Vec<Step>, components: Vec<Range<usize>>) -> ExecTree {
        ExecTree { steps, components }
    }

    /// The steps in preorder: the root component.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Every split's component ranges, splits in preorder, each range
    /// counted from the step after its split.
    pub fn component_ranges(&self) -> &[Range<usize>] {
        &self.components
    }

    /// The component slices of a split whose component entries are
    /// `components` and whose following steps are `rest`. An entry past
    /// the table or past `rest` yields an empty slice, as only a program
    /// built by [`ExecTree::from_parts`] can have.
    pub fn components<'t>(
        &'t self,
        components: &Range<usize>,
        rest: &'t [Step],
    ) -> impl Iterator<Item = &'t [Step]> + 't {
        let entries = self.components.get(components.clone()).unwrap_or_default();
        entries.iter().map(move |range| rest.get(range.clone()).unwrap_or_default())
    }

    /// Number of `Split` steps (used by tests and stats).
    pub fn split_count(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::Split { .. })).count()
    }
}

/// Static SCE occurrence statistics of a plan (Fig. 12's measurements).
#[derive(Clone, Debug, Default)]
pub struct SceAnalysis {
    /// Pattern vertices with at least one earlier `H`-independent vertex.
    pub sce_vertices: usize,
    /// Of those, vertices where some witnessing pair owes its independence
    /// to empty `(u_i, u_j)*`-clusters (the paper's "cluster" sub-bars).
    pub cluster_sce_vertices: usize,
    /// Total pattern vertices.
    pub total_vertices: usize,
    /// Ordered independent pairs `(earlier, later)` in `H`.
    pub sce_pairs: usize,
    /// Of those, pairs whose label-pair clusters are empty in the data
    /// graph (injectivity filtering is free for them).
    pub cluster_sce_pairs: usize,
}

impl SceAnalysis {
    /// Fig. 12's static measurement of `plan`: which vertices have an
    /// earlier `H`-independent vertex, and whether empty clusters make the
    /// pair's injectivity free. Quadratic in `|V_P|`, so it runs on demand
    /// (explain, Fig. 12, plan validation) and never on the query path.
    pub fn of(catalog: &Catalog<'_>, plan: &Plan) -> SceAnalysis {
        let (dag, order) = (&plan.dag, &plan.order);
        let anc = dag.ancestor_sets(order);
        let p = catalog.pattern();
        let mut sce_vertices = 0usize;
        let mut cluster_sce = 0usize;
        let mut sce_pairs = 0usize;
        let mut cluster_sce_pairs = 0usize;
        for (k, &u) in order.iter().enumerate() {
            let mut has_sce = false;
            let mut via_cluster = false;
            for &w in order.iter().take(k) {
                if Dag::independent(&anc, u, w) {
                    has_sce = true;
                    sce_pairs += 1;
                    if !catalog.labels_ever_adjacent(p.label(u), p.label(w)) {
                        via_cluster = true;
                        cluster_sce_pairs += 1;
                    }
                }
            }
            if has_sce {
                sce_vertices += 1;
                if via_cluster {
                    cluster_sce += 1;
                }
            }
        }
        SceAnalysis {
            sce_vertices,
            cluster_sce_vertices: cluster_sce,
            total_vertices: order.len(),
            sce_pairs,
            cluster_sce_pairs,
        }
    }

    /// Fraction of pattern vertices exhibiting SCE.
    pub fn sce_fraction(&self) -> f64 {
        if self.total_vertices == 0 {
            0.0
        } else {
            self.sce_vertices as f64 / self.total_vertices as f64
        }
    }

    /// Pair-level cluster share: of all independent (SCE) pairs, the
    /// fraction owing independence to empty clusters — the paper's
    /// sub-bar ratio.
    pub fn cluster_pair_fraction(&self) -> f64 {
        if self.sce_pairs == 0 {
            0.0
        } else {
            self.cluster_sce_pairs as f64 / self.sce_pairs as f64
        }
    }
}

/// A complete matching plan for one `(pattern, variant)` task.
#[derive(Clone, Debug)]
pub struct Plan {
    pub variant: Variant,
    /// The final matching order `Φ*` (pattern vertex ids).
    pub order: Vec<VertexId>,
    /// The dependency DAG `H`.
    pub dag: Dag,
    /// NEC class of each pattern vertex.
    pub nec_class: Vec<u32>,
    /// Candidate-cache slot of each vertex; NEC-equivalent vertices with
    /// identical dependency parents share a slot so one computation serves
    /// the whole class.
    pub cache_slot: Vec<u32>,
    /// Number of distinct cache slots.
    pub slot_count: usize,
    /// Factorized execution tree for counting mode, as one flat program.
    pub root: ExecTree,
}

/// Plan generator.
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    pub fn new(config: PlannerConfig) -> Planner {
        Planner { config }
    }

    /// Generate the plan for `catalog.pattern()` under `variant`.
    pub fn plan(&self, catalog: &Catalog<'_>, variant: Variant) -> Plan {
        self.plan_recorded(catalog, variant, &csce_obs::Recorder::disabled())
    }

    /// [`Planner::plan`] with each stage timed as a span on `recorder`
    /// (`gcf`, `dag`, `nec`, `tree`, plus `descendant` and `ldsf` under
    /// the LDSF ablation — the decomposition behind Fig. 10's
    /// plan-scalability numbers).
    pub fn plan_recorded(
        &self,
        catalog: &Catalog<'_>,
        variant: Variant,
        recorder: &csce_obs::Recorder,
    ) -> Plan {
        let p = catalog.pattern();
        assert!(p.n() >= 1, "pattern must have vertices");
        assert!(p.is_connected(), "pattern must be connected");

        // Stage 1: GCF initial order (with or without cluster tie-breaks).
        let phi = recorder.time("gcf", || gcf_order(catalog, self.config));
        // Stage 2: dependency DAG.
        let dag = recorder.time("dag", || build_dag(catalog, &phi, variant));
        // LDSF ablation: reorder into H's descendant-first topological order.
        let order = if self.config.ldsf {
            let sizes = recorder.time("descendant", || descendant_sizes(&dag));
            recorder.time("ldsf", || ldsf_order(catalog, &dag, &sizes))
        } else {
            phi
        };

        // NEC classes and cache-slot assignment.
        let nec_class = if self.config.nec {
            recorder.time("nec", || nec_classes(p))
        } else {
            (0..p.n() as u32).collect()
        };
        let (cache_slot, slot_count) = assign_cache_slots(&dag, &nec_class);

        let root = recorder.time("tree", || build_exec_tree(catalog, &dag, &order, variant));

        // Boundary invariant (deep form in `csce-analyze`): `Φ*` is a
        // permutation of `V_P`, topological w.r.t. the DAG.
        debug_assert!(
            {
                let mut seen = vec![false; p.n()];
                order.len() == p.n()
                    && order.iter().all(|&u| {
                        dag.parents(u).iter().all(|&q| seen[q as usize])
                            && !std::mem::replace(&mut seen[u as usize], true)
                    })
            },
            "plan order must be a topological permutation"
        );
        Plan { variant, order, dag, nec_class, cache_slot, slot_count, root }
    }
}

/// NEC-equivalent vertices share a candidate-cache slot when their
/// dependency parents are identical, because then their signatures and
/// candidate sets coincide. Slots are numbered by first appearance in
/// vertex-id order.
///
/// The parents alone decide, although they mix edge and negation
/// dependencies: two NEC-equivalent vertices with the same parents also
/// have the same negation parents. Neither is the other's parent (it
/// would be its own), and a shared parent is adjacent in `P` to both or
/// to neither, since NEC-equivalent vertices have the same neighbours.
///
/// A vertex alone in its NEC class shares with nobody, so it takes the
/// next slot directly; only members of classes of two or more are looked
/// up by `(class, parents)`. On a pattern whose labels are mostly
/// distinct, and under every preset without NEC, nothing is hashed.
fn assign_cache_slots(dag: &Dag, nec_class: &[u32]) -> (Vec<u32>, usize) {
    // NEC class ids are dense below the vertex count.
    let mut class_size = vec![0u8; nec_class.len()];
    for &c in nec_class {
        if let Some(size) = class_size.get_mut(c as usize) {
            *size = size.saturating_add(1);
        }
    }
    let mut groups: FxHashMap<(u32, &[VertexId]), u32> = FxHashMap::default();
    let mut next = 0u32;
    let slots = (0..)
        .zip(nec_class)
        .map(|(u, &c)| {
            let shared = class_size.get(c as usize).is_some_and(|&size| size > 1);
            let slot =
                if shared { *groups.entry((c, dag.parents(u))).or_insert(next) } else { next };
            next += u32::from(slot == next);
            slot
        })
        .collect();
    (slots, next as usize)
}

/// Compile `Φ*` into the factorized execution tree.
///
/// One reverse union-find pass over `Φ*` builds a merge forest: each
/// vertex absorbs the components of `H[pos > pos(v)]` it is adjacent to,
/// and their roots become its children. Since `Φ*` is topological, those
/// are the components of its `H`-children, so the pass reads each child
/// row once and no parent row. The subtree of the vertex at
/// position `k` is then exactly its component of `H[pos ≥ k]`, so every
/// vertex set the tree decomposes is a frontier of forest roots whose
/// subtrees are its `H`-components. A frontier of several roots becomes a
/// `Split` (components in root-position order) when [`split_safe`]
/// holds; otherwise its minimum-position root is sequenced and that
/// root's children join the frontier. Steps are appended to the program
/// as they are decided, so the tree is built in preorder, with one
/// frontier heap and one scratch buffer of split roots for the whole
/// tree.
///
/// [`split_safe`]: TreeBuilder::split_safe
fn build_exec_tree(
    catalog: &Catalog<'_>,
    dag: &Dag,
    order: &[VertexId],
    variant: Variant,
) -> ExecTree {
    TreeBuilder::new(catalog.star(), dag, order, variant).tree()
}

/// The merge forest over plan positions, and the buffers of the split
/// test. Positions, not vertex ids, index everything here.
struct TreeBuilder<'a> {
    order: &'a [VertexId],
    injective: bool,
    /// Forest parent of each position (`usize::MAX` for a root).
    parent: Vec<usize>,
    /// Forest children per position, ascending.
    children: Csr<usize>,
    /// Forest preorder; the subtree of `k` is the contiguous range
    /// `preorder[pre_start[k]..pre_start[k] + size[k]]`.
    preorder: Vec<usize>,
    pre_start: Vec<usize>,
    size: Vec<usize>,
    /// The star's label id per position.
    label_id: Vec<usize>,
    /// Per dense label: the split test that last saw it, the root whose
    /// subtree it was seen in, and the position that carried it.
    stamp: Vec<(usize, usize, usize)>,
    generation: usize,
    /// The two positions of one label, in different frontier subtrees,
    /// that the last failed split test found, and which positions are
    /// sequenced. Popping a root only splits its subtree further, so
    /// while neither position is sequenced the two stay in different
    /// subtrees and every split test fails without a scan. A witness found
    /// inside one `Split` component is spent by the time the next one
    /// starts: every position of a component is sequenced before then.
    witness: Option<(usize, usize)>,
    placed: Vec<bool>,
    /// The frontier of the component being built. A split drains it, and
    /// each of its components starts from its one root, so one heap
    /// serves every component.
    frontier: BinaryHeap<Reverse<usize>>,
    /// The roots of the splits being built, innermost last, each split's
    /// ascending.
    roots: Vec<usize>,
    /// Full split scans made, for the test that bounds them.
    #[cfg(test)]
    scans: usize,
}

impl<'a> TreeBuilder<'a> {
    /// The merge forest of `order` (a topological order of `dag`): one
    /// reverse union-find pass over the `H`-children of each position,
    /// then the forest's child rows by counting, its subtree sizes
    /// backwards and its preorder forwards. Nothing is sorted.
    fn new(star: &GcStar<'_>, dag: &Dag, order: &'a [VertexId], variant: Variant) -> Self {
        let n = order.len();
        let mut pos_of = vec![0usize; n];
        for (k, &u) in order.iter().enumerate() {
            pos_of[u as usize] = k;
        }
        // Reverse union-find: the root of every set is its minimum
        // position, and each absorbed root becomes a forest child. `Φ*`
        // is topological, so `u`'s later `H`-neighbours are exactly its
        // children: its parents all sit earlier and are never read.
        let mut uf: Vec<usize> = (0..n).collect();
        let mut parent = vec![usize::MAX; n];
        for (k, &u) in order.iter().enumerate().rev() {
            for &w in dag.children(u) {
                let q = pos_of[w as usize];
                debug_assert!(q > k, "Φ* must be topological in H");
                if q <= k {
                    continue;
                }
                let r = find(&mut uf, q);
                if r != k {
                    uf[r] = k;
                    parent[r] = k;
                }
            }
        }
        let non_roots = parent.iter().enumerate().filter(|&(_, &par)| par != usize::MAX);
        let children = Csr::by_row(n, non_roots.map(|(k, &par)| (par, k)));
        // A parent precedes its children, so sizes accumulate backwards
        // and preorder starts forwards.
        let mut size = vec![1usize; n];
        for k in (0..n).rev() {
            if parent[k] != usize::MAX {
                size[parent[k]] += size[k];
            }
        }
        let mut pre_start = vec![0usize; n];
        let mut preorder = vec![0usize; n];
        let mut next_root = 0;
        for k in 0..n {
            if parent[k] == usize::MAX {
                pre_start[k] = next_root;
                next_root += size[k];
            }
            preorder[pre_start[k]] = k;
            let mut next = pre_start[k] + 1;
            for &c in children.row(k) {
                pre_start[c] = next;
                next += size[c];
            }
        }
        TreeBuilder {
            order,
            injective: variant.injective(),
            parent,
            children,
            preorder,
            pre_start,
            size,
            label_id: order.iter().map(|&u| star.label_id(u)).collect(),
            stamp: vec![(0, 0, 0); star.label_sizes().len()],
            generation: 0,
            witness: None,
            placed: vec![false; n],
            frontier: BinaryHeap::with_capacity(n),
            roots: Vec::with_capacity(n),
            #[cfg(test)]
            scans: 0,
        }
    }

    /// The tree over every position: the union of the forest's roots,
    /// trimmed to its length (a split outgrows the first capacity).
    fn tree(&mut self) -> ExecTree {
        let mut tree =
            ExecTree { steps: Vec::with_capacity(self.order.len()), components: Vec::new() };
        let roots = (0..self.order.len()).filter(|&k| self.parent[k] == usize::MAX);
        self.frontier.extend(roots.map(Reverse));
        self.component(&mut tree);
        tree.steps.shrink_to_fit();
        tree.components.shrink_to_fit();
        tree
    }

    /// Append the steps over the union of the subtrees in the frontier,
    /// leaving the frontier empty. `Seq` chains are built in a loop; only
    /// `Split` components recurse, one nesting level per call.
    fn component(&mut self, tree: &mut ExecTree) {
        loop {
            if self.frontier.len() > 1 && self.split_safe() {
                let first = self.roots.len();
                self.roots.extend(self.frontier.drain().map(|Reverse(k)| k));
                self.roots[first..].sort_unstable();
                let (entries, count) = (tree.components.len(), self.roots.len() - first);
                tree.components.resize(entries + count, 0..0);
                tree.steps.push(Step::Split { components: entries..entries + count });
                let base = tree.steps.len();
                for i in 0..count {
                    let start = tree.steps.len() - base;
                    self.frontier.push(Reverse(self.roots[first + i]));
                    self.component(tree);
                    tree.components[entries + i] = start..tree.steps.len() - base;
                }
                self.roots.truncate(first);
                return;
            }
            let Some(Reverse(k)) = self.frontier.pop() else {
                break;
            };
            tree.steps.push(Step::Seq { u: self.order[k], leaf: false });
            self.placed[k] = true;
            self.frontier.extend(self.children.row(k).iter().map(|&c| Reverse(c)));
        }
        // The component ends in `Done`, so its last step is a leaf, unless
        // it is the program's only one: the root.
        if tree.steps.len() > 1 {
            if let Some(Step::Seq { leaf, .. }) = tree.steps.last_mut() {
                *leaf = true;
            }
        }
    }

    /// Whether counting the components independently and multiplying is
    /// sound: homomorphic matching always (no injectivity); injective
    /// variants only when no label is shared across components, so
    /// candidate sets cannot collide. Cross-component induced constraints
    /// are already impossible — any label-adjacent non-neighbor pair
    /// carries a negation dependency and would have merged the components.
    ///
    /// A failed scan keeps its collision as the witness, and the tests
    /// after it fail at once until one of its two positions is sequenced,
    /// so a frontier is rescanned only when its last collision is gone.
    fn split_safe(&mut self) -> bool {
        if !self.injective {
            return true;
        }
        if let Some((x, y)) = self.witness {
            if !self.placed[x] && !self.placed[y] {
                return false;
            }
        }
        #[cfg(test)]
        {
            self.scans += 1;
        }
        self.generation += 1;
        for &Reverse(root) in &self.frontier {
            let start = self.pre_start[root];
            for &k in &self.preorder[start..start + self.size[root]] {
                let stamp = &mut self.stamp[self.label_id[k]];
                if stamp.0 == self.generation && stamp.1 != root {
                    self.witness = Some((stamp.2, k));
                    return false;
                }
                *stamp = (self.generation, root, k);
            }
        }
        true
    }
}

/// Union-find root of `x`, halving the path on the way.
fn find(uf: &mut [usize], mut x: usize) -> usize {
    while uf[x] != x {
        uf[x] = uf[uf[x]];
        x = uf[x];
    }
    x
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::exec::{CountSink, Executor, RunConfig};
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::{Graph, GraphBuilder, NO_LABEL};
    use dag::build_dag_pairwise;
    use proptest::prelude::*;

    /// The recursive tree compiler the merge-forest builder replaced: it
    /// recomputes the `H`-components of every remaining suffix. Kept as
    /// the oracle [`build_exec_tree`] must reproduce exactly, its tree
    /// flattened into a program by [`flatten`].
    fn build_tree_rec(
        catalog: &Catalog<'_>,
        dag: &Dag,
        suffix: &[VertexId],
        variant: Variant,
    ) -> ExecTree {
        flatten(&tree_rec(catalog, dag, suffix, variant))
    }

    /// The oracle's tree, one heap node per step.
    enum Node {
        Seq(VertexId, Box<Node>),
        Split(Vec<Node>),
        Done,
    }

    fn tree_rec(catalog: &Catalog<'_>, dag: &Dag, suffix: &[VertexId], variant: Variant) -> Node {
        if suffix.is_empty() {
            return Node::Done;
        }
        let components = h_components(dag, suffix);
        if components.len() > 1 && split_safe_rec(catalog, &components, variant) {
            return Node::Split(
                components.into_iter().map(|c| seq_of(catalog, dag, &c, variant)).collect(),
            );
        }
        seq_of(catalog, dag, suffix, variant)
    }

    fn seq_of(catalog: &Catalog<'_>, dag: &Dag, list: &[VertexId], variant: Variant) -> Node {
        Node::Seq(list[0], Box::new(tree_rec(catalog, dag, &list[1..], variant)))
    }

    /// `node` as a program: its steps in preorder, a `Seq` followed by
    /// `Done` a leaf unless it is the first step, and each split's
    /// component ranges counted from the step after it.
    fn flatten(node: &Node) -> ExecTree {
        fn push(node: &Node, tree: &mut ExecTree) {
            match node {
                Node::Done => {}
                Node::Seq(u, next) => {
                    let leaf = matches!(**next, Node::Done) && !tree.steps.is_empty();
                    tree.steps.push(Step::Seq { u: *u, leaf });
                    push(next, tree);
                }
                Node::Split(components) => {
                    let entries = tree.components.len();
                    tree.components.resize(entries + components.len(), 0..0);
                    tree.steps
                        .push(Step::Split { components: entries..entries + components.len() });
                    let base = tree.steps.len();
                    for (i, c) in components.iter().enumerate() {
                        let start = tree.steps.len() - base;
                        push(c, tree);
                        tree.components[entries + i] = start..tree.steps.len() - base;
                    }
                }
            }
        }
        let mut tree = ExecTree::default();
        push(node, &mut tree);
        tree
    }

    /// Connected components of `H` restricted to `suffix` (order preserved
    /// within each component).
    fn h_components(dag: &Dag, suffix: &[VertexId]) -> Vec<Vec<VertexId>> {
        let n = dag.n();
        let mut in_suffix = BitSet::new(n);
        for &u in suffix {
            in_suffix.insert(u as usize);
        }
        let mut comp_of: Vec<u32> = vec![u32::MAX; n];
        let mut next_comp = 0u32;
        for &u in suffix {
            if comp_of[u as usize] != u32::MAX {
                continue;
            }
            let comp = next_comp;
            next_comp += 1;
            let mut stack = vec![u];
            comp_of[u as usize] = comp;
            while let Some(v) = stack.pop() {
                for &w in dag.children(v).iter().chain(dag.parents(v)) {
                    if in_suffix.contains(w as usize) && comp_of[w as usize] == u32::MAX {
                        comp_of[w as usize] = comp;
                        stack.push(w);
                    }
                }
            }
        }
        let mut components: Vec<Vec<VertexId>> = vec![Vec::new(); next_comp as usize];
        for &u in suffix {
            components[comp_of[u as usize] as usize].push(u);
        }
        components
    }

    fn split_safe_rec(
        catalog: &Catalog<'_>,
        components: &[Vec<VertexId>],
        variant: Variant,
    ) -> bool {
        if !variant.injective() {
            return true;
        }
        let p = catalog.pattern();
        let mut seen: FxHashMap<csce_graph::Label, usize> = FxHashMap::default();
        for (ci, comp) in components.iter().enumerate() {
            for &u in comp {
                if *seen.entry(p.label(u)).or_insert(ci) != ci {
                    return false;
                }
            }
        }
        true
    }

    /// The slot assignment that looked every vertex up by `(class,
    /// parents)`, kept as the oracle the singleton shortcut of
    /// [`assign_cache_slots`] must reproduce.
    fn assign_cache_slots_hashed(dag: &Dag, nec_class: &[u32], n: usize) -> (Vec<u32>, usize) {
        let mut groups: FxHashMap<(u32, &[VertexId]), u32> = FxHashMap::default();
        let mut slots = vec![0u32; n];
        let mut next = 0u32;
        for u in 0..n as VertexId {
            let key = (nec_class[u as usize], dag.parents(u));
            let slot = *groups.entry(key).or_insert_with(|| {
                let s = next;
                next += 1;
                s
            });
            slots[u as usize] = slot;
        }
        (slots, next as usize)
    }

    /// `p` with `groups` extra groups of 2–4 leaves: the leaves of a group
    /// share one label and hang off one vertex by the same kind of edge,
    /// so they are NEC-equivalent, next to the singleton classes of `p`.
    pub(crate) fn with_twin_leaves(
        rng: &mut Rng,
        p: &Graph,
        labels: usize,
        groups: usize,
    ) -> Graph {
        let mut b = GraphBuilder::new();
        for u in 0..p.n() as VertexId {
            b.add_vertex(p.label(u));
        }
        for e in p.edges() {
            let _ = if e.directed {
                b.add_edge(e.src, e.dst, e.label)
            } else {
                b.add_undirected_edge(e.src, e.dst, e.label)
            };
        }
        for _ in 0..groups {
            let (hub, label, kind) =
                (rng.below(p.n()) as VertexId, rng.below(labels), rng.below(3));
            for _ in 0..2 + rng.below(3) {
                let leaf = b.add_vertex(label as u32);
                let _ = match kind {
                    0 => b.add_undirected_edge(hub, leaf, NO_LABEL),
                    1 => b.add_edge(hub, leaf, NO_LABEL),
                    _ => b.add_edge(leaf, hub, NO_LABEL),
                };
            }
        }
        b.build()
    }

    /// SplitMix64: the random source of the equivalence properties.
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

    /// A random graph over `n` vertices with vertex labels from `labels`:
    /// a random spanning tree when `connected`, plus `extra` random edges
    /// — directed either way, undirected, and antiparallel multi-edges,
    /// with two edge labels. Rejected edges (duplicates, mixed kinds) are
    /// skipped.
    pub(crate) fn random_graph(
        rng: &mut Rng,
        n: usize,
        labels: std::ops::Range<usize>,
        connected: bool,
        extra: usize,
    ) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex((labels.start + rng.below(labels.len())) as u32);
        }
        let mut add = |rng: &mut Rng, a: usize, c: usize| {
            let label = if rng.below(3) == 0 { 1 } else { NO_LABEL };
            let (a, c) = (a as VertexId, c as VertexId);
            let _ = match rng.below(3) {
                0 => b.add_undirected_edge(a, c, label),
                1 => b.add_edge(a, c, label),
                _ => b.add_edge(c, a, label),
            };
        };
        if connected {
            for v in 1..n {
                let u = rng.below(v);
                add(rng, u, v);
            }
        }
        for _ in 0..extra {
            let (a, c) = (rng.below(n), rng.below(n));
            if a != c {
                add(rng, a, c);
            }
        }
        b.build()
    }

    /// A uniformly random permutation of `0..n`.
    fn random_permutation(rng: &mut Rng, n: usize) -> Vec<VertexId> {
        let mut phi: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            phi.swap(i, rng.below(i + 1));
        }
        phi
    }

    /// A random topological order of `dag` (Kahn's algorithm picking a
    /// random ready vertex each step).
    fn random_topological_order(rng: &mut Rng, dag: &Dag) -> Vec<VertexId> {
        let mut indegree: Vec<usize> =
            (0..dag.n() as VertexId).map(|u| dag.parents(u).len()).collect();
        let mut ready: Vec<VertexId> =
            (0..dag.n() as VertexId).filter(|&u| indegree[u as usize] == 0).collect();
        let mut order = Vec::with_capacity(dag.n());
        while !ready.is_empty() {
            let u = ready.swap_remove(rng.below(ready.len()));
            order.push(u);
            for &c in dag.children(u) {
                indegree[c as usize] -= 1;
                if indegree[c as usize] == 0 {
                    ready.push(c);
                }
            }
        }
        assert_eq!(order.len(), dag.n(), "H is acyclic");
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The adjacency-driven DAG equals the `Φ²` sweep for any `Φ`
        /// (for vertex-induced matching also over a star read for
        /// edge-induced matching), its negation parents are the parents
        /// with no pattern edge to the vertex (none outside vertex-induced
        /// matching), and the merge-forest tree equals the recursive
        /// compiler for any topological order of `H` and for the planner's
        /// own `Φ*` (LDSF ablation included), in every variant, and the
        /// default `Φ*` is the GCF order. Patterns have 1–48 vertices over
        /// 1–40 labels (one label, a few repeated ones, or mostly distinct
        /// ones), a third of them over 1–3 labels, where split tests fail
        /// repeatedly and their witness is reused and replaced; data labels
        /// start past some pattern labels and run past the pattern's last
        /// one.
        #[test]
        fn plan_stages_match_their_oracles(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(48);
            let labels = if rng.below(3) == 0 { 1 + rng.below(3) } else { rng.label_count() };
            let extra = rng.below(2 * n + 1);
            let p = random_graph(&mut rng, n, 0..labels, true, extra);
            let data_n = 2 + rng.below(40);
            let data_extra = rng.below(4 * data_n);
            let first = rng.below(labels / 2 + 1);
            let more = rng.below(4);
            let g = random_graph(&mut rng, data_n, first..labels + more, false, data_extra);
            let gc = build_ccsr(&g).unwrap();
            for variant in Variant::ALL {
                let star = read_csr(&gc, &p, variant);
                let catalog = Catalog::new(&p, &star);
                let phi = random_permutation(&mut rng, n);
                let dag = build_dag(&catalog, &phi, variant);
                prop_assert_eq!(&dag, &build_dag_pairwise(&catalog, &phi, variant));
                if variant == Variant::VertexInduced {
                    let edge_star = read_csr(&gc, &p, Variant::EdgeInduced);
                    let edge_catalog = Catalog::new(&p, &edge_star);
                    prop_assert_eq!(&build_dag(&edge_catalog, &phi, variant), &dag);
                }
                for u in 0..n as VertexId {
                    let want: Vec<VertexId> = match variant {
                        Variant::VertexInduced => {
                            dag.parents(u).iter().copied().filter(|&w| !p.connected(w, u)).collect()
                        }
                        _ => Vec::new(),
                    };
                    prop_assert_eq!(dag.negation_parents(u).collect::<Vec<_>>(), want, "{}", variant);
                }
                for order in [phi.clone(), random_topological_order(&mut rng, &dag)] {
                    prop_assert_eq!(
                        build_exec_tree(&catalog, &dag, &order, variant),
                        build_tree_rec(&catalog, &dag, &order, variant),
                        "{variant}, order {order:?}"
                    );
                }
                for config in PlannerConfig::ALL {
                    let plan = Planner::new(config).plan(&catalog, variant);
                    prop_assert_eq!(
                        &plan.root,
                        &build_tree_rec(&catalog, &plan.dag, &plan.order, variant)
                    );
                }
                let default = Planner::new(PlannerConfig::default()).plan(&catalog, variant);
                prop_assert_eq!(default.order, gcf_order(&catalog, PlannerConfig::csce()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The singleton shortcut numbers the cache slots as hashing every
        /// vertex did, for every preset and variant: 1–24-vertex random
        /// patterns over 1–6 labels, with 0–3 groups of equal-label leaves
        /// sharing a hub (NEC classes of two or more) next to singleton
        /// classes, over random data on the same labels plus one. Some
        /// plan shares a slot whenever a leaf group was added.
        #[test]
        fn cache_slots_match_the_hashing_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(24);
            let labels = 1 + rng.below(6);
            let extra = rng.below(n + 1);
            let base = random_graph(&mut rng, n, 0..labels, true, extra);
            let groups = rng.below(4);
            let p = with_twin_leaves(&mut rng, &base, labels, groups);
            let data_n = 2 + rng.below(30);
            let data_extra = rng.below(4 * data_n);
            let g = random_graph(&mut rng, data_n, 0..labels + 1, false, data_extra);
            let gc = build_ccsr(&g).unwrap();
            let mut shared = false;
            for variant in Variant::ALL {
                let star = read_csr(&gc, &p, variant);
                let catalog = Catalog::new(&p, &star);
                for config in PlannerConfig::ALL {
                    let plan = Planner::new(config).plan(&catalog, variant);
                    let (slots, count) = assign_cache_slots_hashed(&plan.dag, &plan.nec_class, p.n());
                    prop_assert_eq!(&plan.cache_slot, &slots, "{} {}", variant, config.name());
                    prop_assert_eq!(plan.slot_count, count, "{} {}", variant, config.name());
                    shared |= plan.slot_count < p.n();
                }
            }
            prop_assert!(groups == 0 || shared, "a leaf group shares no slot");
        }
    }

    /// A 2000-vertex vertex-induced pattern in the size and density region
    /// where the compiler used to give up and emit a plain sequence: a
    /// 1000-vertex core over four mutually adjacent labels (so negation
    /// dependencies make `H` dense) with 1000 distinct-label leaves.
    #[test]
    fn large_vertex_induced_plan_factorizes_every_vertex_once() {
        let mut rng = Rng(2000);
        let core = 1000;
        let mut b = GraphBuilder::new();
        for v in 0..core {
            b.add_vertex((v % 4) as u32);
        }
        for leaf in 0..core {
            b.add_vertex(10 + leaf as u32);
        }
        for v in 1..core {
            b.add_undirected_edge(rng.below(v) as VertexId, v as VertexId, NO_LABEL).unwrap();
        }
        for leaf in 0..core {
            let anchor = 4 * rng.below(core / 4);
            b.add_undirected_edge(anchor as VertexId, (core + leaf) as VertexId, NO_LABEL).unwrap();
        }
        let p = b.build();
        // Two data vertices per core label, all pairwise adjacent.
        let mut gb = GraphBuilder::new();
        for v in 0..8u32 {
            gb.add_vertex(v % 4);
        }
        for a in 0..8 {
            for c in a + 1..8 {
                gb.add_undirected_edge(a, c, NO_LABEL).unwrap();
            }
        }
        let g = gb.build();
        let gc = build_ccsr(&g).unwrap();
        let variant = Variant::VertexInduced;
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
        assert!(plan.dag.edge_count() > 4 * p.n(), "lands in the old fallback region");
        assert!(plan.root.split_count() > 0, "the leaves factorize");

        let seq = |step: &Step| match *step {
            Step::Seq { u, .. } => Some(u),
            Step::Split { .. } => None,
        };
        let mut seen: Vec<VertexId> = plan.root.steps().iter().filter_map(seq).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..p.n() as VertexId).collect::<Vec<_>>());

        let factorized = Executor::new(&catalog, &plan, RunConfig::default()).count();
        let mut sink = CountSink::default();
        Executor::new(&catalog, &plan, RunConfig::default()).drive(&mut sink);
        assert_eq!(factorized, sink.count);
    }

    /// A sparse edge-induced plan of 500 vertices over 2000 labels (the
    /// `large-hetero` shape) rescans its frontier only when the last
    /// collision is gone: a few dozen full split scans, where one per
    /// failed split made about 480.
    #[test]
    fn split_tests_reuse_their_witness() {
        use csce_graph::generate::{chung_lu, randomize_vertex_labels};
        use csce_graph::sample::PatternSampler;
        use csce_graph::Density;
        let g = randomize_vertex_labels(&chung_lu(20_000, 88_000, 2.6, 20, 0, false, 7), 2000, 1);
        let gc = build_ccsr(&g).unwrap();
        let p = PatternSampler::new(&g, 1).sample(500, Density::Sparse).expect("a pattern").pattern;
        let variant = Variant::EdgeInduced;
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
        let mut builder = TreeBuilder::new(&star, &plan.dag, &plan.order, variant);
        assert_eq!(builder.tree(), plan.root);
        assert!(plan.root.split_count() > 0, "the plan splits");
        assert!(builder.scans <= 40, "{} full split scans", builder.scans);
    }

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

    fn plan_for(p: &Graph, g: &Graph, variant: Variant, config: PlannerConfig) -> Plan {
        let gc = build_ccsr(g).unwrap();
        let star = read_csr(&gc, p, variant);
        let catalog = Catalog::new(p, &star);
        Planner::new(config).plan(&catalog, variant)
    }

    #[test]
    fn plan_is_topological_permutation() {
        let p = fig1_pattern();
        let plan = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::csce());
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        let pos = |u: VertexId| plan.order.iter().position(|&w| w == u);
        for u in 0..8u32 {
            for &child in plan.dag.children(u) {
                assert!(pos(u) < pos(child));
            }
        }
    }

    #[test]
    fn sce_analysis_finds_independent_regions() {
        let p = fig1_pattern();
        let gc = build_ccsr(&p).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let sce = SceAnalysis::of(&catalog, &plan);
        // The paper's R1/R2 example: u3 and u4/u5-side candidates are
        // independent, so several vertices exhibit SCE.
        assert!(sce.sce_vertices > 0);
        assert!(sce.sce_fraction() > 0.3);
        assert_eq!(sce.total_vertices, 8);
    }

    #[test]
    fn exec_tree_splits_star_leaves() {
        // Star with distinct-label leaves: after the center, every leaf is
        // its own H-component with disjoint labels -> full split.
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_vertex(3);
        for leaf in 1..4 {
            b.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let p = b.build();
        let plan = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::csce());
        assert_eq!(plan.root.split_count(), 1);
        match plan.root.steps() {
            [Step::Seq { u: 0, leaf: false }, Step::Split { components }, ..] => {
                assert_eq!(components.len(), 3);
            }
            other => panic!("expected a split after the center, got {other:?}"),
        }
    }

    #[test]
    fn same_label_leaves_do_not_split_when_injective() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let p = b.build();
        let plan_e = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::csce());
        assert_eq!(plan_e.root.split_count(), 0, "injective: shared label blocks split");
        let plan_h = plan_for(&p, &p, Variant::Homomorphic, PlannerConfig::csce());
        assert_eq!(plan_h.root.split_count(), 1, "homomorphic: split is safe");
    }

    #[test]
    fn nec_leaves_share_cache_slots() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let p = b.build();
        let plan = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::csce());
        assert_eq!(plan.cache_slot[1], plan.cache_slot[2]);
        assert_ne!(plan.cache_slot[0], plan.cache_slot[1]);
        assert_eq!(plan.slot_count, 2);
        let no_nec = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::ri_cluster());
        assert_eq!(no_nec.slot_count, 3);
    }

    #[test]
    fn preset_names_round_trip() {
        let names: Vec<&str> = PlannerConfig::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["csce", "csce+ldsf", "ri", "ri+c"]);
        for planner in PlannerConfig::ALL {
            assert_eq!(planner.name().parse(), Ok(planner));
        }
        assert_eq!(PlannerConfig::default(), PlannerConfig::csce());
        let err = "csce+nec".parse::<PlannerConfig>().unwrap_err();
        assert!(err.contains("\"csce+nec\""), "{err}");
        for name in names {
            assert!(err.contains(name), "{err} omits {name}");
        }
    }

    #[test]
    fn config_presets_differ() {
        let p = fig1_pattern();
        let full = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::csce());
        let ri = plan_for(&p, &p, Variant::EdgeInduced, PlannerConfig::ri_only());
        // Both are valid permutations; they need not agree.
        assert_eq!(full.order.len(), ri.order.len());
        assert!(ri.slot_count == 8, "no NEC sharing in RI preset");
    }

    #[test]
    fn vertex_induced_plan_has_negation_parents() {
        let p = fig1_pattern();
        // Use a data graph where C-C edges exist so u3-u4 gets a negation
        // dependency: P itself has no C-C edge, so build a richer G.
        let mut gb = GraphBuilder::new();
        for &l in &[0u32, 1, 2, 2, 1, 0, 3, 0, 2] {
            gb.add_vertex(l);
        }
        for (s, d) in
            [(0, 1), (0, 2), (0, 5), (6, 0), (1, 3), (4, 1), (5, 4), (5, 7), (2, 8), (3, 8)]
        {
            gb.add_edge(s, d, NO_LABEL).unwrap();
        }
        let g = gb.build();
        let plan = plan_for(&p, &g, Variant::VertexInduced, PlannerConfig::csce());
        let has_negation = (0..8u32).any(|u| plan.dag.negation_parents(u).next().is_some());
        assert!(has_negation);
    }
}
