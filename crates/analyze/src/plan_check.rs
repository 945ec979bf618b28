//! Deep structural validation of plan artifacts — the dependency DAG `H`
//! (Algorithm 2), descendant sizes (Algorithm 3, which the LDSF ablation
//! reads), the matching order `Φ*`, NEC classes, cache slots, and the
//! factorized execution tree.
//!
//! Everything is re-derived from first principles: acyclicity by Kahn's
//! algorithm, descendant sizes by naive per-vertex DFS (not the bitset
//! dynamic program being audited), NEC soundness by recomputing classes
//! from the pattern. A planner regression that emits a cyclic `H`, a
//! non-topological `Φ*`, or an execution tree that skips a vertex shows up
//! here instead of as a silently wrong count.

use crate::{Validate, ValidationReport};
use csce_core::plan::dag::Dag;
use csce_core::plan::descendant::descendant_sizes;
use csce_core::plan::nec::nec_classes;
use csce_core::plan::Step;
use csce_core::{Catalog, Plan, SceAnalysis};
use csce_graph::{FxHashMap, Graph, VertexId};

impl Validate for Dag {
    fn validate(&self) -> ValidationReport {
        let mut r = ValidationReport::new(format!(
            "dependency dag ({} vertices, {} arcs)",
            self.n(),
            self.edge_count()
        ));
        check_dag_structure(self, &mut r);
        let acyclic = check_acyclic(self, &mut r);
        if acyclic {
            check_descendant_sizes(self, &mut r);
        }
        r
    }
}

impl Validate for Plan {
    fn validate(&self) -> ValidationReport {
        let mut r = ValidationReport::new(format!(
            "plan ({} vertices, {})",
            self.order.len(),
            self.variant
        ));
        r.merge(self.dag.validate());
        check_order(self, &mut r);
        check_backward_neighbors(self, &mut r);
        check_exec_tree(self, &mut r);
        check_cache_slots(self, &mut r);
        r
    }
}

/// Pattern-aware plan validation: everything [`Validate`] checks plus the
/// properties that need the pattern and the catalog it was planned over —
/// every pattern edge realized exactly once as a dependency, NEC classes
/// that refine the recomputed neighborhood equivalence, and consistent SCE
/// statistics.
pub fn validate_plan(catalog: &Catalog<'_>, plan: &Plan) -> ValidationReport {
    let p = catalog.pattern();
    let mut r = plan.validate();
    r.ran("plan.pattern-size");
    if plan.dag.n() != p.n() || plan.order.len() != p.n() {
        r.violation(
            "plan.pattern-size",
            format!(
                "plan spans {} vertices (dag {}) but the pattern has {}",
                plan.order.len(),
                plan.dag.n(),
                p.n()
            ),
        );
        return r;
    }
    check_edge_dependencies(p, plan, &mut r);
    check_nec_refinement(p, plan, &mut r);
    check_sce_bounds(catalog, plan, &mut r);
    r
}

/// Adjacency mirror consistency, sortedness, vertex ranges, and the
/// containment of edge parents in the plain parent lists. Negation
/// parents are the remaining parents, so they need no check.
fn check_dag_structure(dag: &Dag, r: &mut ValidationReport) {
    r.ran("dag.mirror");
    r.ran("dag.sorted-unique");
    r.ran("dag.vertex-range");
    r.ran("dag.parent-closure");
    let n = dag.n() as VertexId;
    for u in 0..n {
        for list in [dag.children(u), dag.parents(u)] {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                r.violation(
                    "dag.sorted-unique",
                    format!("vertex {u}: adjacency list is not sorted and deduplicated"),
                );
            }
            if list.iter().any(|&w| w >= n) {
                r.violation("dag.vertex-range", format!("vertex {u} references a vertex >= {n}"));
            }
        }
        for &c in dag.children(u) {
            if c < n && dag.parents(c).binary_search(&u).is_err() {
                r.violation("dag.mirror", format!("arc {u} -> {c} missing from {c}'s parents"));
            }
        }
        for &p in dag.parents(u) {
            if p < n && dag.children(p).binary_search(&u).is_err() {
                r.violation("dag.mirror", format!("arc {p} -> {u} missing from {p}'s children"));
            }
        }
        for &(p, _) in dag.edge_parents(u) {
            if dag.parents(u).binary_search(&p).is_err() {
                r.violation(
                    "dag.parent-closure",
                    format!("vertex {u}: edge parent {p} is not a dependency parent"),
                );
            }
        }
    }
}

/// Acyclicity by Kahn's algorithm; returns whether `H` is acyclic.
fn check_acyclic(dag: &Dag, r: &mut ValidationReport) -> bool {
    r.ran("dag.acyclic");
    let n = dag.n();
    let mut indegree: Vec<usize> = (0..n).map(|u| dag.parents(u as VertexId).len()).collect();
    let mut ready: Vec<VertexId> =
        (0..n as VertexId).filter(|&u| indegree[u as usize] == 0).collect();
    let mut done = 0usize;
    while let Some(u) = ready.pop() {
        done += 1;
        for &c in dag.children(u) {
            if (c as usize) < n {
                indegree[c as usize] -= 1;
                if indegree[c as usize] == 0 {
                    ready.push(c);
                }
            }
        }
    }
    if done != n {
        r.violation("dag.acyclic", format!("H contains a cycle through {} vertices", n - done));
        return false;
    }
    true
}

/// Algorithm 3 audited by brute force: per-vertex DFS reachability counts
/// must equal the bitset dynamic program's output.
fn check_descendant_sizes(dag: &Dag, r: &mut ValidationReport) {
    r.ran("dag.descendant-sizes");
    let fast = descendant_sizes(dag);
    let n = dag.n();
    for u in 0..n as VertexId {
        let mut seen = vec![false; n];
        let mut stack: Vec<VertexId> = dag.children(u).to_vec();
        let mut count = 0usize;
        while let Some(v) = stack.pop() {
            if seen[v as usize] {
                continue;
            }
            seen[v as usize] = true;
            count += 1;
            stack.extend_from_slice(dag.children(v));
        }
        if fast[u as usize] != count {
            r.violation(
                "dag.descendant-sizes",
                format!(
                    "vertex {u}: Algorithm 3 reports {} descendants, DFS finds {count}",
                    fast[u as usize]
                ),
            );
        }
    }
}

/// Each vertex's position in `Φ*`, or `None` unless `Φ*` is a
/// permutation of `H`'s vertices.
fn order_positions(plan: &Plan) -> Option<Vec<usize>> {
    let mut pos = vec![usize::MAX; plan.dag.n()];
    for (k, &u) in plan.order.iter().enumerate() {
        let slot = pos.get_mut(u as usize).filter(|q| **q == usize::MAX)?;
        *slot = k;
    }
    (plan.order.len() == pos.len()).then_some(pos)
}

/// `Φ*` is a permutation, and the order is topological with respect to
/// `H` (Algorithm 4's contract).
fn check_order(plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.order-permutation");
    r.ran("plan.topological");
    let Some(pos) = order_positions(plan) else {
        r.violation(
            "plan.order-permutation",
            format!(
                "Φ* ({} entries) is not a permutation of 0..{}: a vertex is repeated, missing \
                 or out of range",
                plan.order.len(),
                plan.dag.n()
            ),
        );
        return;
    };
    for (k, &u) in plan.order.iter().enumerate() {
        for &p in plan.dag.parents(u) {
            if pos.get(p as usize).is_some_and(|&q| q >= k) {
                r.violation(
                    "plan.topological",
                    format!("dependency {p} -> {u} is violated by the order"),
                );
            }
        }
    }
}

/// The backward-neighbor contract of `Φ*` for connected patterns (GCF
/// orders connected prefixes, and LDSF keeps them): every vertex after the
/// first has at least one edge dependency on an earlier vertex.
fn check_backward_neighbors(plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.backward-neighbors");
    for &u in plan.order.iter().skip(1) {
        if plan.dag.edge_parents(u).is_empty() {
            r.violation(
                "plan.backward-neighbors",
                format!("vertex {u} has no backward edge dependency (order not connected)"),
            );
        }
    }
}

/// The execution tree maps every pattern vertex exactly once on each
/// root-to-`Done` path, sequencing respects `Φ*` within each branch, and
/// every `H`-parent of a `Seq` step's vertex is sequenced on that step's
/// root path (`plan.exec-tree-parents`): the count recursion maps a
/// vertex's parents before its candidates are computed.
/// The program's layout is checked on the way (`plan.exec-tree-layout`):
/// a split has at least two components, its component ranges are
/// non-empty and contiguous and fill exactly the steps after it, and a
/// step's `leaf` flag holds exactly when it ends its component and is not
/// the program's first step.
fn check_exec_tree(plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.exec-tree-coverage");
    r.ran("plan.exec-tree-order");
    r.ran("plan.exec-tree-parents");
    r.ran("plan.exec-tree-layout");
    let Some(pos) = order_positions(plan) else {
        return; // no usable positions; reported by check_order
    };
    let n = pos.len();
    let mut check =
        ProgramCheck { plan, pos, counts: vec![0; n], path: Vec::new(), on_path: vec![false; n] };
    check.visit(plan.root.steps(), 0, None, r);
    for (u, &c) in check.counts.iter().enumerate() {
        if c != 1 {
            r.violation(
                "plan.exec-tree-coverage",
                format!("vertex {u} appears {c} times in the execution tree, expected once"),
            );
        }
    }
}

/// The state of [`check_exec_tree`]'s walk down the program.
struct ProgramCheck<'p> {
    plan: &'p Plan,
    /// Each vertex's position in `Φ*`.
    pos: Vec<usize>,
    /// How often each vertex is sequenced.
    counts: Vec<u32>,
    /// The vertices sequenced on the current step's root path, in order,
    /// and a flag per vertex for the same set.
    path: Vec<VertexId>,
    on_path: Vec<bool>,
}

impl ProgramCheck<'_> {
    /// Check one component slice `steps` of the program, the first of
    /// them at step `start`, below a root path whose last vertex sits at
    /// `last_pos` in `Φ*`. Every recursion is into a slice of the steps
    /// after a split, so the walk ends on any program.
    fn visit(
        &mut self,
        steps: &[Step],
        start: usize,
        mut last_pos: Option<usize>,
        r: &mut ValidationReport,
    ) {
        let tree = &self.plan.root;
        for (i, step) in steps.iter().enumerate() {
            let at = start + i;
            match step {
                Step::Seq { u, leaf } => {
                    let want = i + 1 == steps.len() && at > 0;
                    if *leaf != want {
                        r.violation(
                            "plan.exec-tree-layout",
                            format!("step {at} (u{u}) has leaf {leaf}, but its place says {want}"),
                        );
                    }
                    let (Some(count), Some(&pos)) =
                        (self.counts.get_mut(*u as usize), self.pos.get(*u as usize))
                    else {
                        r.violation(
                            "plan.exec-tree-coverage",
                            format!("tree references vertex {u}"),
                        );
                        continue;
                    };
                    *count += 1;
                    if last_pos.is_some_and(|last| pos <= last) {
                        r.violation(
                            "plan.exec-tree-order",
                            format!("vertex {u} is sequenced against the Φ* order"),
                        );
                    }
                    last_pos = Some(pos);
                    for &p in self.plan.dag.parents(*u) {
                        if !self.on_path.get(p as usize).is_some_and(|&on| on) {
                            r.violation(
                                "plan.exec-tree-parents",
                                format!(
                                    "step {at} (u{u}): H-parent {p} is not sequenced on its \
                                     root path"
                                ),
                            );
                        }
                    }
                    self.path.push(*u);
                    self.on_path[*u as usize] = true;
                }
                Step::Split { components } => {
                    let rest = &steps[i + 1..];
                    let Some(ranges) = tree.component_ranges().get(components.clone()) else {
                        r.violation(
                            "plan.exec-tree-layout",
                            format!(
                                "split at step {at} names components {components:?} of a table \
                                 of {}",
                                tree.component_ranges().len()
                            ),
                        );
                        return;
                    };
                    if ranges.len() < 2 {
                        r.violation(
                            "plan.exec-tree-layout",
                            format!("split at step {at} has {} component(s)", ranges.len()),
                        );
                    }
                    let mut next = 0;
                    for range in ranges {
                        if range.start != next {
                            r.violation(
                                "plan.exec-tree-layout",
                                format!(
                                    "split at step {at}: component {range:?} is not contiguous \
                                     with the one before, which ends at {next}"
                                ),
                            );
                        }
                        if range.is_empty() {
                            r.violation(
                                "plan.exec-tree-layout",
                                format!("split at step {at}: component {range:?} is empty"),
                            );
                        }
                        let Some(comp) = rest.get(range.clone()) else {
                            r.violation(
                                "plan.exec-tree-layout",
                                format!(
                                    "split at step {at}: component {range:?} leaves the {} steps \
                                     after the split",
                                    rest.len()
                                ),
                            );
                            continue;
                        };
                        let mark = self.path.len();
                        self.visit(comp, at + 1 + range.start, last_pos, r);
                        for u in self.path.drain(mark..) {
                            self.on_path[u as usize] = false;
                        }
                        next = range.end;
                    }
                    if next != rest.len() {
                        r.violation(
                            "plan.exec-tree-layout",
                            format!(
                                "split at step {at}: components end at {next}, not at the {} \
                                 steps after the split",
                                rest.len()
                            ),
                        );
                    }
                    return;
                }
            }
        }
    }
}

/// Cache slots are dense and in bijection with `(NEC class, parents)`
/// signatures.
fn check_cache_slots(plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.cache-slots");
    let n = plan.dag.n();
    if plan.cache_slot.len() != n || plan.nec_class.len() != n {
        r.violation(
            "plan.cache-slots",
            format!(
                "cache_slot/nec_class sized {}/{} for {n} vertices",
                plan.cache_slot.len(),
                plan.nec_class.len()
            ),
        );
        return;
    }
    let mut sig_of_slot: FxHashMap<u32, (u32, &[VertexId])> = FxHashMap::default();
    let mut slot_of_sig: FxHashMap<(u32, &[VertexId]), u32> = FxHashMap::default();
    for u in 0..n as VertexId {
        let slot = plan.cache_slot[u as usize];
        if slot as usize >= plan.slot_count {
            r.violation(
                "plan.cache-slots",
                format!("vertex {u} uses slot {slot} >= slot_count {}", plan.slot_count),
            );
            continue;
        }
        let sig = (plan.nec_class[u as usize], plan.dag.parents(u));
        if let Some(prev) = sig_of_slot.get(&slot) {
            if prev != &sig {
                r.violation(
                    "plan.cache-slots",
                    format!("slot {slot} is shared by vertices with different signatures"),
                );
            }
        } else {
            sig_of_slot.insert(slot, sig);
        }
        if let Some(&prev_slot) = slot_of_sig.get(&sig) {
            if prev_slot != slot {
                r.violation(
                    "plan.cache-slots",
                    format!("equal signatures split across slots {prev_slot} and {slot}"),
                );
            }
        } else {
            slot_of_sig.insert(sig, slot);
        }
    }
    if sig_of_slot.len() != plan.slot_count {
        r.violation(
            "plan.cache-slots",
            format!("{} slots in use but slot_count = {}", sig_of_slot.len(), plan.slot_count),
        );
    }
}

/// The SCE occurrence statistics ([`SceAnalysis::of`]) are internally
/// consistent.
fn check_sce_bounds(catalog: &Catalog<'_>, plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.sce-bounds");
    let n = plan.order.len();
    let s = &SceAnalysis::of(catalog, plan);
    let pair_bound = n * n.saturating_sub(1) / 2;
    if s.total_vertices != n
        || s.sce_vertices > n
        || s.cluster_sce_vertices > s.sce_vertices
        || s.cluster_sce_pairs > s.sce_pairs
        || s.sce_pairs > pair_bound
    {
        r.violation(
            "plan.sce-bounds",
            format!(
                "inconsistent SCE stats: {}/{} vertices ({} cluster), {}/{pair_bound} pairs ({} cluster)",
                s.sce_vertices, s.total_vertices, s.cluster_sce_vertices, s.sce_pairs,
                s.cluster_sce_pairs
            ),
        );
    }
}

/// Every pattern edge is realized as exactly one edge dependency, and each
/// dependency's edge index actually connects the pair it claims to.
fn check_edge_dependencies(p: &Graph, plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.edge-dependencies");
    let mut realized = vec![0u32; p.m()];
    for u in 0..p.n() as VertexId {
        for &(parent, eidx) in plan.dag.edge_parents(u) {
            let Some(e) = p.edges().get(eidx) else {
                r.violation(
                    "plan.edge-dependencies",
                    format!("vertex {u}: edge index {eidx} is out of range"),
                );
                continue;
            };
            realized[eidx] += 1;
            if (e.src, e.dst) != (parent, u) && (e.src, e.dst) != (u, parent) {
                r.violation(
                    "plan.edge-dependencies",
                    format!(
                        "dependency {parent} -> {u} cites edge {eidx} which connects ({}, {})",
                        e.src, e.dst
                    ),
                );
            }
        }
    }
    for (eidx, &c) in realized.iter().enumerate() {
        if c != 1 {
            r.violation(
                "plan.edge-dependencies",
                format!("pattern edge {eidx} realized {c} times as a dependency, expected once"),
            );
        }
    }
}

/// NEC soundness: vertices the plan places in one class must be
/// neighborhood-equivalent under a from-scratch recomputation (the plan's
/// classes may be finer — the RI presets use identity classes —
/// but never coarser).
fn check_nec_refinement(p: &Graph, plan: &Plan, r: &mut ValidationReport) {
    r.ran("plan.nec-refinement");
    let truth = nec_classes(p);
    let mut rep_of_class: FxHashMap<u32, VertexId> = FxHashMap::default();
    for u in 0..p.n() as VertexId {
        let c = plan.nec_class[u as usize];
        match rep_of_class.get(&c) {
            Some(&rep) => {
                if truth[rep as usize] != truth[u as usize] {
                    r.violation(
                        "plan.nec-refinement",
                        format!(
                            "plan groups {rep} and {u} in NEC class {c} but they are not neighborhood-equivalent"
                        ),
                    );
                }
            }
            None => {
                rep_of_class.insert(c, u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_core::plan::dag::build_dag;
    use csce_core::plan::ExecTree;
    use csce_core::{Planner, PlannerConfig};
    use csce_graph::{GraphBuilder, Variant, NO_LABEL};
    use std::ops::Range;

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

    fn check_variant(variant: Variant, config: PlannerConfig) {
        let p = fig1_pattern();
        let gc = build_ccsr(&p).unwrap();
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(config).plan(&catalog, variant);
        let report = validate_plan(&catalog, &plan);
        assert!(report.is_ok(), "{variant}: {:?}", report.details());
        assert!(report.checks_run() >= 15);
    }

    #[test]
    fn generated_plans_pass_all_variants_and_presets() {
        for variant in Variant::ALL {
            for config in PlannerConfig::ALL {
                check_variant(variant, config);
            }
        }
    }

    #[test]
    fn cyclic_dag_is_detected() {
        // ISSUE acceptance: a cyclic dependency graph must be flagged.
        let dag = Dag::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        let report = dag.validate();
        assert!(!report.is_ok());
        assert!(report.details().iter().any(|v| v.checker == "dag.acyclic"), "{report:?}");
    }

    #[test]
    fn acyclic_hand_built_dag_passes() {
        let dag = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let report = dag.validate();
        assert!(report.is_ok(), "{:?}", report.details());
    }

    #[test]
    fn single_vertex_dag_passes() {
        assert!(Dag::from_arcs(1, &[]).validate().is_ok());
    }

    /// The plan of a star whose centre `0` has three arms of distinct
    /// labels: `Seq 0`, then a split into three one-step leaves.
    fn star_plan() -> Plan {
        let mut b = GraphBuilder::new();
        for l in 0..4 {
            b.add_vertex(l);
        }
        for arm in 1..4 {
            b.add_undirected_edge(0, arm, NO_LABEL).unwrap();
        }
        let p = b.build();
        let gc = build_ccsr(&p).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced)
    }

    /// The plan of the path `0 – 1 – 2` (three labels) with `Φ*` set to
    /// `[0, 1, 2]` and `H` rebuilt over it, so `2`'s only `H`-parent is
    /// `1`; its program is left to the caller.
    fn path_plan() -> Plan {
        let mut b = GraphBuilder::new();
        for l in 0..3 {
            b.add_vertex(l);
        }
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        let p = b.build();
        let gc = build_ccsr(&p).unwrap();
        let variant = Variant::EdgeInduced;
        let star = read_csr(&gc, &p, variant);
        let catalog = Catalog::new(&p, &star);
        let mut plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
        plan.order = vec![0, 1, 2];
        plan.dag = build_dag(&catalog, &plan.order, variant);
        plan
    }

    fn seq(u: VertexId, leaf: bool) -> Step {
        Step::Seq { u, leaf }
    }

    /// The layout violations of the star plan with its program replaced.
    fn layout_violations(steps: Vec<Step>, components: Vec<Range<usize>>) -> Vec<String> {
        let mut plan = star_plan();
        plan.root = ExecTree::from_parts(steps, components);
        let report = plan.validate();
        let layout = report.details().iter().filter(|v| v.checker == "plan.exec-tree-layout");
        layout.map(|v| v.detail.clone()).collect()
    }

    /// The star plan's own program, rebuilt by hand from its parts, and
    /// the plain chain over its order, are valid.
    #[test]
    fn hand_built_programs_pass() {
        let plan = star_plan();
        let [Step::Seq { u: 0, leaf: false }, Step::Split { components }, ..] = plan.root.steps()
        else {
            panic!("the arms split after the centre: {:?}", plan.root);
        };
        assert_eq!(components, &(0..3));
        assert_eq!(plan.root.component_ranges(), [0..1, 1..2, 2..3]);
        let rebuilt = vec![
            seq(0, false),
            Step::Split { components: 0..3 },
            seq(1, true),
            seq(2, true),
            seq(3, true),
        ];
        assert!(layout_violations(rebuilt, vec![0..1, 1..2, 2..3]).is_empty());
        let mut chain = star_plan();
        let steps = (0..4).map(|u| seq(u, u == 3)).collect();
        chain.root = ExecTree::from_parts(steps, Vec::new());
        assert!(chain.validate().is_ok(), "{:?}", chain.validate().details());
    }

    /// Each malformed layout is a violation naming what is wrong, not a
    /// panic.
    #[test]
    fn malformed_programs_are_reported() {
        let split = |components| {
            vec![
                seq(0, false),
                Step::Split { components },
                seq(1, true),
                seq(2, true),
                seq(3, true),
            ]
        };
        type Case = (Vec<Step>, Vec<Range<usize>>, &'static str);
        let cases: [Case; 7] = [
            (split(0..3), vec![0..1, 2..3, 1..2], "not contiguous"),
            (split(0..3), vec![0..1, 1..1, 1..3], "is empty"),
            (split(0..3), vec![0..1, 1..2, 2..4], "leaves the 3 steps after the split"),
            (split(0..2), vec![0..1, 1..2, 2..3], "components end at 2"),
            (split(0..1), vec![0..3, 3..3], "has 1 component(s)"),
            (split(2..5), vec![0..1, 1..2, 2..3], "of a table of 3"),
            (
                vec![seq(0, true), Step::Split { components: 0..3 }, seq(1, true), seq(2, false)],
                vec![0..1, 1..2, 2..2],
                "has leaf true, but its place says false",
            ),
        ];
        for (steps, components, want) in cases {
            let found = layout_violations(steps.clone(), components.clone());
            assert!(
                found.iter().any(|d| d.contains(want)),
                "{steps:?} {components:?}: want {want:?}, found {found:?}"
            );
        }
        // A wrong leaf flag on an otherwise valid program.
        let found = layout_violations(split(0..3), vec![0..1, 1..2, 2..3]);
        assert!(found.is_empty(), "{found:?}");
        let mut steps = split(0..3);
        steps[4] = seq(3, false);
        let found = layout_violations(steps, vec![0..1, 1..2, 2..3]);
        assert_eq!(found, ["step 4 (u3) has leaf false, but its place says true"]);

        // The path `r – x – y` planned as `Φ* = [r, x, y]`, run by the
        // program `Seq r, Split{[x], [y]}`: its layout, coverage and
        // per-branch order are sound, but `y`'s candidates would be
        // computed with its one `H`-parent `x` unmapped.
        let mut plan = path_plan();
        assert_eq!(plan.dag.parents(2), [1]);
        plan.root = ExecTree::from_parts(vec![seq(0, false), seq(1, false), seq(2, true)], vec![]);
        assert!(plan.validate().is_ok(), "{:?}", plan.validate().details());
        let split =
            vec![seq(0, false), Step::Split { components: 0..2 }, seq(1, true), seq(2, true)];
        plan.root = ExecTree::from_parts(split, vec![0..1, 1..2]);
        let report = plan.validate();
        let found: Vec<_> =
            report.details().iter().map(|v| (v.checker, v.detail.as_str())).collect();
        assert_eq!(
            found,
            [(
                "plan.exec-tree-parents",
                "step 3 (u2): H-parent 1 is not sequenced on its root path"
            )]
        );
    }
}
