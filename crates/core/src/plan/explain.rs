//! Human-readable plan rendering: the matching order, dependency
//! structure, SCE summary and factorized execution tree as text — an
//! `EXPLAIN` for subgraph matching plans, used by the CLI and examples.

use crate::catalog::Catalog;
use crate::plan::{ExecTree, Plan, SceAnalysis, Step};
use std::fmt::Write as _;

/// Render the factorized execution tree with indentation: each `Seq` as
/// `match`, the end of a component as `emit`, each `Split` as its
/// components indented under it.
pub fn render_tree(tree: &ExecTree) -> String {
    let mut out = String::new();
    render_steps(tree, tree.steps(), 1, &mut out);
    out
}

fn render_steps(tree: &ExecTree, steps: &[Step], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let mut rest = steps;
    while let Some((step, tail)) = rest.split_first() {
        match step {
            Step::Seq { u, .. } => {
                let _ = writeln!(out, "{pad}match u{u}");
            }
            Step::Split { components } => {
                let _ = writeln!(out, "{pad}split x{} (multiply counts)", components.len());
                for c in tree.components(components, tail) {
                    let _ = writeln!(out, "{pad}component:");
                    render_steps(tree, c, indent + 1, out);
                }
                return;
            }
        }
        rest = tail;
    }
    let _ = writeln!(out, "{pad}emit");
}

/// Render a full plan summary; the SCE line is derived here from the
/// plan and the catalog it was built over.
pub fn explain(catalog: &Catalog<'_>, plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "variant: {}", plan.variant);
    let _ = writeln!(out, "matching order Φ*: {:?}", plan.order);
    let dep_edges = plan.dag.edge_count();
    let negations: usize =
        (0..plan.order.len() as u32).map(|u| plan.dag.negation_parents(u).count()).sum();
    let _ = writeln!(out, "dependency DAG: {dep_edges} edges ({negations} negation dependencies)");
    let sce = SceAnalysis::of(catalog, plan);
    let _ = writeln!(
        out,
        "SCE: {}/{} vertices have an earlier independent vertex ({} cluster-driven)",
        sce.sce_vertices, sce.total_vertices, sce.cluster_sce_vertices
    );
    let nec_classes = plan.nec_class.iter().copied().max().map_or(0, |m| m as usize + 1);
    let _ = writeln!(
        out,
        "NEC: {nec_classes} classes over {} vertices, {} candidate-cache slots",
        plan.order.len(),
        plan.slot_count
    );
    let _ = writeln!(out, "execution tree ({} splits):", plan.root.split_count());
    out.push_str(&render_tree(&plan.root));
    out
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::plan::{Planner, PlannerConfig};
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::{GraphBuilder, Variant, NO_LABEL};

    #[test]
    fn explain_mentions_every_section() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let p = b.build();
        let gc = build_ccsr(&p).unwrap();
        let star = read_csr(&gc, &p, Variant::EdgeInduced);
        let catalog = Catalog::new(&p, &star);
        let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, Variant::EdgeInduced);
        let text = super::explain(&catalog, &plan);
        for needle in
            ["variant", "matching order", "dependency DAG", "SCE", "NEC", "execution tree"]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(text.contains("match u"));
        // The two distinct-label leaves split after the center.
        assert!(text.contains("split x2"));
    }
}
