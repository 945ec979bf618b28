//! Neighborhood Equivalence Classes (NEC) over pattern vertices.
//!
//! TurboISO's NEC concept, which CSCE applies at the end of optimization
//! (§III): two pattern vertices with the same label and identical
//! neighborhoods (up to each other) always have identical candidate sets,
//! so the executor computes the set once per class and shares it. The
//! classic example is a star's leaves; the known limitation — a cycle's
//! vertices are pairwise inequivalent — is what SCE goes beyond.

use csce_graph::graph::Graph;
use csce_graph::{Label, VertexId};

/// Compute the NEC class of every pattern vertex. Classes are numbered
/// densely from 0 in order of first appearance by vertex id;
/// `class[u] == class[w]` iff `u` and `w` are neighborhood-equivalent.
///
/// Vertices of different labels are never equivalent, so each vertex is
/// compared only with the class representatives of its own label: the
/// vertices are sorted by `(label, id)` and each label's run is scanned
/// in id order, each vertex joining the first representative (smallest
/// id) it is equivalent to. That is the class an all-representatives scan
/// in id order finds, so the classes and their ids are unchanged, and a
/// pattern whose labels are mostly distinct costs a sort plus `O(|E_P|)`
/// instead of a comparison per pair of class representatives.
pub fn nec_classes(p: &Graph) -> Vec<u32> {
    let mut by_label: Vec<(Label, VertexId)> = p.labels().iter().copied().zip(0..).collect();
    by_label.sort_unstable();
    // Each vertex's representative: the first member of its class.
    let mut rep_of = vec![0usize; p.n()];
    let mut reps: Vec<VertexId> = Vec::new();
    for run in by_label.chunk_by(|a, b| a.0 == b.0) {
        reps.clear();
        for &(_, u) in run {
            let rep = match reps.iter().copied().find(|&r| equivalent(p, r, u)) {
                Some(r) => r,
                None => {
                    reps.push(u);
                    u
                }
            };
            rep_of[u as usize] = rep as usize;
        }
    }
    // A representative precedes its class's other members, so numbering
    // the representatives in id order numbers classes by first appearance.
    let mut class = vec![0u32; p.n()];
    let mut next = 0u32;
    for (u, &rep) in rep_of.iter().enumerate() {
        class[u] = if rep == u {
            next += 1;
            next - 1
        } else {
            class[rep]
        };
    }
    class
}

/// Whether two distinct vertices `u` and `w` of the same label are
/// neighborhood-equivalent.
fn equivalent(p: &Graph, u: VertexId, w: VertexId) -> bool {
    // Their mutual connection must look the same from both sides (e.g. an
    // undirected edge or antiparallel arcs); a single directed edge makes
    // them distinguishable. Both lists are sorted by orientation and edge
    // label, as their common neighbour is fixed.
    let (uw, wu) = (p.edges_between(u, w), p.edges_between(w, u));
    if !uw.iter().map(|a| (a.orient, a.elabel)).eq(wu.iter().map(|a| (a.orient, a.elabel))) {
        return false;
    }
    // Neighborhoods excluding each other must match exactly.
    if !p.adj(u).iter().filter(|a| a.nbr != w).eq(p.adj(w).iter().filter(|a| a.nbr != u)) {
        return false;
    }
    // Cycle guard: two *non-adjacent* vertices with two or more common
    // neighbors sit on opposite corners of a 4-cycle (e.g. C4 itself,
    // K(2,n)). Equal neighborhoods make their *initial* candidate sets
    // equal, but unlike a star's leaves they are not interchangeable
    // under every downstream constraint (an induced check between them
    // distinguishes concrete candidate pairs), so grouping them as
    // equivalent leaves is the misgrouping documented in the paper's NEC
    // discussion. Fall back to singleton classes for such pairs; adjacent
    // equivalent vertices (clique NEC) are unaffected. Non-adjacent
    // vertices with equal neighborhoods share all their neighbors, so
    // their common neighbors are `u`'s distinct neighbors.
    !(uw.is_empty() && p.degree(u) >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{random_graph, Rng};
    use csce_graph::graph::Orient;
    use csce_graph::pattern::pair_code;
    use csce_graph::{GraphBuilder, NO_LABEL};
    use proptest::prelude::*;

    /// A neighborhood entry used for equivalence comparison.
    type NbrSig = (VertexId, Orient, Label);

    /// The scan [`nec_classes`] replaced, kept as its oracle: each vertex
    /// is compared with every class representative, of any label.
    fn nec_classes_all_reps(p: &Graph) -> Vec<u32> {
        let n = p.n();
        let sigs: Vec<Vec<NbrSig>> = (0..n as VertexId)
            .map(|u| p.adj(u).iter().map(|a| (a.nbr, a.orient, a.elabel)).collect())
            .collect();
        let mut class: Vec<u32> = vec![u32::MAX; n];
        let mut reps: Vec<VertexId> = Vec::new();
        for u in 0..n as VertexId {
            let mut assigned = None;
            for (cid, &rep) in reps.iter().enumerate() {
                if equivalent_sigs(p, &sigs, rep, u) {
                    assigned = Some(cid as u32);
                    break;
                }
            }
            match assigned {
                Some(cid) => class[u as usize] = cid,
                None => {
                    class[u as usize] = reps.len() as u32;
                    reps.push(u);
                }
            }
        }
        class
    }

    /// The oracle's equivalence test, over materialized signatures.
    fn equivalent_sigs(p: &Graph, sigs: &[Vec<NbrSig>], u: VertexId, w: VertexId) -> bool {
        if u == w {
            return true;
        }
        if p.label(u) != p.label(w) {
            return false;
        }
        if pair_code(p, u, w) != pair_code(p, w, u) {
            return false;
        }
        let strip = |list: &[NbrSig], other: VertexId| -> Vec<NbrSig> {
            list.iter().copied().filter(|&(nbr, _, _)| nbr != other).collect()
        };
        if strip(&sigs[u as usize], w) != strip(&sigs[w as usize], u) {
            return false;
        }
        let ids = |sig: &[NbrSig]| -> Vec<VertexId> {
            let mut v: Vec<VertexId> = sig.iter().map(|&(nbr, _, _)| nbr).collect();
            v.dedup();
            v
        };
        let (ia, ib) = (ids(&sigs[u as usize]), ids(&sigs[w as usize]));
        let common = ia.iter().filter(|x| ib.contains(x)).count();
        !(pair_code(p, u, w).is_empty() && common >= 2)
    }

    /// A pattern of a shape NEC is about, its vertices labelled from
    /// `0..labels` at random and its edges of a random kind: a star with
    /// `leaves` leaves, a 4-cycle with a pendant star, or `K(2, leaves)`
    /// (the last two hit the cycle guard).
    fn shaped(rng: &mut Rng, shape: usize, leaves: usize, labels: usize) -> Graph {
        let pairs: Vec<(usize, usize)> = match shape {
            0 => (1..=leaves).map(|v| (0, v)).collect(),
            1 => {
                let mut pairs = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
                pairs.extend((4..4 + leaves).map(|v| (0, v)));
                pairs
            }
            _ => (2..2 + leaves).flat_map(|v| [(0, v), (1, v)]).collect(),
        };
        let n = pairs.iter().map(|&(a, c)| a.max(c) + 1).max().unwrap_or(1);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.below(labels) as u32);
        }
        // Mostly one edge kind, so leaves often look alike.
        let kind = rng.below(3);
        for (a, c) in pairs {
            let (a, c) = (a as VertexId, c as VertexId);
            let k = if rng.below(4) == 0 { rng.below(3) } else { kind };
            let label = if rng.below(5) == 0 { 1 } else { NO_LABEL };
            let _ = match k {
                0 => b.add_undirected_edge(a, c, label),
                1 => b.add_edge(a, c, label),
                _ => b.add_edge(c, a, label),
            };
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The label-run scan gives every vertex the class id of the
        /// all-representatives scan, on random connected 1–48-vertex
        /// patterns and on stars, 4-cycles and `K(2,n)`, over one label,
        /// a few repeated ones, or up to 40 labels.
        #[test]
        fn nec_classes_match_the_all_reps_scan(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let labels = match rng.below(3) {
                0 => 1,
                1 => 1 + rng.below(4),
                _ => 1 + rng.below(40),
            };
            let p = match rng.below(4) {
                0 => {
                    let n = 1 + rng.below(48);
                    let extra = rng.below(2 * n + 1);
                    random_graph(&mut rng, n, 0..labels, true, extra)
                }
                shape => {
                    let leaves = 1 + rng.below(12);
                    shaped(&mut rng, shape - 1, leaves, labels)
                }
            };
            prop_assert_eq!(nec_classes(&p), nec_classes_all_reps(&p));
        }
    }

    #[test]
    fn star_leaves_share_a_class() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        for _ in 0..3 {
            b.add_vertex(1);
        }
        for leaf in 1..4 {
            b.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let class = nec_classes(&b.build());
        assert_eq!(class[1], class[2]);
        assert_eq!(class[2], class[3]);
        assert_ne!(class[0], class[1]);
        assert_eq!(class.iter().max(), Some(&1), "two classes");
    }

    #[test]
    fn triangle_vertices_are_equivalent() {
        // Adjacent equivalent vertices (clique NEC): all three triangle
        // vertices with equal labels.
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        for (x, y) in [(0, 1), (1, 2), (0, 2)] {
            b.add_undirected_edge(x, y, NO_LABEL).unwrap();
        }
        let class = nec_classes(&b.build());
        assert_eq!(class, vec![0, 0, 0]);
    }

    #[test]
    fn cycle_limitation_from_the_paper() {
        // TurboISO's NEC cannot merge a 4-cycle's vertices: adjacent
        // corners have different neighborhoods, and opposite corners —
        // despite sharing both neighbors — are not interchangeable leaves
        // (the induced check between them tells candidate pairs apart), so
        // the cycle guard forces singletons instead of misgrouping them.
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_undirected_edge(x, y, NO_LABEL).unwrap();
        }
        let class = nec_classes(&b.build());
        assert_eq!(class, vec![0, 1, 2, 3], "every cycle vertex is a singleton class");
    }

    #[test]
    fn labeled_cycle_corners_stay_singleton() {
        // The labeled variant of the misgrouping: opposite corners of a
        // labeled C4 have equal labels and identical neighborhoods, yet
        // must not share a class (see `labeled_cycle_factorization_parity`
        // in `tests/engine_vs_oracle.rs` for the count-level regression).
        let mut b = GraphBuilder::new();
        for label in [0u32, 1, 0, 1] {
            b.add_vertex(label);
        }
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_undirected_edge(x, y, NO_LABEL).unwrap();
        }
        let class = nec_classes(&b.build());
        assert_eq!(class, vec![0, 1, 2, 3]);
    }

    #[test]
    fn complete_bipartite_sides_stay_singleton() {
        // K(2,3): every same-side pair is non-adjacent with >= 2 common
        // neighbors, so the cycle guard applies to both sides.
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(5);
        for x in 0..2 {
            for y in 2..5 {
                b.add_undirected_edge(x, y, NO_LABEL).unwrap();
            }
        }
        let class = nec_classes(&b.build());
        assert_eq!(class, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shared_single_neighbor_still_merges() {
        // The guard needs >= 2 common neighbors: plain star leaves (one
        // shared hub) keep merging.
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        b.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        b.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let class = nec_classes(&b.build());
        assert_eq!(class[1], class[2]);
    }

    #[test]
    fn labels_and_direction_split_classes() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_edge(0, 1, NO_LABEL).unwrap(); // out-leaf
        b.add_edge(0, 2, NO_LABEL).unwrap(); // out-leaf
        b.add_edge(3, 0, NO_LABEL).unwrap(); // in-leaf
        let class = nec_classes(&b.build());
        assert_eq!(class[1], class[2], "same-direction leaves merge");
        assert_ne!(class[1], class[3], "direction splits");
    }

    #[test]
    fn edge_labels_split_classes() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_undirected_edge(0, 1, 5).unwrap();
        b.add_undirected_edge(0, 2, 6).unwrap();
        let class = nec_classes(&b.build());
        assert_ne!(class[1], class[2]);
    }
}
