//! Pattern-graph analysis helpers.
//!
//! Patterns are ordinary [`Graph`]s; this module adds the derived views the
//! planner and the evaluation need: density classification (RapidMatch's
//! dense/sparse split used throughout the paper's workloads), undirected
//! neighbor lists, and the pair code used for exact variant checks.

use crate::graph::{Graph, Orient};
use crate::{Label, VertexId};

/// RapidMatch / CSCE density classes: a pattern is *dense* when its average
/// degree is greater than two, otherwise *sparse* (§VII, "Patterns").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Density {
    Dense,
    Sparse,
}

impl Density {
    /// The letter used in workload names such as `D32` / `S16`.
    pub fn letter(self) -> char {
        match self {
            Density::Dense => 'D',
            Density::Sparse => 'S',
        }
    }
}

/// Classify a pattern per the paper's density definition.
pub fn classify_density(p: &Graph) -> Density {
    if p.average_degree() > 2.0 {
        Density::Dense
    } else {
        Density::Sparse
    }
}

/// Distinct neighbors of `u` ignoring edge direction, ascending.
pub fn undirected_neighbors(p: &Graph, u: VertexId) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = p.adj(u).iter().map(|a| a.nbr).collect();
    out.dedup(); // adjacency is sorted by nbr
    out
}

/// A direction- and label-normalized description of the edges between an
/// *ordered* pair `(a, b)`: one entry per edge, `(relative orient, label)`
/// where the orientation is seen from `a`. Sorted so pair codes compare
/// structurally.
///
/// Two vertex pairs match under isomorphism exactly when their codes are
/// equal; under edge-induced / homomorphic semantics the pattern pair's code
/// must be a subset of the data pair's code.
pub fn pair_code(g: &Graph, a: VertexId, b: VertexId) -> Vec<(Orient, Label)> {
    let mut code: Vec<(Orient, Label)> =
        g.edges_between(a, b).iter().map(|x| (x.orient, x.elabel)).collect();
    code.sort_unstable();
    code
}

/// `true` when every edge in `sub` also appears in `sup` (both produced by
/// [`pair_code`], i.e. sorted).
pub fn code_subset(sub: &[(Orient, Label)], sup: &[(Orient, Label)]) -> bool {
    let mut j = 0usize;
    for item in sub {
        while j < sup.len() && sup[j] < *item {
            j += 1;
        }
        if j >= sup.len() || sup[j] != *item {
            return false;
        }
        j += 1;
    }
    true
}

/// An isomorphism-invariant code of a graph via 1-WL color refinement.
///
/// Isomorphic graphs always produce equal codes; unequal codes therefore
/// prove non-isomorphism. The converse does not hold in general (1-WL
/// cannot separate some regular graphs), so this is a *dedup key* for
/// sampled pattern workloads — not a complete canonical form. Labels,
/// edge labels and directions all feed the refinement.
pub fn wl_code(g: &Graph, rounds: usize) -> Vec<u64> {
    use crate::util::FxHasher;
    use std::hash::{Hash, Hasher};
    let n = g.n();
    let hash_one = |value: &dyn Fn(&mut FxHasher)| -> u64 {
        let mut h = FxHasher::default();
        value(&mut h);
        h.finish()
    };
    // Initial colors: vertex labels.
    let mut color: Vec<u64> =
        (0..n as VertexId).map(|v| hash_one(&|h: &mut FxHasher| g.label(v).hash(h))).collect();
    for _ in 0..rounds.max(1) {
        let mut next = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            let mut nbr_sig: Vec<(u8, Label, u64)> = g
                .adj(v)
                .iter()
                .map(|a| (a.orient as u8, a.elabel, color[a.nbr as usize]))
                .collect();
            nbr_sig.sort_unstable();
            next.push(hash_one(&|h: &mut FxHasher| {
                color[v as usize].hash(h);
                nbr_sig.hash(h);
            }));
        }
        color = next;
    }
    color.sort_unstable();
    color
}

/// Deduplicate a pattern list up to (1-WL-detectable) isomorphism,
/// keeping first occurrences. Used to keep sampled workloads diverse.
pub fn dedup_patterns(patterns: Vec<Graph>, rounds: usize) -> Vec<Graph> {
    let mut seen: crate::FxHashSet<Vec<u64>> = crate::FxHashSet::default();
    patterns.into_iter().filter(|p| seen.insert(wl_code(p, rounds))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::NO_LABEL;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        for i in 0..n - 1 {
            b.add_undirected_edge(i as VertexId, i as VertexId + 1, NO_LABEL).unwrap();
        }
        b.build()
    }

    fn clique(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(n);
        for i in 0..n {
            for j in i + 1..n {
                b.add_undirected_edge(i as VertexId, j as VertexId, NO_LABEL).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn density_classification() {
        assert_eq!(classify_density(&path(8)), Density::Sparse);
        assert_eq!(classify_density(&clique(4)), Density::Dense);
        assert_eq!(Density::Dense.letter(), 'D');
        assert_eq!(Density::Sparse.letter(), 'S');
    }

    #[test]
    fn undirected_neighbors_dedupes_antiparallel() {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(3);
        b.add_edge(0, 1, NO_LABEL).unwrap();
        b.add_edge(1, 0, NO_LABEL).unwrap();
        b.add_edge(2, 0, NO_LABEL).unwrap();
        let g = b.build();
        assert_eq!(undirected_neighbors(&g, 0), vec![1, 2]);
    }

    #[test]
    fn pair_codes_and_subset() {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(2);
        b.add_edge(0, 1, 3).unwrap();
        b.add_edge(1, 0, 4).unwrap();
        let g = b.build();
        let fwd = pair_code(&g, 0, 1);
        let bwd = pair_code(&g, 1, 0);
        assert_eq!(fwd, vec![(Orient::Out, 3), (Orient::In, 4)]);
        assert_eq!(bwd, vec![(Orient::Out, 4), (Orient::In, 3)]);
        assert!(code_subset(&[(Orient::Out, 3)], &fwd));
        assert!(!code_subset(&[(Orient::Out, 4)], &fwd));
        assert!(code_subset(&[], &fwd));
        assert!(!code_subset(&fwd, &[]));
    }

    #[test]
    fn wl_code_is_isomorphism_invariant() {
        // The same labeled wedge built with two different vertex orders.
        let mut a = GraphBuilder::new();
        a.add_vertex(1);
        a.add_vertex(2);
        a.add_vertex(1);
        a.add_edge(0, 1, 7).unwrap();
        a.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        let a = a.build();
        let mut b = GraphBuilder::new();
        b.add_vertex(1);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_edge(1, 2, 7).unwrap();
        b.add_undirected_edge(2, 0, NO_LABEL).unwrap();
        let b = b.build();
        assert_eq!(wl_code(&a, 3), wl_code(&b, 3));
    }

    #[test]
    fn wl_code_separates_structures() {
        assert_ne!(wl_code(&path(4), 3), wl_code(&clique(4), 3));
        assert_ne!(wl_code(&path(4), 3), wl_code(&path(5), 3));
        // Direction matters: a->b vs b->a with distinct labels.
        let mut f = GraphBuilder::new();
        f.add_vertex(1);
        f.add_vertex(2);
        f.add_edge(0, 1, NO_LABEL).unwrap();
        let mut r = GraphBuilder::new();
        r.add_vertex(1);
        r.add_vertex(2);
        r.add_edge(1, 0, NO_LABEL).unwrap();
        assert_ne!(wl_code(&f.build(), 2), wl_code(&r.build(), 2));
    }

    #[test]
    fn dedup_drops_isomorphic_duplicates() {
        let patterns = vec![path(4), clique(3), path(4), path(3)];
        let unique = dedup_patterns(patterns, 3);
        assert_eq!(unique.len(), 3);
    }
}
