//! The VF2 / VF3 family: state-space backtracking for (vertex-)induced
//! isomorphism with feasibility look-ahead.
//!
//! The ordering follows VF3-light's rules — prefer vertices that connect
//! the most matched pattern vertices, then the rarest data-graph label,
//! then the highest degree. Feasibility combines exact pairwise
//! consistency (induced semantics) with a one-level look-ahead: a
//! candidate must retain at least as many *unused* data neighbors as the
//! pattern vertex has unmatched neighbors, which prunes whole subtrees
//! before they are entered.
//!
//! Capability: injective variants only — [`Baseline::supports`] excludes
//! homomorphic matching (VF's state machinery assumes a partial injection)
//! rather than returning wrong answers for it. Directed and edge-labeled
//! parity with the engine is enforced by the `csce-fuzz` differential
//! corpus (`csce fuzz`), which probes this matcher on every generated
//! flavor; the candidate pool comes from *undirected* neighborhoods, with
//! orientation and edge labels checked by `pair_consistent`, so direction
//! handling is exercised on every directed case.

use crate::common::{pair_consistent, Deadline};
use crate::{Baseline, BaselineResult};
use csce_graph::pattern::undirected_neighbors;
use csce_graph::{FxHashMap, Graph, Label, Variant, VertexId};
use std::time::{Duration, Instant};

/// VF-style matcher for the injective variants.
pub struct VfMatcher;

impl Baseline for VfMatcher {
    fn name(&self) -> &'static str {
        "VF"
    }

    fn supports(&self, _g: &Graph, _p: &Graph, variant: Variant) -> bool {
        variant.injective()
    }

    fn count(
        &self,
        g: &Graph,
        p: &Graph,
        variant: Variant,
        time_limit: Option<Duration>,
    ) -> BaselineResult {
        assert!(variant.injective(), "VF handles injective variants only");
        let start = Instant::now();
        let order = vf_order(g, p);
        let p_neighbors: Vec<Vec<VertexId>> =
            (0..p.n() as VertexId).map(|u| undirected_neighbors(p, u)).collect();
        let g_neighbors: Vec<Vec<VertexId>> =
            (0..g.n() as VertexId).map(|v| undirected_neighbors(g, v)).collect();
        let mut state = State {
            g,
            p,
            variant,
            order: &order,
            p_neighbors: &p_neighbors,
            g_neighbors: &g_neighbors,
            f: vec![VertexId::MAX; p.n()],
            used: vec![false; g.n()],
            matched: vec![false; p.n()],
            count: 0,
            deadline: Deadline::new(time_limit),
        };
        state.descend(0);
        BaselineResult {
            count: state.count,
            timed_out: state.deadline.fired,
            elapsed: start.elapsed(),
        }
    }
}

/// VF3-light ordering: most matched neighbors, then rarest data label,
/// then highest degree, then id.
fn vf_order(g: &Graph, p: &Graph) -> Vec<VertexId> {
    let n = p.n();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Data vertices carrying each pattern label, counted in one pass.
    let mut by_label: FxHashMap<Label, u32> = p.labels().iter().map(|&l| (l, 0)).collect();
    for l in g.labels() {
        if let Some(count) = by_label.get_mut(l) {
            *count += 1;
        }
    }
    let freq = |u: VertexId| by_label.get(&p.label(u)).copied().unwrap_or(0);
    for _ in 0..n {
        let next = (0..n as VertexId)
            .filter(|&u| !placed[u as usize])
            .min_by(|&a, &b| {
                let ca = connections(p, &placed, a);
                let cb = connections(p, &placed, b);
                cb.cmp(&ca)
                    .then(freq(a).cmp(&freq(b)))
                    .then(p.degree(b).cmp(&p.degree(a)))
                    .then(a.cmp(&b))
            })
            .unwrap();
        order.push(next);
        placed[next as usize] = true;
    }
    order
}

fn connections(p: &Graph, placed: &[bool], u: VertexId) -> usize {
    undirected_neighbors(p, u).iter().filter(|&&w| placed[w as usize]).count()
}

struct State<'a> {
    g: &'a Graph,
    p: &'a Graph,
    variant: Variant,
    order: &'a [VertexId],
    p_neighbors: &'a [Vec<VertexId>],
    g_neighbors: &'a [Vec<VertexId>],
    f: Vec<VertexId>,
    used: Vec<bool>,
    matched: Vec<bool>,
    count: u64,
    deadline: Deadline,
}

impl<'a> State<'a> {
    fn descend(&mut self, depth: usize) {
        if depth == self.order.len() {
            self.count += 1;
            return;
        }
        if self.deadline.check() {
            return;
        }
        let u = self.order[depth];
        // Candidates: neighbors of a matched neighbor's image, or all
        // label-compatible vertices for the root.
        let matched_nbr =
            self.p_neighbors[u as usize].iter().copied().find(|&w| self.matched[w as usize]);
        let candidates: Vec<VertexId> = match matched_nbr {
            Some(w) => self.g_neighbors[self.f[w as usize] as usize].clone(),
            None => (0..self.g.n() as VertexId).collect(),
        };
        'cands: for v in candidates {
            if self.used[v as usize] || self.g.label(v) != self.p.label(u) {
                continue;
            }
            // Look-ahead: v must keep enough unused neighbors for u's
            // unmatched neighbors.
            let needed =
                self.p_neighbors[u as usize].iter().filter(|&&w| !self.matched[w as usize]).count();
            if needed > 0 {
                let available = self.g_neighbors[v as usize]
                    .iter()
                    .filter(|&&x| !self.used[x as usize])
                    .count();
                if available < needed {
                    continue;
                }
            }
            // Exact pairwise consistency against all matched vertices
            // (induced) or matched neighbors (edge-induced).
            for k in 0..depth {
                let w = self.order[k];
                let relevant = self.variant == Variant::VertexInduced || self.p.connected(w, u);
                if relevant
                    && !pair_consistent(self.g, self.p, self.variant, u, v, w, self.f[w as usize])
                {
                    continue 'cands;
                }
            }
            self.f[u as usize] = v;
            self.used[v as usize] = true;
            self.matched[u as usize] = true;
            self.descend(depth + 1);
            self.matched[u as usize] = false;
            self.used[v as usize] = false;
            self.f[u as usize] = VertexId::MAX;
            if self.deadline.fired {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{oracle_count, GraphBuilder, NO_LABEL};

    fn paw() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_undirected_edge(a, c, NO_LABEL).unwrap();
        }
        b.build()
    }

    #[test]
    fn vertex_induced_matches_oracle() {
        let g = paw();
        let mut pb = GraphBuilder::new();
        pb.add_unlabeled_vertices(3);
        pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        pb.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        let p = pb.build();
        for variant in [Variant::VertexInduced, Variant::EdgeInduced] {
            let r = VfMatcher.count(&g, &p, variant, None);
            assert_eq!(r.count, oracle_count(&g, &p, variant), "{variant}");
        }
    }

    #[test]
    fn directed_labeled_induced() {
        let mut gb = GraphBuilder::new();
        for l in [0u32, 1, 0, 1] {
            gb.add_vertex(l);
        }
        gb.add_edge(0, 1, 5).unwrap();
        gb.add_edge(2, 3, 5).unwrap();
        gb.add_edge(1, 2, 6).unwrap();
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_vertex(0);
        pb.add_vertex(1);
        pb.add_edge(0, 1, 5).unwrap();
        let p = pb.build();
        for variant in [Variant::VertexInduced, Variant::EdgeInduced] {
            assert_eq!(
                VfMatcher.count(&g, &p, variant, None).count,
                oracle_count(&g, &p, variant),
                "{variant}"
            );
        }
    }

    #[test]
    fn lookahead_does_not_lose_matches() {
        // Star pattern inside a larger star: look-ahead must not prune
        // valid embeddings.
        let mut gb = GraphBuilder::new();
        gb.add_unlabeled_vertices(6);
        for leaf in 1..6 {
            gb.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let g = gb.build();
        let mut pb = GraphBuilder::new();
        pb.add_unlabeled_vertices(4);
        for leaf in 1..4 {
            pb.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        let p = pb.build();
        assert_eq!(
            VfMatcher.count(&g, &p, Variant::EdgeInduced, None).count,
            oracle_count(&g, &p, Variant::EdgeInduced)
        );
        assert_eq!(
            VfMatcher.count(&g, &p, Variant::VertexInduced, None).count,
            oracle_count(&g, &p, Variant::VertexInduced)
        );
    }

    #[test]
    fn rejects_homomorphic() {
        let g = paw();
        assert!(!VfMatcher.supports(&g, &g, Variant::Homomorphic));
    }
}
