//! Shared machinery for the baseline matchers: candidate filters (LDF,
//! NLF), pairwise consistency checks, RI's GCF ordering over the bare
//! pattern, and a deadline helper.

use csce_graph::pattern::{code_subset, pair_code, undirected_neighbors};
use csce_graph::{FxHashMap, Graph, Label, Variant, VertexId};
use std::time::{Duration, Instant};

/// A cooperative deadline checked every few thousand steps.
pub struct Deadline {
    deadline: Option<Instant>,
    steps: u64,
    pub fired: bool,
}

impl Deadline {
    pub fn new(limit: Option<Duration>) -> Deadline {
        // A limit past the clock's range means no deadline.
        let deadline = limit.and_then(|d| Instant::now().checked_add(d));
        Deadline { deadline, steps: 0, fired: false }
    }

    /// Returns `true` when the limit has fired (sticky).
    #[inline]
    pub fn check(&mut self) -> bool {
        if self.fired {
            return true;
        }
        self.steps += 1;
        if self.steps.is_multiple_of(4096) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.fired = true;
                }
            }
        }
        self.fired
    }
}

/// Label-and-degree filter (LDF): `v` can match `u` only with equal labels
/// and, for injective variants, `d(v) >= d(u)`.
pub fn ldf(g: &Graph, p: &Graph, u: VertexId, v: VertexId, variant: Variant) -> bool {
    p.label(u) == g.label(v) && (!variant.injective() || g.degree(v) >= p.degree(u))
}

/// Neighborhood label frequency filter (NLF): every label must appear at
/// least as often around `v` as around `u`. Only valid for injective
/// variants (a homomorphism may fold pattern neighbors together).
pub fn nlf(g: &Graph, p: &Graph, u: VertexId, v: VertexId) -> bool {
    let mut need: FxHashMap<Label, i32> = FxHashMap::default();
    for w in undirected_neighbors(p, u) {
        *need.entry(p.label(w)).or_insert(0) += 1;
    }
    for w in undirected_neighbors(g, v) {
        if let Some(slot) = need.get_mut(&g.label(w)) {
            *slot -= 1;
        }
    }
    need.values().all(|&c| c <= 0)
}

/// Pairwise consistency between a newly mapped `(u, v)` and an earlier
/// `(w, x)`: the pattern pair's edges must be present (E/H) or match
/// exactly (V).
pub fn pair_consistent(
    g: &Graph,
    p: &Graph,
    variant: Variant,
    u: VertexId,
    v: VertexId,
    w: VertexId,
    x: VertexId,
) -> bool {
    let pcode = pair_code(p, w, u);
    let gcode = pair_code(g, x, v);
    match variant {
        Variant::VertexInduced => pcode == gcode,
        Variant::EdgeInduced | Variant::Homomorphic => code_subset(&pcode, &gcode),
    }
}

/// RI's Greatest-Constraint-First order over the bare pattern (no data
/// graph), breaking all ties by vertex id. This is the ordering used by
/// the RI and FSP baselines; CSCE's version in `csce-core` adds CCSR
/// tie-breaking on top of the same rules.
pub fn ri_order(p: &Graph) -> Vec<VertexId> {
    let n = p.n();
    // Pattern ids are `u32` by construction; saturate rather than panic.
    let n32 = u32::try_from(n).unwrap_or(u32::MAX);
    let neighbors: Vec<Vec<VertexId>> = (0..n32).map(|u| undirected_neighbors(p, u)).collect();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let Some(first) = (0..n32).max_by_key(|&u| (p.degree(u), std::cmp::Reverse(u))) else {
        return Vec::new(); // empty pattern
    };
    order.push(first);
    placed[first as usize] = true;
    while order.len() < n {
        let mut best: Option<(VertexId, [usize; 3])> = None;
        for x in 0..n32 {
            if placed[x as usize] {
                continue;
            }
            let mut t = [0usize; 3];
            for &j in &neighbors[x as usize] {
                if placed[j as usize] {
                    t[0] += 1;
                } else if neighbors[j as usize].iter().any(|&i| placed[i as usize]) {
                    t[1] += 1;
                } else {
                    t[2] += 1;
                }
            }
            let better = match &best {
                None => true,
                Some((bx, bt)) => t.cmp(bt).then_with(|| bx.cmp(&x)) == std::cmp::Ordering::Greater,
            };
            if better {
                best = Some((x, t));
            }
        }
        let Some((x, _)) = best else {
            break; // unreachable: an unplaced vertex always exists here
        };
        order.push(x);
        placed[x as usize] = true;
    }
    order
}

/// Pattern vertices earlier in `order` that are adjacent to `u` —
/// the vertices a backtracking matcher must check edges against.
pub fn earlier_neighbors(p: &Graph, order: &[VertexId], pos: usize) -> Vec<VertexId> {
    let u = order[pos];
    order[..pos].iter().copied().filter(|&w| p.connected(w, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::{GraphBuilder, NO_LABEL};

    fn labeled_wedge() -> (Graph, Graph) {
        // Data: center 0 (label 9) with neighbors of labels 1,1,2.
        let mut gb = GraphBuilder::new();
        gb.add_vertex(9);
        gb.add_vertex(1);
        gb.add_vertex(1);
        gb.add_vertex(2);
        for v in 1..4 {
            gb.add_undirected_edge(0, v, NO_LABEL).unwrap();
        }
        // Pattern: center (9) with one label-1 and one label-2 neighbor.
        let mut pb = GraphBuilder::new();
        pb.add_vertex(9);
        pb.add_vertex(1);
        pb.add_vertex(2);
        pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        pb.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        (gb.build(), pb.build())
    }

    #[test]
    fn ldf_checks_label_and_degree() {
        let (g, p) = labeled_wedge();
        assert!(ldf(&g, &p, 0, 0, Variant::EdgeInduced));
        assert!(!ldf(&g, &p, 0, 1, Variant::EdgeInduced), "label mismatch");
        // Pattern leaf (degree 1) can map to data leaf (degree 1).
        assert!(ldf(&g, &p, 1, 1, Variant::EdgeInduced));
        // Degree check skipped for homomorphism.
        assert!(ldf(&g, &p, 0, 0, Variant::Homomorphic));
    }

    #[test]
    fn nlf_requires_neighbor_label_coverage() {
        let (g, p) = labeled_wedge();
        assert!(nlf(&g, &p, 0, 0), "data center covers labels {{1,2}}");
        // A data leaf has only the center (label 9) around it; pattern
        // center needs labels 1 and 2.
        assert!(!nlf(&g, &p, 0, 1));
    }

    #[test]
    fn ri_order_is_connected_permutation() {
        let (_, p) = labeled_wedge();
        let order = ri_order(&p);
        assert_eq!(order[0], 0, "highest degree first");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        for k in 1..order.len() {
            assert!(!earlier_neighbors(&p, &order, k).is_empty());
        }
    }

    #[test]
    fn deadline_fires_and_sticks() {
        let mut d = Deadline::new(Some(Duration::ZERO));
        let mut fired = false;
        for _ in 0..10_000 {
            if d.check() {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert!(d.check(), "sticky");
        let mut never = Deadline::new(None);
        for _ in 0..10_000 {
            assert!(!never.check());
        }
    }
}
