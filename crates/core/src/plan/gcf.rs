//! The Greatest-Constraint-First (GCF) initial matching order (§VI).
//!
//! GCF is RI's heuristic: grow the order one vertex at a time, always
//! picking the unordered vertex that is constrained by the most already-
//! ordered vertices. Ties cascade through RI's three rules
//! (`|T¹| → |T²| → |T³|`, Eq. 1) and are finally broken — this is CSCE's
//! improvement — by the data graph, through CCSR cluster sizes (Eq. 2):
//! the candidate whose connecting cluster is smallest is expected to have
//! the fewest candidates. Plain RI (no data awareness) is available via
//! [`GcfConfig::ri_only`], which the plan-quality experiment (Fig. 13)
//! compares against.

use crate::catalog::Catalog;
use csce_graph::pattern::undirected_neighbors;
use csce_graph::VertexId;

/// Configuration of the GCF stage.
#[derive(Clone, Copy, Debug)]
pub struct GcfConfig {
    /// Use CCSR cluster sizes to break ties (the paper's "CCSR to break
    /// ties"); `false` reproduces plain RI.
    pub cluster_tiebreak: bool,
}

impl Default for GcfConfig {
    fn default() -> Self {
        GcfConfig { cluster_tiebreak: true }
    }
}

impl GcfConfig {
    /// Plain RI: ties broken only by vertex id (deterministic stand-in for
    /// RI's arbitrary choice).
    pub fn ri_only() -> Self {
        GcfConfig { cluster_tiebreak: false }
    }
}

/// Compute the GCF matching order `Φ` over all pattern vertices.
///
/// The pattern must be connected; the planner checks this before calling.
pub fn gcf_order(catalog: &Catalog<'_>, config: GcfConfig) -> Vec<VertexId> {
    let p = catalog.pattern();
    let n = p.n();
    assert!(n > 0, "empty pattern");
    let neighbors: Vec<Vec<VertexId>> =
        (0..n as VertexId).map(|u| undirected_neighbors(p, u)).collect();

    let mut phi: Vec<VertexId> = Vec::with_capacity(n);
    let mut in_phi = vec![false; n];
    // Incrementally maintained RI rule counts cost O(Σdeg²) over the whole
    // order instead of re-deriving |T¹|/|T²|/|T³| per candidate, and each
    // step scans only the frontier (below), not all `n` vertices — Fig. 10
    // plans 2000-vertex patterns.
    // t[x] = [|T¹|, |T²|, |T³|]: ordered neighbors / unordered neighbors
    // touching the prefix / unordered neighbors touching nothing.
    let mut t: Vec<[usize; 3]> = (0..n).map(|x| [0, 0, neighbors[x].len()]).collect();
    // Number of ordered neighbors of each vertex ("touched" level).
    let mut touched = vec![0usize; n];

    let place = |v: VertexId,
                 phi: &mut Vec<VertexId>,
                 in_phi: &mut Vec<bool>,
                 t: &mut Vec<[usize; 3]>,
                 touched: &mut Vec<usize>| {
        phi.push(v);
        in_phi[v as usize] = true;
        // v leaves the unordered pool: each unordered neighbor x counted v
        // in T² (if v touched the prefix) or T³; v now counts in T¹.
        let v_was_touched = touched[v as usize] > 0;
        for &x in &neighbors[v as usize] {
            if in_phi[x as usize] {
                continue;
            }
            t[x as usize][0] += 1;
            if v_was_touched {
                t[x as usize][1] -= 1;
            } else {
                t[x as usize][2] -= 1;
            }
        }
        // Unordered neighbors of v become (more) touched; a first touch
        // migrates them from every unordered neighbor's T³ to T².
        for &j in &neighbors[v as usize] {
            touched[j as usize] += 1;
            if touched[j as usize] == 1 && !in_phi[j as usize] {
                for &x in &neighbors[j as usize] {
                    if !in_phi[x as usize] {
                        t[x as usize][2] -= 1;
                        t[x as usize][1] += 1;
                    }
                }
            }
        }
    };

    // First vertex: highest degree; ties by smallest incident cluster,
    // then by id.
    let first = (0..n as VertexId)
        .min_by(|&a, &b| {
            p.degree(b)
                .cmp(&p.degree(a))
                .then_with(|| {
                    if config.cluster_tiebreak {
                        catalog
                            .min_incident_cluster_size(a)
                            .cmp(&catalog.min_incident_cluster_size(b))
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .then(a.cmp(&b))
        })
        .expect("pattern has vertices");

    // Only the frontier (unplaced vertices with an ordered neighbour) can
    // win after the first placement: the pattern is connected, so some
    // unplaced vertex has `|T¹| ≥ 1`, and the key `(|T¹|, |T²|, |T³|)`
    // ranks it above every vertex with `|T¹| = 0`. The tie rules are a
    // total order over per-vertex values, so the frontier's scan order
    // cannot change the winner: `Φ` is the full scan's.
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut in_frontier = vec![false; n];
    let mut next = Some(first);
    while let Some(v) = next {
        place(v, &mut phi, &mut in_phi, &mut t, &mut touched);
        frontier.retain(|&x| !in_phi[x as usize]);
        for &x in &neighbors[v as usize] {
            if !in_phi[x as usize] && !std::mem::replace(&mut in_frontier[x as usize], true) {
                frontier.push(x);
            }
        }
        next = frontier.iter().copied().reduce(|best, x| {
            use std::cmp::Ordering::*;
            let x_wins = match t[x as usize].cmp(&t[best as usize]) {
                Greater => true,
                Less => false,
                Equal if config.cluster_tiebreak => {
                    cluster_tiebreak(catalog, &in_phi, x, best) == x
                }
                Equal => x < best,
            };
            if x_wins {
                x
            } else {
                best
            }
        });
    }
    debug_assert_eq!(phi.len(), n, "a connected pattern is ordered whole");
    phi
}

/// Eq. 2: pick the candidate whose relevant connecting cluster is
/// smallest; prefer `ω¹` (edges into the prefix), then `ω²`/`ω³` (edges to
/// unordered neighbors), then id.
fn cluster_tiebreak(catalog: &Catalog<'_>, in_phi: &[bool], a: VertexId, b: VertexId) -> VertexId {
    // ω¹ compares clusters on edges into the prefix; if neither candidate
    // has one (or they tie), fall through to the unordered side (ω²/ω³).
    for towards_prefix in [true, false] {
        let wa = catalog.min_connecting_cluster(a, in_phi, towards_prefix);
        let wb = catalog.min_connecting_cluster(b, in_phi, towards_prefix);
        if wa != wb {
            return if wa < wb { a } else { b };
        }
    }
    // Lowest data-graph label frequency, then id, for determinism.
    let (fa, fb) = (
        catalog.label_frequency(catalog.pattern().label(a)),
        catalog.label_frequency(catalog.pattern().label(b)),
    );
    if fa != fb {
        return if fa < fb { a } else { b };
    }
    a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{random_graph, Rng};
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::{Graph, GraphBuilder, Variant, NO_LABEL};
    use proptest::prelude::*;

    fn star_pattern() -> Graph {
        // u0 center (degree 3), leaves u1..u3.
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        for leaf in 1..4 {
            b.add_undirected_edge(0, leaf, NO_LABEL).unwrap();
        }
        b.build()
    }

    fn simple_data() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(6);
        for (x, y) in [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)] {
            b.add_undirected_edge(x, y, NO_LABEL).unwrap();
        }
        b.build()
    }

    /// The GCF stage before it kept a frontier: every step rescans all `n`
    /// vertices. Kept as the oracle [`gcf_order`] must reproduce exactly.
    fn gcf_order_full_scan(catalog: &Catalog<'_>, config: GcfConfig) -> Vec<VertexId> {
        let p = catalog.pattern();
        let n = p.n();
        assert!(n > 0, "empty pattern");
        let neighbors: Vec<Vec<VertexId>> =
            (0..n as VertexId).map(|u| undirected_neighbors(p, u)).collect();

        let mut phi: Vec<VertexId> = Vec::with_capacity(n);
        let mut in_phi = vec![false; n];
        // Incrementally maintained RI rule counts, so the whole order costs
        // O(n² + Σdeg²) instead of re-deriving |T¹|/|T²|/|T³| per candidate —
        // 2000-vertex plans must generate in seconds (Fig. 10).
        // t[x] = [|T¹|, |T²|, |T³|]: ordered neighbors / unordered neighbors
        // touching the prefix / unordered neighbors touching nothing.
        let mut t: Vec<[usize; 3]> = (0..n).map(|x| [0, 0, neighbors[x].len()]).collect();
        // Number of ordered neighbors of each vertex ("touched" level).
        let mut touched = vec![0usize; n];

        let place = |v: VertexId,
                     phi: &mut Vec<VertexId>,
                     in_phi: &mut Vec<bool>,
                     t: &mut Vec<[usize; 3]>,
                     touched: &mut Vec<usize>| {
            phi.push(v);
            in_phi[v as usize] = true;
            // v leaves the unordered pool: each unordered neighbor x counted v
            // in T² (if v touched the prefix) or T³; v now counts in T¹.
            let v_was_touched = touched[v as usize] > 0;
            for &x in &neighbors[v as usize] {
                if in_phi[x as usize] {
                    continue;
                }
                t[x as usize][0] += 1;
                if v_was_touched {
                    t[x as usize][1] -= 1;
                } else {
                    t[x as usize][2] -= 1;
                }
            }
            // Unordered neighbors of v become (more) touched; a first touch
            // migrates them from every unordered neighbor's T³ to T².
            for &j in &neighbors[v as usize] {
                touched[j as usize] += 1;
                if touched[j as usize] == 1 && !in_phi[j as usize] {
                    for &x in &neighbors[j as usize] {
                        if !in_phi[x as usize] {
                            t[x as usize][2] -= 1;
                            t[x as usize][1] += 1;
                        }
                    }
                }
            }
        };

        // First vertex: highest degree; ties by smallest incident cluster,
        // then by id.
        let first = (0..n as VertexId)
            .min_by(|&a, &b| {
                p.degree(b)
                    .cmp(&p.degree(a))
                    .then_with(|| {
                        if config.cluster_tiebreak {
                            catalog
                                .min_incident_cluster_size(a)
                                .cmp(&catalog.min_incident_cluster_size(b))
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    })
                    .then(a.cmp(&b))
            })
            .expect("pattern has vertices");
        place(first, &mut phi, &mut in_phi, &mut t, &mut touched);

        while phi.len() < n {
            let mut best: Option<VertexId> = None;
            for x in 0..n as VertexId {
                if in_phi[x as usize] {
                    continue;
                }
                match best {
                    None => best = Some(x),
                    Some(bx) => {
                        use std::cmp::Ordering::*;
                        match t[x as usize].cmp(&t[bx as usize]) {
                            Greater => best = Some(x),
                            Equal => {
                                let winner = if config.cluster_tiebreak {
                                    cluster_tiebreak(catalog, &in_phi, x, bx)
                                } else {
                                    x.min(bx)
                                };
                                if winner == x {
                                    best = Some(x);
                                }
                            }
                            Less => {}
                        }
                    }
                }
            }
            let next = best.expect("some vertex remains");
            place(next, &mut phi, &mut in_phi, &mut t, &mut touched);
        }
        phi
    }

    fn order_for(g: &Graph, p: &Graph, config: GcfConfig) -> Vec<VertexId> {
        let gc = build_ccsr(g).unwrap();
        let star = read_csr(&gc, p, Variant::EdgeInduced);
        let catalog = Catalog::new(p, &star);
        gcf_order(&catalog, config)
    }

    #[test]
    fn starts_with_highest_degree() {
        let p = star_pattern();
        let g = simple_data();
        let phi = order_for(&g, &p, GcfConfig::default());
        assert_eq!(phi[0], 0, "center has the highest degree");
        assert_eq!(phi.len(), 4);
        let mut sorted = phi.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "permutation of all vertices");
    }

    #[test]
    fn prefers_vertices_connected_to_prefix() {
        // Path u0-u1-u2-u3: after picking an endpoint of the path's
        // middle... pick highest degree (u1 or u2, both degree 2), then
        // every next vertex must neighbor the prefix (T1 >= 1).
        let mut b = GraphBuilder::new();
        b.add_unlabeled_vertices(4);
        for i in 0..3 {
            b.add_undirected_edge(i, i + 1, NO_LABEL).unwrap();
        }
        let p = b.build();
        let g = simple_data();
        let phi = order_for(&g, &p, GcfConfig::default());
        // Every vertex after the first neighbors some earlier vertex.
        for k in 1..phi.len() {
            let has_earlier_neighbor = (0..k).any(|i| p.connected(phi[i], phi[k]));
            assert!(has_earlier_neighbor, "order is connected at position {k}");
        }
    }

    #[test]
    fn cluster_tiebreak_uses_data_graph() {
        // Pattern: center u0 (label 9 shared by all) with two leaves of
        // label 1 and label 2. Data: many (9)-(1) edges, one (9)-(2) edge.
        // With cluster tie-breaking the label-2 leaf is ordered first.
        let mut pb = GraphBuilder::new();
        pb.add_vertex(9);
        pb.add_vertex(1);
        pb.add_vertex(2);
        pb.add_undirected_edge(0, 1, NO_LABEL).unwrap();
        pb.add_undirected_edge(0, 2, NO_LABEL).unwrap();
        let p = pb.build();

        let mut gb = GraphBuilder::new();
        let c = gb.add_vertex(9);
        for _ in 0..5 {
            let leaf = gb.add_vertex(1);
            gb.add_undirected_edge(c, leaf, NO_LABEL).unwrap();
        }
        let two = gb.add_vertex(2);
        gb.add_undirected_edge(c, two, NO_LABEL).unwrap();
        let g = gb.build();

        let with = order_for(&g, &p, GcfConfig::default());
        assert_eq!(with, vec![0, 2, 1], "rare cluster first under CCSR tie-break");
        let without = order_for(&g, &p, GcfConfig::ri_only());
        assert_eq!(without, vec![0, 1, 2], "plain RI breaks ties by id");
    }

    #[test]
    fn deterministic() {
        let p = star_pattern();
        let g = simple_data();
        assert_eq!(
            order_for(&g, &p, GcfConfig::default()),
            order_for(&g, &p, GcfConfig::default())
        );
    }

    /// The frontier scan and the full scan agree on `Φ` for `pattern` over
    /// `data`, with and without cluster tie-breaks.
    fn assert_matches_full_scan(pattern: &Graph, data: &Graph) {
        let gc = build_ccsr(data).unwrap();
        let star = read_csr(&gc, pattern, Variant::EdgeInduced);
        let catalog = Catalog::new(pattern, &star);
        for config in [GcfConfig::default(), GcfConfig::ri_only()] {
            assert_eq!(
                gcf_order(&catalog, config),
                gcf_order_full_scan(&catalog, config),
                "{config:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn frontier_scan_matches_full_scan(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(14);
            let labels = 1 + rng.below(4);
            let extra = rng.below(2 * n + 1);
            let p = random_graph(&mut rng, n, labels, true, extra);
            let data_n = 2 + rng.below(10);
            let data_extra = rng.below(3 * data_n);
            let g = random_graph(&mut rng, data_n, labels + 1, false, data_extra);
            assert_matches_full_scan(&p, &g);
        }
    }

    #[test]
    fn frontier_scan_matches_full_scan_on_a_2000_vertex_sparse_pattern() {
        let mut rng = Rng(2000);
        let p = random_graph(&mut rng, 2000, 6, true, 400);
        let g = random_graph(&mut rng, 200, 7, false, 1200);
        assert_matches_full_scan(&p, &g);
    }
}
