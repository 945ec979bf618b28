//! The Greatest-Constraint-First (GCF) initial matching order (§VI).
//!
//! GCF is RI's heuristic: grow the order one vertex at a time, always
//! picking the unordered vertex that is constrained by the most already-
//! ordered vertices. Ties cascade through RI's three rules
//! (`|T¹| → |T²| → |T³|`, Eq. 1) and are finally broken — this is CSCE's
//! improvement — by the data graph, through CCSR cluster sizes (Eq. 2):
//! the candidate whose connecting cluster is smallest is expected to have
//! the fewest candidates. Plain RI (no data awareness) is the
//! [`PlannerConfig::ri_only`] preset, which the plan-quality experiment
//! (Fig. 13) compares against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::catalog::{Catalog, Side};
use crate::plan::PlannerConfig;
use csce_graph::util::Csr;
use csce_graph::VertexId;

/// A frontier vertex's rank; the heap pops the greatest. The fields
/// compare in declaration order and encode Eq. 1 then Eq. 2, the same
/// total order as the full-scan oracle's `cluster_tiebreak`: more ordered
/// neighbours (`|T¹|`), then `|T²|`, then `|T³|`; then the smaller
/// cluster into the prefix (`ω¹`), the smaller cluster to an unordered
/// neighbour (`ω²`), the rarer label and the smaller id. Plain RI zeroes
/// `ω¹`, `ω²` and the frequency, so its ties fall to the id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    t: [usize; 3],
    omega1: Reverse<usize>,
    omega2: Reverse<usize>,
    freq: Reverse<u32>,
    id: Reverse<VertexId>,
}

/// GCF's running state of one pattern vertex.
struct Slot {
    /// `[|T¹|, |T²|, |T³|]`: ordered neighbours / unordered neighbours
    /// touching the prefix / unordered neighbours touching nothing.
    t: [usize; 3],
    /// Number of ordered neighbours ("touched" level); the frontier is
    /// the unplaced vertices with `touched > 0`.
    touched: usize,
    placed: bool,
    /// Queued for a heap push after the current placement.
    dirty: bool,
    /// `ω¹`: the smallest cluster on an edge into the prefix. It only
    /// falls as neighbours are placed.
    omega1: usize,
    /// Cursor into the vertex's row of sorted `(cluster size, other
    /// endpoint)` arcs: the first arc whose other endpoint is unplaced
    /// gives `ω²`, which only rises.
    next_arc: usize,
    freq: u32,
}

/// Compute the GCF matching order `Φ` over all pattern vertices.
///
/// The pattern must be connected; the planner checks this before calling.
/// Only the frontier (unplaced vertices with an ordered neighbour) can win
/// after the first placement, and it sits in a lazy max-heap of [`Key`]s.
/// A placement moves only the keys of the placed vertex's neighbours and
/// of the neighbours of vertices it touches first; those are re-pushed.
/// Each such move raises a key (`|T¹|` grows, or `|T³|` turns into
/// `|T²|`), so a vertex's older entries rank below its current one and
/// are dropped on pop once it is placed. Pushes total `O(|E_P|)`, so the
/// order costs `O(|E_P| log |V_P|)` — Fig. 10 plans 2000-vertex patterns.
pub fn gcf_order(catalog: &Catalog<'_>, config: PlannerConfig) -> Vec<VertexId> {
    let p = catalog.pattern();
    let n = p.n();
    // Distinct neighbours: adjacency is sorted by neighbour.
    let neighbours = |u: VertexId| {
        let adj = p.adj(u);
        adj.iter()
            .enumerate()
            .filter(move |&(i, a)| i == 0 || adj[i - 1].nbr != a.nbr)
            .map(|(_, a)| a.nbr)
    };

    // Every vertex's incident edges as `(cluster size, other endpoint)`,
    // one row per vertex, each sorted in place as it is gathered.
    let (mut ends, mut items) = (Vec::with_capacity(n + 1), Vec::with_capacity(2 * p.m()));
    for u in (0..).take(n) {
        let from = items.len();
        items.extend(catalog.incident_edges(u).map(|(eidx, side)| {
            let e = &p.edges()[eidx];
            (catalog.cluster_size(eidx), if side == Side::Src { e.dst } else { e.src })
        }));
        items[from..].sort_unstable();
        ends.push(items.len());
    }
    let arcs = Csr::from_ends(ends, items);
    let mut slots: Vec<Slot> = (0..)
        .take(n)
        .map(|u| Slot {
            t: [0, 0, neighbours(u).count()],
            touched: 0,
            placed: false,
            dirty: false,
            omega1: usize::MAX,
            next_arc: 0,
            freq: if config.cluster_tiebreak { catalog.label_frequency(p.label(u)) } else { 0 },
        })
        .collect();
    // The smallest cluster to an unplaced neighbour, once the cursor has
    // skipped the placed ones: `ω²`, and before any placement the
    // smallest incident cluster.
    let open_cluster = |u: VertexId, s: &Slot| {
        arcs.row(u as usize).get(s.next_arc).map_or(usize::MAX, |&(size, _)| size)
    };
    let key = |u: VertexId, s: &Slot| {
        let (omega1, omega2) =
            if config.cluster_tiebreak { (s.omega1, open_cluster(u, s)) } else { (0, 0) };
        Key {
            t: s.t,
            omega1: Reverse(omega1),
            omega2: Reverse(omega2),
            freq: Reverse(s.freq),
            id: Reverse(u),
        }
    };

    // First vertex: highest degree; ties by smallest incident cluster, then
    // by id.
    let first = (0..n as VertexId).min_by(|&a, &b| {
        p.degree(b)
            .cmp(&p.degree(a))
            .then_with(|| {
                if config.cluster_tiebreak {
                    open_cluster(a, &slots[a as usize]).cmp(&open_cluster(b, &slots[b as usize]))
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .then(a.cmp(&b))
    });

    let mut phi: Vec<VertexId> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Key> = BinaryHeap::with_capacity(n);
    let mut dirty: Vec<VertexId> = Vec::with_capacity(n);
    let mut next = first;
    while let Some(v) = next {
        phi.push(v);
        slots[v as usize].placed = true;
        // v leaves the unordered pool: each unordered neighbour x counted v
        // in T² (if v touched the prefix) or T³; v now counts in T¹.
        let v_was_touched = slots[v as usize].touched > 0;
        for x in neighbours(v) {
            let s = &mut slots[x as usize];
            if s.placed {
                continue;
            }
            s.t[0] += 1;
            s.t[if v_was_touched { 1 } else { 2 }] -= 1;
            if !std::mem::replace(&mut s.dirty, true) {
                dirty.push(x);
            }
        }
        for &(size, x) in arcs.row(v as usize) {
            let s = &mut slots[x as usize];
            s.omega1 = s.omega1.min(size);
        }
        // Unordered neighbours of v become (more) touched; a first touch
        // migrates them from every unordered neighbour's T³ to T².
        for j in neighbours(v) {
            slots[j as usize].touched += 1;
            if slots[j as usize].touched == 1 && !slots[j as usize].placed {
                for x in neighbours(j) {
                    let s = &mut slots[x as usize];
                    if s.placed {
                        continue;
                    }
                    s.t[2] -= 1;
                    s.t[1] += 1;
                    if !std::mem::replace(&mut s.dirty, true) {
                        dirty.push(x);
                    }
                }
            }
        }
        // Re-push the moved keys of frontier vertices; a vertex with no
        // ordered neighbour is pushed once it gains one.
        for x in dirty.drain(..) {
            let at = slots[x as usize].next_arc;
            let open = &arcs.row(x as usize)[at..];
            let skip = open.iter().take_while(|&&(_, y)| slots[y as usize].placed).count();
            let s = &mut slots[x as usize];
            s.dirty = false;
            s.next_arc = at + skip;
            if s.touched > 0 {
                heap.push(key(x, s));
            }
        }
        // Keys only rise, so a vertex's newest entry pops before its stale
        // ones, which are all skipped once it is placed.
        let popped = std::iter::from_fn(|| heap.pop()).find(|k| !slots[k.id.0 as usize].placed);
        #[cfg(debug_assertions)]
        if let Some(k) = popped {
            check_winner(catalog, config, &slots, k);
        }
        next = popped.map(|k| k.id.0);
    }
    debug_assert_eq!(phi.len(), n, "a connected pattern is ordered whole");
    phi
}

/// Debug cross-check of the heap: the popped key equals the winner's key
/// with `ω¹`/`ω²` recomputed from the pattern, and no frontier vertex
/// outranks it under that recomputed Eq. 1–2 order. `O(|V_P| + |E_P|)`
/// per step, so debug builds plan in quadratic time; it allocates nothing.
#[cfg(debug_assertions)]
fn check_winner(catalog: &Catalog<'_>, config: PlannerConfig, slots: &[Slot], popped: Key) {
    let winner = popped.id.0;
    let placed = |y: VertexId| slots[y as usize].placed;
    let fresh = |x: VertexId| {
        let s = &slots[x as usize];
        let (omega1, omega2, freq) = if config.cluster_tiebreak {
            (
                catalog.min_connecting_cluster(x, placed, true),
                catalog.min_connecting_cluster(x, placed, false),
                catalog.label_frequency(catalog.pattern().label(x)),
            )
        } else {
            (0, 0, 0)
        };
        Key {
            t: s.t,
            omega1: Reverse(omega1),
            omega2: Reverse(omega2),
            freq: Reverse(freq),
            id: Reverse(x),
        }
    };
    let best = fresh(winner);
    debug_assert_eq!(popped, best, "the heap holds a stale key for the winner");
    for (x, s) in (0..).zip(slots) {
        if !s.placed && s.touched > 0 {
            debug_assert!(
                fresh(x) <= best,
                "frontier vertex {x} outranks the heap's pick {winner}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{random_graph, Rng};
    use csce_ccsr::{build_ccsr, read_csr};
    use csce_graph::pattern::undirected_neighbors;
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
    fn gcf_order_full_scan(catalog: &Catalog<'_>, config: PlannerConfig) -> Vec<VertexId> {
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
                            let smallest = |u| {
                                catalog
                                    .incident_edges(u)
                                    .map(|(i, _)| catalog.cluster_size(i))
                                    .min()
                            };
                            smallest(a)
                                .unwrap_or(usize::MAX)
                                .cmp(&smallest(b).unwrap_or(usize::MAX))
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

    /// Eq. 2: pick the candidate whose relevant connecting cluster is
    /// smallest; prefer `ω¹` (edges into the prefix), then `ω²`/`ω³` (edges to
    /// unordered neighbors), then id.
    fn cluster_tiebreak(
        catalog: &Catalog<'_>,
        in_phi: &[bool],
        a: VertexId,
        b: VertexId,
    ) -> VertexId {
        // ω¹ compares clusters on edges into the prefix; if neither candidate
        // has one (or they tie), fall through to the unordered side (ω²/ω³).
        for towards_prefix in [true, false] {
            let in_phi = |y: VertexId| in_phi[y as usize];
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

    fn order_for(g: &Graph, p: &Graph, config: PlannerConfig) -> Vec<VertexId> {
        let gc = build_ccsr(g).unwrap();
        let star = read_csr(&gc, p, Variant::EdgeInduced);
        let catalog = Catalog::new(p, &star);
        gcf_order(&catalog, config)
    }

    #[test]
    fn starts_with_highest_degree() {
        let p = star_pattern();
        let g = simple_data();
        let phi = order_for(&g, &p, PlannerConfig::csce());
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
        let phi = order_for(&g, &p, PlannerConfig::csce());
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

        let with = order_for(&g, &p, PlannerConfig::csce());
        assert_eq!(with, vec![0, 2, 1], "rare cluster first under CCSR tie-break");
        let without = order_for(&g, &p, PlannerConfig::ri_only());
        assert_eq!(without, vec![0, 1, 2], "plain RI breaks ties by id");
    }

    #[test]
    fn empty_pattern_orders_nothing() {
        let p = GraphBuilder::new().build();
        assert!(order_for(&simple_data(), &p, PlannerConfig::csce()).is_empty());
    }

    #[test]
    fn deterministic() {
        let p = star_pattern();
        let g = simple_data();
        assert_eq!(
            order_for(&g, &p, PlannerConfig::csce()),
            order_for(&g, &p, PlannerConfig::csce())
        );
    }

    /// The heap and the full scan agree on `Φ` for `pattern` over `data`,
    /// with and without cluster tie-breaks.
    fn assert_matches_full_scan(pattern: &Graph, data: &Graph) {
        let gc = build_ccsr(data).unwrap();
        let star = read_csr(&gc, pattern, Variant::EdgeInduced);
        let catalog = Catalog::new(pattern, &star);
        for config in [PlannerConfig::csce(), PlannerConfig::ri_only()] {
            assert_eq!(
                gcf_order(&catalog, config),
                gcf_order_full_scan(&catalog, config),
                "{config:?}"
            );
        }
    }

    /// A pattern over `n` vertices with random labels and the given
    /// vertex pairs as edges, each undirected or directed either way, with
    /// one of two edge labels.
    fn shaped(rng: &mut Rng, n: usize, labels: usize, pairs: &[(usize, usize)]) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.below(labels) as u32);
        }
        for &(x, y) in pairs {
            let label = if rng.below(3) == 0 { 1 } else { NO_LABEL };
            let (x, y) = (x as VertexId, y as VertexId);
            match rng.below(3) {
                0 => b.add_undirected_edge(x, y, label).unwrap(),
                1 => b.add_edge(x, y, label).unwrap(),
                _ => b.add_edge(y, x, label).unwrap(),
            }
        }
        b.build()
    }

    /// `hubs` stars of `leaves` leaves each, hub `h` joined to hub 0.
    fn stars(hubs: usize, leaves: usize) -> (usize, Vec<(usize, usize)>) {
        let mut pairs: Vec<(usize, usize)> = (1..hubs).map(|h| (0, h)).collect();
        for h in 0..hubs {
            for l in 0..leaves {
                pairs.push((h, hubs + h * leaves + l));
            }
        }
        (hubs * (leaves + 1), pairs)
    }

    fn path(n: usize) -> Vec<(usize, usize)> {
        (1..n).map(|v| (v - 1, v)).collect()
    }

    fn grid(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    pairs.push((v, v + 1));
                }
                if r + 1 < rows {
                    pairs.push((v, v + cols));
                }
            }
        }
        pairs
    }

    /// A random tree whose every edge is a pair of reciprocal directed
    /// edges with independent edge labels: two incident edges to one
    /// neighbour, usually over clusters of different sizes.
    fn reciprocal_tree(rng: &mut Rng, n: usize, labels: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.below(labels) as u32);
        }
        for v in 1..n {
            let u = rng.below(v) as VertexId;
            let v = v as VertexId;
            for (x, y) in [(u, v), (v, u)] {
                let label = if rng.below(2) == 0 { 1 } else { NO_LABEL };
                b.add_edge(x, y, label).unwrap();
            }
        }
        b.build()
    }

    /// A pattern of directed unlabelled edges and a data graph with exactly
    /// one directed edge per ordered label pair, so every cluster has size
    /// 1 and `ω¹`/`ω²` never separate two vertices of equal rule counts:
    /// label frequency (varied by isolated vertices, with repeats) and then
    /// id decide.
    fn equal_clusters(rng: &mut Rng, n: usize, labels: usize) -> (Graph, Graph) {
        let mut pairs: Vec<(usize, usize)> = (1..n).map(|v| (rng.below(v), v)).collect();
        for _ in 0..rng.below(n + 1) {
            let (x, y) = (rng.below(n), rng.below(n));
            if x != y && !pairs.iter().any(|&(a, c)| (a, c) == (x, y) || (a, c) == (y, x)) {
                pairs.push((x, y));
            }
        }
        let mut pb = GraphBuilder::new();
        for _ in 0..n {
            pb.add_vertex(rng.below(labels) as u32);
        }
        for (x, y) in pairs {
            pb.add_edge(x as VertexId, y as VertexId, NO_LABEL).unwrap();
        }
        let mut gb = GraphBuilder::new();
        for a in 0..labels as u32 {
            for c in 0..labels as u32 {
                let (x, y) = (gb.add_vertex(a), gb.add_vertex(c));
                gb.add_edge(x, y, NO_LABEL).unwrap();
            }
            for _ in 0..rng.below(3) {
                gb.add_vertex(a);
            }
        }
        (pb.build(), gb.build())
    }

    /// A random data graph for patterns over `labels` labels.
    fn data_for(rng: &mut Rng, labels: usize) -> Graph {
        let data_n = 2 + rng.below(10);
        let data_extra = rng.below(3 * data_n);
        random_graph(rng, data_n, 0..labels + 1, false, data_extra)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn heap_matches_full_scan(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let labels = 1 + rng.below(4);
            let (p, g) = match rng.below(6) {
                0 => {
                    let n = 1 + rng.below(14);
                    let extra = rng.below(2 * n + 1);
                    (random_graph(&mut rng, n, 0..labels, true, extra), data_for(&mut rng, labels))
                }
                1 => {
                    let (n, pairs) = stars(1 + rng.below(4), rng.below(12));
                    (shaped(&mut rng, n, labels, &pairs), data_for(&mut rng, labels))
                }
                2 => {
                    let n = 1 + rng.below(120);
                    (shaped(&mut rng, n, labels, &path(n)), data_for(&mut rng, labels))
                }
                3 => {
                    let (rows, cols) = (1 + rng.below(7), 1 + rng.below(7));
                    let pairs = grid(rows, cols);
                    (shaped(&mut rng, rows * cols, labels, &pairs), data_for(&mut rng, labels))
                }
                4 => {
                    let n = 2 + rng.below(14);
                    (reciprocal_tree(&mut rng, n, labels), data_for(&mut rng, labels))
                }
                _ => {
                    let n = 2 + rng.below(14);
                    equal_clusters(&mut rng, n, labels)
                }
            };
            assert_matches_full_scan(&p, &g);
        }
    }

    #[test]
    fn heap_matches_full_scan_on_a_2000_vertex_sparse_pattern() {
        let mut rng = Rng(2000);
        let p = random_graph(&mut rng, 2000, 0..6, true, 400);
        let g = random_graph(&mut rng, 200, 0..7, false, 1200);
        assert_matches_full_scan(&p, &g);
    }

    #[test]
    fn heap_matches_full_scan_on_a_2000_leaf_star() {
        let mut rng = Rng(2001);
        let (n, pairs) = stars(1, 2000);
        let p = shaped(&mut rng, n, 6, &pairs);
        let g = random_graph(&mut rng, 200, 0..7, false, 1200);
        assert_matches_full_scan(&p, &g);
    }

    #[test]
    fn heap_matches_full_scan_on_a_2000_vertex_path() {
        let mut rng = Rng(2002);
        let p = shaped(&mut rng, 2000, 6, &path(2000));
        let g = random_graph(&mut rng, 200, 0..7, false, 1200);
        assert_matches_full_scan(&p, &g);
    }
}
