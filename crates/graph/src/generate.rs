//! Deterministic random-graph generators.
//!
//! These produce the synthetic stand-ins for the paper's data graphs (the
//! dataset presets live in `csce-datasets`; this module has the underlying
//! models). All generators take an explicit seed and are fully
//! deterministic for a given seed, so benchmarks and tests are reproducible.

use crate::graph::{Graph, GraphBuilder};
use crate::{Label, VertexId, NO_LABEL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assign a uniform random label from `0..label_count` to each vertex;
/// `label_count == 0` means unlabeled ([`NO_LABEL`]).
fn random_label(rng: &mut StdRng, label_count: u32) -> Label {
    if label_count == 0 {
        NO_LABEL
    } else {
        rng.gen_range(0..label_count)
    }
}

/// G(n, m) Erdős–Rényi graph with uniform random vertex and edge labels.
///
/// Directed graphs sample ordered pairs, undirected graphs unordered pairs;
/// duplicate pairs are re-drawn. Panics if `m` exceeds the number of
/// available pairs.
pub fn erdos_renyi(
    n: usize,
    m: usize,
    vertex_labels: u32,
    edge_labels: u32,
    directed: bool,
    seed: u64,
) -> Graph {
    let max_pairs = if directed { n * (n - 1) } else { n * (n - 1) / 2 };
    assert!(m <= max_pairs, "requested {m} edges but only {max_pairs} pairs exist");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        let l = random_label(&mut rng, vertex_labels);
        b.add_vertex(l);
    }
    let mut added = 0usize;
    while added < m {
        let a = rng.gen_range(0..n) as VertexId;
        let c = rng.gen_range(0..n) as VertexId;
        if a == c {
            continue;
        }
        let el = if edge_labels == 0 { NO_LABEL } else { rng.gen_range(0..edge_labels) };
        let res = if directed { b.add_edge(a, c, el) } else { b.add_undirected_edge(a, c, el) };
        if res.is_ok() {
            added += 1;
        }
    }
    b.build()
}

/// Chung–Lu power-law graph: vertex `i` gets expected-degree weight
/// `(i+1)^(-1/(γ-1))` and endpoints are drawn proportionally to weight.
/// Models the social / citation graphs of Table IV (Orkut, LiveJournal,
/// Patent, Subcategory) whose degree distributions are heavy-tailed.
pub fn chung_lu(
    n: usize,
    m: usize,
    gamma: f64,
    vertex_labels: u32,
    edge_labels: u32,
    directed: bool,
    seed: u64,
) -> Graph {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        let l = random_label(&mut rng, vertex_labels);
        b.add_vertex(l);
    }
    // Cumulative weights for proportional sampling by binary search.
    let exponent = -1.0 / (gamma - 1.0);
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += ((i + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let draw = |rng: &mut StdRng| -> VertexId {
        let x = rng.gen_range(0.0..total);
        cumulative.partition_point(|&c| c <= x) as VertexId
    };
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(50).max(1000);
    while added < m && attempts < max_attempts {
        attempts += 1;
        let a = draw(&mut rng);
        let c = draw(&mut rng);
        if a == c {
            continue;
        }
        let el = if edge_labels == 0 { NO_LABEL } else { rng.gen_range(0..edge_labels) };
        let res = if directed { b.add_edge(a, c, el) } else { b.add_undirected_edge(a, c, el) };
        if res.is_ok() {
            added += 1;
        }
    }
    b.build()
}

/// A road-network-like lattice: a `rows × cols` grid where each edge is kept
/// with probability `keep`, yielding the low, near-constant degrees of
/// RoadCA (average degree ≈ 2.8 at `keep ≈ 0.7`). Undirected, unlabeled.
pub fn road_grid(rows: usize, cols: usize, keep: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    b.add_unlabeled_vertices(n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && rng.gen_bool(keep) {
                b.add_undirected_edge(id(r, c), id(r, c + 1), NO_LABEL).unwrap();
            }
            if r + 1 < rows && rng.gen_bool(keep) {
                b.add_undirected_edge(id(r, c), id(r + 1, c), NO_LABEL).unwrap();
            }
        }
    }
    b.build()
}

/// Planted-partition community graph: `n` vertices in `k` equal groups;
/// each vertex gets ~`d_in` expected intra-group and ~`d_out` inter-group
/// undirected neighbors. Returns the graph and the ground-truth group of
/// each vertex. Models the EMAIL-EU case-study network (§VII-G).
pub fn planted_partition(
    n: usize,
    k: usize,
    d_in: f64,
    d_out: f64,
    seed: u64,
) -> (Graph, Vec<usize>) {
    assert!(k >= 1 && n >= k);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * (d_in + d_out).ceil() as usize);
    b.add_unlabeled_vertices(n);
    let groups: Vec<usize> = (0..n).map(|i| i % k).collect();
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for (i, &g) in groups.iter().enumerate() {
        members[g].push(i as VertexId);
    }
    // Expected intra edges per group: |group| * d_in / 2.
    for group in &members {
        let target = ((group.len() as f64) * d_in / 2.0).round() as usize;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < target && attempts < target * 30 + 100 {
            attempts += 1;
            let a = group[rng.gen_range(0..group.len())];
            let c = group[rng.gen_range(0..group.len())];
            if a != c && b.add_undirected_edge(a, c, NO_LABEL).is_ok() {
                added += 1;
            }
        }
    }
    let inter_target = ((n as f64) * d_out / 2.0).round() as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < inter_target && attempts < inter_target * 30 + 100 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if groups[a] != groups[c]
            && b.add_undirected_edge(a as VertexId, c as VertexId, NO_LABEL).is_ok()
        {
            added += 1;
        }
    }
    (b.build(), groups)
}

/// Barabási–Albert preferential attachment: each new vertex attaches `m0`
/// undirected edges to existing vertices chosen proportionally to degree.
/// An alternative heavy-tail model to [`chung_lu`] with guaranteed
/// connectivity, useful for workload robustness checks.
pub fn barabasi_albert(n: usize, m0: usize, vertex_labels: u32, seed: u64) -> Graph {
    assert!(m0 >= 1 && n > m0, "need n > m0 >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m0);
    for _ in 0..n {
        let l = random_label(&mut rng, vertex_labels);
        b.add_vertex(l);
    }
    // Endpoint pool: each vertex appears once per incident edge, so a
    // uniform draw from the pool is a degree-proportional draw.
    let mut pool: Vec<VertexId> = Vec::with_capacity(2 * n * m0);
    // Seed clique over the first m0 + 1 vertices.
    for i in 0..=m0 {
        for j in i + 1..=m0 {
            b.add_undirected_edge(i as VertexId, j as VertexId, NO_LABEL).unwrap();
            pool.push(i as VertexId);
            pool.push(j as VertexId);
        }
    }
    for v in (m0 + 1)..n {
        let mut attached = 0usize;
        let mut guard = 0usize;
        while attached < m0 && guard < 50 * m0 {
            guard += 1;
            let target = pool[rng.gen_range(0..pool.len())];
            if b.add_undirected_edge(v as VertexId, target, NO_LABEL).is_ok() {
                pool.push(v as VertexId);
                pool.push(target);
                attached += 1;
            }
        }
    }
    b.build()
}

/// Replace all vertex labels with uniform random labels from
/// `0..label_count` (used to vary heterogeneity for Fig. 10/11).
pub fn randomize_vertex_labels(g: &Graph, label_count: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = (0..g.n()).map(|_| random_label(&mut rng, label_count)).collect();
    g.with_vertex_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_counts_and_determinism() {
        let g1 = erdos_renyi(50, 100, 5, 2, false, 42);
        let g2 = erdos_renyi(50, 100, 5, 2, false, 42);
        assert_eq!(g1.n(), 50);
        assert_eq!(g1.m(), 100);
        assert_eq!(g1.edges(), g2.edges(), "same seed, same graph");
        assert!(g1.vertex_label_count() <= 5);
        let g3 = erdos_renyi(50, 100, 5, 2, false, 43);
        assert_ne!(g1.edges(), g3.edges(), "different seed, different graph");
    }

    #[test]
    fn erdos_renyi_directed() {
        let g = erdos_renyi(30, 200, 0, 0, true, 7);
        assert!(g.has_directed_edges());
        assert_eq!(g.m(), 200);
        assert_eq!(g.vertex_label_count(), 0);
    }

    #[test]
    fn chung_lu_is_heavy_tailed() {
        let g = chung_lu(2000, 6000, 2.5, 10, 0, false, 1);
        assert!(g.m() > 5000, "should reach close to target edges, got {}", g.m());
        let max_deg = (0..g.n() as u32).map(|v| g.degree(v)).max().unwrap();
        let avg = g.average_degree();
        assert!(
            (max_deg as f64) > 6.0 * avg,
            "power-law hub expected: max {max_deg} vs avg {avg:.1}"
        );
    }

    #[test]
    fn road_grid_is_sparse_and_low_degree() {
        let g = road_grid(40, 40, 0.7, 3);
        assert_eq!(g.n(), 1600);
        let max_deg = (0..g.n() as u32).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg <= 4);
        let avg = g.average_degree();
        assert!(avg > 2.0 && avg < 3.2, "road-like average degree, got {avg:.2}");
    }

    #[test]
    fn planted_partition_prefers_intra_edges() {
        let (g, groups) = planted_partition(300, 6, 8.0, 2.0, 5);
        assert_eq!(groups.len(), 300);
        let (mut intra, mut inter) = (0usize, 0usize);
        for e in g.edges() {
            if groups[e.src as usize] == groups[e.dst as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 2 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn barabasi_albert_grows_hubs_and_stays_connected() {
        let g = barabasi_albert(500, 3, 0, 4);
        assert_eq!(g.n(), 500);
        assert!(g.is_connected(), "preferential attachment yields one component");
        let max_deg = (0..g.n() as u32).map(|v| g.degree(v)).max().unwrap();
        assert!((max_deg as f64) > 4.0 * g.average_degree(), "hub exists: {max_deg}");
        // Deterministic.
        assert_eq!(g.edges(), barabasi_albert(500, 3, 0, 4).edges());
    }

    #[test]
    fn relabel_changes_only_labels() {
        let g = erdos_renyi(40, 80, 0, 0, false, 9);
        let h = randomize_vertex_labels(&g, 16, 11);
        assert_eq!(g.edges(), h.edges());
        assert!(h.vertex_label_count() > 1);
    }
}
