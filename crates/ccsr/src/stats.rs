//! Diagnostics over a clustered graph: cluster-size distribution and
//! compression effectiveness — the quantities behind the paper's space
//! analysis (§IV) and the CCSR-overhead discussion (Finding 5/11).

use crate::build::Ccsr;

/// Summary statistics of a `G_C`.
#[derive(Clone, Debug, PartialEq)]
pub struct CcsrStats {
    pub vertex_count: usize,
    pub cluster_count: usize,
    /// Data edges across all clusters (each stored twice internally).
    pub edge_count: usize,
    /// Total `I_C` length (always `2 |E|`).
    pub total_ic: usize,
    /// Total row-index `I_R` length: `2 · rows + 1` per sparse index,
    /// `n + 1` per dense one (bounded by `4 |E|`).
    pub total_ir_compressed: usize,
    /// What dense `I_R` arrays would cost: `n + 1` per cluster direction.
    pub total_ir_uncompressed: usize,
    /// Largest cluster, in edges.
    pub max_cluster_edges: usize,
    /// Median cluster size, in edges.
    pub median_cluster_edges: usize,
    /// Heap bytes of the whole `G_C` ([`Ccsr::heap_bytes`]).
    pub heap_bytes: usize,
}

impl CcsrStats {
    /// Compute the stats of a clustered graph.
    pub fn of(ccsr: &Ccsr) -> CcsrStats {
        let mut sizes: Vec<usize> = ccsr.clusters().map(|c| c.edge_count()).collect();
        sizes.sort_unstable();
        let csr_count: usize = ccsr.clusters().map(|c| 1 + usize::from(c.inc.is_some())).sum();
        CcsrStats {
            vertex_count: ccsr.n(),
            cluster_count: ccsr.cluster_count(),
            edge_count: sizes.iter().sum(),
            total_ic: ccsr.total_ic_len(),
            total_ir_compressed: ccsr.total_ir_len(),
            total_ir_uncompressed: csr_count * (ccsr.n() + 1),
            max_cluster_edges: sizes.last().copied().unwrap_or(0),
            median_cluster_edges: sizes.get(sizes.len() / 2).copied().unwrap_or(0),
            heap_bytes: ccsr.heap_bytes(),
        }
    }

    /// `I_R` bytes saved by indexing only non-empty rows (ratio > 1 means
    /// the row indexes are smaller; grows with cluster count).
    pub fn ir_compression_ratio(&self) -> f64 {
        if self.total_ir_compressed == 0 {
            1.0
        } else {
            self.total_ir_uncompressed as f64 / self.total_ir_compressed as f64
        }
    }
}

impl std::fmt::Display for CcsrStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} clusters over {} edges (max {}, median {}); I_C {}, I_R {} compressed \
             vs {} standard ({:.1}x); heap {} bytes",
            self.cluster_count,
            self.edge_count,
            self.max_cluster_edges,
            self.median_cluster_edges,
            self.total_ic,
            self.total_ir_compressed,
            self.total_ir_uncompressed,
            self.ir_compression_ratio(),
            self.heap_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ccsr;
    use csce_graph::generate::chung_lu;
    use csce_graph::{GraphBuilder, NO_LABEL};

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        for l in [0u32, 1, 0, 1] {
            b.add_vertex(l);
        }
        b.add_edge(0, 1, NO_LABEL).unwrap(); // (0,1) directed
        b.add_edge(2, 3, NO_LABEL).unwrap(); // same cluster
        b.add_undirected_edge(1, 3, NO_LABEL).unwrap(); // (1,1) undirected
        let gc = build_ccsr(&b.build()).unwrap();
        let s = CcsrStats::of(&gc);
        assert_eq!(s.cluster_count, 2);
        assert_eq!(s.edge_count, 3);
        assert_eq!(s.total_ic, 6);
        assert_eq!(s.max_cluster_edges, 2);
        // Directed cluster has 2 CSRs, undirected has 1 -> 3*(4+1)=15.
        assert_eq!(s.total_ir_uncompressed, 15);
        assert!(s.to_string().contains("2 clusters"));
        assert_eq!(s.heap_bytes, gc.heap_bytes());
        assert!(s.to_string().ends_with(&format!("heap {} bytes", s.heap_bytes)));
    }

    #[test]
    fn compression_wins_with_many_labels() {
        let g = chung_lu(2000, 8000, 2.5, 100, 0, false, 3);
        let s = CcsrStats::of(&build_ccsr(&g).unwrap());
        assert!(
            s.ir_compression_ratio() > 5.0,
            "many small clusters compress well, got {:.1}x",
            s.ir_compression_ratio()
        );
        assert!(s.total_ir_compressed <= 4 * 2 * s.edge_count + 2 * s.cluster_count);
    }
}
