//! One edge-isomorphism cluster: the form queries read rows from directly.

use crate::index::RowIndex;
use crate::key::ClusterKey;
use csce_graph::VertexId;

/// One edge-isomorphism cluster.
///
/// Directed clusters store two row indexes so both outgoing and incoming
/// neighbors can be found; undirected clusters store one that lists each
/// edge from both endpoints (§IV). Either way each edge of `G` appears
/// exactly twice in exactly one cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    pub key: ClusterKey,
    /// Outgoing rows (for undirected clusters: the only rows).
    pub(crate) out: RowIndex,
    /// Incoming rows; present only for directed clusters.
    pub(crate) inc: Option<RowIndex>,
}

impl Cluster {
    /// The rows against the edge direction (undirected clusters answer
    /// from their one index).
    #[inline]
    fn in_index(&self) -> &RowIndex {
        self.inc.as_ref().unwrap_or(&self.out)
    }

    /// Neighbors along the edge direction from `v` (for undirected
    /// clusters simply `v`'s neighbors), sorted.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.row(v)
    }

    /// Neighbors against the edge direction into `v`, sorted.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_index().row(v)
    }

    /// Vertices with at least one arc in this cluster, ascending: those
    /// with outgoing arcs, or with `incoming`, those with incoming arcs.
    /// These are the candidate seeds for the first pattern vertex of a plan.
    pub fn nonempty_rows(&self, incoming: bool) -> impl Iterator<Item = VertexId> + '_ {
        let index = if incoming { self.in_index() } else { &self.out };
        index.nonempty().map(|(v, _)| v)
    }

    /// The paper's `|I_C(u_i, u_x)|`: the cluster size used for GCF / LDSF
    /// tie-breaking.
    #[inline]
    pub fn size(&self) -> usize {
        self.out.arc_count()
    }

    /// Number of data edges (undirected edges stored twice count once).
    pub fn edge_count(&self) -> usize {
        if self.key.directed {
            self.out.arc_count()
        } else {
            self.out.arc_count() / 2
        }
    }

    /// Rows the cluster's indexes address, out plus in: the non-empty rows
    /// of a sparse index, all `n` of a dense one.
    pub fn indexed_rows(&self) -> usize {
        self.out.indexed_rows() + self.inc.as_ref().map_or(0, RowIndex::indexed_rows)
    }

    /// Heap bytes of the cluster's row buffers (its key and index headers
    /// live inline, in `G_C`'s cluster table).
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.as_ref().map_or(0, RowIndex::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csce_graph::NO_LABEL;

    fn directed_cluster() -> Cluster {
        // Arcs: 0->1, 0->5, 3->4 over 6 vertices.
        Cluster {
            key: ClusterKey::directed(0, 1, NO_LABEL),
            out: RowIndex::from_sorted(6, &mut [(0, 1), (0, 5), (3, 4)]).unwrap(),
            inc: Some(RowIndex::from_sorted(6, &mut [(1, 0), (5, 0), (4, 3)]).unwrap()),
        }
    }

    #[test]
    fn directed_cluster_counts_and_lookup() {
        let c = directed_cluster();
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.out_neighbors(0), &[1, 5]);
        assert_eq!(c.in_neighbors(5), &[0]);
        assert_eq!(c.in_neighbors(0), &[] as &[u32]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.nonempty_rows(false).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(c.nonempty_rows(true).collect::<Vec<_>>(), vec![1, 4, 5]);
        // Out is sparse (2 rows), in is dense (3 rows of 6).
        assert_eq!(c.indexed_rows(), 2 + 6);
    }

    #[test]
    fn undirected_cluster_serves_both_directions() {
        // Undirected edges {0,1} and {1,2}: stored as 4 arcs in one index.
        let c = Cluster {
            key: ClusterKey::undirected(0, 0, NO_LABEL),
            out: RowIndex::from_sorted(3, &mut [(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap(),
            inc: None,
        };
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.out_neighbors(1), &[0, 2]);
        assert_eq!(c.in_neighbors(1), &[0, 2]);
        assert_eq!(c.size(), 4);
        assert_eq!(c.nonempty_rows(true).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn cluster_fits_one_cache_line() {
        assert!(std::mem::size_of::<Cluster>() <= 64, "{} bytes", std::mem::size_of::<Cluster>());
    }
}
