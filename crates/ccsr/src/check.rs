//! The one structural check of a `G_C`.
//!
//! The paper drops `G` once it is clustered (§IV), so the cluster keys and
//! row indexes *are* the data. [`Ccsr::check`] states everything the
//! engine relies on beyond what a row index holds by construction (rows
//! ascending, offsets closing over `I_C`; a decode checks the on-disk runs
//! for it, reporting `rle-index` or `rle-coverage`):
//!
//! | id | invariant |
//! |---|---|
//! | `label-array` | one vertex label per vertex |
//! | `key-canonical` | undirected keys list the smaller label first |
//! | `key-direction` | a cluster has an `inc` index exactly when it is directed |
//! | `cluster-nonempty` | every cluster holds at least one arc |
//! | `rle-coverage` | the runs cover exactly `n + 1` offsets: every row is a vertex |
//! | `neighbor-range` | every neighbor id is `< n` |
//! | `rows-sorted` | every row is strictly increasing |
//! | `self-loop` | no arc joins a vertex to itself (`G` has none) |
//! | `key-label-agreement` | both endpoint labels of every arc match the key |
//! | `inc-transpose` | a directed cluster's `inc` is exactly `out` transposed |
//! | `undirected-symmetry` | an undirected cluster stores each edge both ways |
//!
//! The check walks each index's non-empty rows: its cost is
//! `O(rows + arcs · log arcs)` per cluster (`O(n)` only for a dense
//! index). It runs on every decode ([`crate::persist::from_bytes`]), after
//! every build in debug builds, and under `csce validate`.

use crate::build::Ccsr;
use crate::cluster::Cluster;
use crate::index::RowIndex;
use crate::key::ClusterKey;
use csce_graph::{Label, VertexId};

/// The first broken invariant of a `G_C`, or of its encoding: what broke
/// and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corrupt {
    /// The invariant's id, e.g. `"rows-sorted"` (see the module table), or
    /// the encoding rule a decode broke, e.g. `"truncated runs"`.
    pub invariant: &'static str,
    /// The cluster it broke in, for per-cluster invariants.
    pub key: Option<ClusterKey>,
    /// The vertex (row) it broke at, when one is to blame.
    pub vertex: Option<VertexId>,
}

impl Corrupt {
    /// A broken invariant with no location.
    pub(crate) fn new(invariant: &'static str) -> Corrupt {
        Corrupt { invariant, key: None, vertex: None }
    }

    pub(crate) fn in_cluster(invariant: &'static str, key: ClusterKey) -> Corrupt {
        Corrupt { invariant, key: Some(key), vertex: None }
    }

    fn at(invariant: &'static str, key: ClusterKey, vertex: VertexId) -> Corrupt {
        Corrupt { invariant, key: Some(key), vertex: Some(vertex) }
    }
}

impl std::fmt::Display for Corrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.invariant)?;
        if let Some(key) = self.key {
            write!(f, " in cluster {key}")?;
        }
        if let Some(v) = self.vertex {
            write!(f, " at vertex {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Corrupt {}

impl Ccsr {
    /// Check every structural invariant of this `G_C` (module table) and
    /// return the first one broken, with its cluster key and vertex.
    pub fn check(&self) -> Result<(), Corrupt> {
        let labels = self.vertex_labels();
        if labels.len() != self.n() {
            return Err(Corrupt::new("label-array"));
        }
        self.clusters().try_for_each(|c| check_cluster(labels, c))
    }
}

fn check_cluster(labels: &[Label], c: &Cluster) -> Result<(), Corrupt> {
    let key = c.key;
    if !key.directed && key.src_label > key.dst_label {
        return Err(Corrupt::in_cluster("key-canonical", key));
    }
    if key.directed != c.inc.is_some() {
        return Err(Corrupt::in_cluster("key-direction", key));
    }
    if c.out.arc_count() == 0 {
        return Err(Corrupt::in_cluster("cluster-nonempty", key));
    }
    let ends = (key.src_label, key.dst_label);
    let out = arcs(labels, key, &c.out, |lv, lw| {
        if key.directed {
            (lv, lw) == ends
        } else {
            (lv.min(lw), lv.max(lw)) == ends
        }
    })?;
    // Reversed, the `inc` arcs (or, undirected, the `out` arcs) must be
    // exactly the `out` arcs, which the row walk yields sorted.
    let mut back = match &c.inc {
        Some(inc) => arcs(labels, key, inc, |lv, lw| (lw, lv) == ends)?,
        None => out.clone(),
    };
    for arc in &mut back {
        *arc = (arc.1, arc.0);
    }
    back.sort_unstable();
    if out != back {
        let invariant = if key.directed { "inc-transpose" } else { "undirected-symmetry" };
        // Blame the source of the first arc where the two lists part.
        let i = out.iter().zip(&back).take_while(|(a, b)| a == b).count();
        let vertex = out.get(i).into_iter().chain(back.get(i)).map(|arc| arc.0).min();
        return Err(Corrupt { invariant, key: Some(key), vertex });
    }
    Ok(())
}

/// Every arc `(row, neighbor)` of one row index in row order, checking
/// coverage, neighbor range, strictly increasing rows, no self-loops and
/// endpoint labels (`fits(row label, neighbor label)`) on the way.
fn arcs(
    labels: &[Label],
    key: ClusterKey,
    index: &RowIndex,
    fits: impl Fn(Label, Label) -> bool,
) -> Result<Vec<(VertexId, VertexId)>, Corrupt> {
    let mut arcs = Vec::with_capacity(index.arc_count());
    for (row, neighbors) in index.nonempty() {
        let &lv = labels.get(row as usize).ok_or(Corrupt::in_cluster("rle-coverage", key))?;
        let at = |invariant| Corrupt::at(invariant, key, row);
        let mut prev = None;
        for &w in neighbors {
            let &lw = labels.get(w as usize).ok_or_else(|| at("neighbor-range"))?;
            if prev.is_some_and(|p| w <= p) {
                return Err(at("rows-sorted"));
            }
            if w == row {
                return Err(at("self-loop"));
            }
            if !fits(lv, lw) {
                return Err(at("key-label-agreement"));
            }
            arcs.push((row, w));
            prev = Some(w);
        }
    }
    Ok(arcs)
}
