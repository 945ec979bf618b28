//! # csce-ccsr
//!
//! Clustered Compressed Sparse Row (CCSR) storage — the paper's
//! heterogeneity-aware index over the data graph (§IV).
//!
//! Every data edge is placed in exactly one *cluster* of mutually
//! isomorphic edges, identified by a [`ClusterKey`] of
//! `(source label, destination label, edge label)` plus direction. Each
//! cluster stores one or two row indexes: directed clusters an outgoing
//! and an incoming one, undirected clusters a single one that lists each
//! edge from both endpoints. A row index keeps only the non-empty rows and
//! their offsets — the information of the paper's run-length-compressed
//! `I_R`, so the total `I_R` length is bounded by `4|E|` regardless of
//! cluster count — and finds a row by binary search; when at least half of
//! the vertices have arcs, the dense `n + 1` offsets are no longer, and it
//! stores those for O(1) rows. Each row index is one exact-size buffer, and
//! the clusters sit in one table ordered by unordered label pair: a graph
//! with thousands of labels has tens of thousands of clusters of one or
//! two edges, and per-cluster allocations and hash entries would outweigh
//! the arcs. Next to the table sit one label table, the distinct vertex
//! labels ascending with their counts ([`Ccsr::label_frequency`]), and two
//! flat indexes: a label-pair CSR ([`csce_graph::util::Csr`]) over the
//! label table's ids, whose row for label `a` lists the pairs `(a, b ≥ a)`
//! with clusters and so makes up `a`'s contiguous *run*
//! ([`Ccsr::negation_clusters`]), and a key index, one open-addressing
//! table of cluster indexes ([`Ccsr::cluster`]). [`read_csr`]
//! (Algorithm 1) resolves a pattern against `G_C` once into the [`GcStar`]
//! every later stage reads: each pattern edge's cluster, each pattern
//! vertex's incident edges, the pattern's labels numbered densely, and the
//! label pairs `G_C` joins, walked through the CSR rows of the pattern's
//! labels. It decodes no cluster: queries read rows in place.
//!
//! The offline stage is [`build_ccsr`]: it converts a
//! [`csce_graph::Graph`] into a [`Ccsr`] (the paper's `G_C`), which fully
//! replaces the original graph ("as `G_C` is equivalent to `G`, we do not
//! keep `G`"). [`persist`] serializes `G_C` to a compact binary file so
//! clustering cost is paid once per data graph, not per query. Both
//! paths end in one constructor, and [`Ccsr::check`] is the one statement
//! of what a valid `G_C` is: decoding runs it on every file, so a `Ccsr`
//! the engine sees is valid by construction.

#![forbid(unsafe_code)]

/// Errors raised while building or encoding a `G_C`.
///
/// The CCSR layout (and its on-disk format) stores vertex ids, arc
/// counts, run counts, and cluster counts as `u32`; a data graph that
/// overflows any of those budgets is reported instead of silently
/// truncated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcsrError {
    /// A count exceeded the 32-bit budget; `what` names the counter.
    Overflow {
        /// The counter that overflowed (e.g. `"vertex count"`).
        what: &'static str,
    },
}

impl std::fmt::Display for CcsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcsrError::Overflow { what } => {
                write!(f, "{what} exceeds the 32-bit CCSR budget")
            }
        }
    }
}

impl std::error::Error for CcsrError {}

pub mod build;
pub mod check;
pub mod cluster;
mod index;
pub mod key;
pub mod persist;
pub mod read;
pub mod stats;

pub use build::{build_ccsr, Ccsr};
pub use check::Corrupt;
pub use cluster::Cluster;
pub use key::ClusterKey;
pub use read::{read_csr, GcStar, ReadStats, Side};
pub use stats::CcsrStats;
