//! # csce-graph
//!
//! Heterogeneous graph substrate for the CSCE subgraph matching engine.
//!
//! This crate provides everything the engine and its evaluation need from a
//! graph library, built from scratch:
//!
//! * [`Graph`] — an immutable heterogeneous graph with vertex labels, edge
//!   labels, and per-edge direction (an undirected edge is modelled, as in
//!   the paper, as a pair of directed arcs that always travel together);
//! * [`GraphBuilder`] — validated construction (no self loops, no duplicate
//!   edges) from edge lists;
//! * [`io`] — the plain-text reader/writer for our labeled format;
//! * [`generate`] — deterministic random-graph generators (Erdős–Rényi,
//!   Chung–Lu power law, road lattices, planted partitions) used by the
//!   dataset crate;
//! * [`sample`] — pattern sampling from data graphs with density control,
//!   mirroring how RapidMatch / VEQ / GuP produce query workloads;
//! * [`oracle`] — a brute-force matcher for all three subgraph matching
//!   variants, used as the ground-truth oracle in tests;
//! * [`automorphism`] — automorphism counting for symmetry-breaking
//!   comparisons;
//! * [`stats`] — the dataset statistics reported in Table IV of the paper.

#![forbid(unsafe_code)]

pub mod automorphism;
pub mod export;
pub mod generate;
pub mod graph;
pub mod io;
pub mod oracle;
pub mod pattern;
pub mod query;
pub mod sample;
pub mod stats;
pub mod util;

pub use graph::{Adj, Edge, Graph, GraphBuilder, Orient};
pub use oracle::{oracle_count, oracle_embeddings};
pub use pattern::{classify_density, Density};
pub use stats::GraphStats;
pub use util::{FxHashMap, FxHashSet};

/// Identifier of a vertex within a [`Graph`]. Vertices are dense integers
/// `0..n`, which lets every index structure in the engine be a flat array.
pub type VertexId = u32;

/// A vertex or edge label. Labels are dense small integers managed by the
/// caller; [`NO_LABEL`] stands for the paper's `NULL` (unlabeled) edge label.
pub type Label = u32;

/// The `NULL` label: unlabeled edges and unlabeled vertices carry this value
/// in cluster identifiers. Stored as the maximum label id so real labels can
/// stay dense starting from zero.
pub const NO_LABEL: Label = u32::MAX;

/// The three subgraph matching variants the engine supports (θ in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Variant {
    /// Non-induced / monomorphism: injective mapping, pattern edges must be
    /// present, extra data edges among mapped vertices are allowed.
    #[default]
    EdgeInduced,
    /// Induced: injective mapping and the mapped vertices' induced subgraph
    /// must be exactly isomorphic to the pattern (no extra data edges).
    VertexInduced,
    /// Homomorphism: pattern edges must be present but the mapping need not
    /// be injective.
    Homomorphic,
}

impl Variant {
    /// Whether this variant requires the mapping to be injective.
    #[inline]
    pub fn injective(self) -> bool {
        !matches!(self, Variant::Homomorphic)
    }

    /// All variants, for exhaustive test sweeps.
    pub const ALL: [Variant; 3] =
        [Variant::EdgeInduced, Variant::VertexInduced, Variant::Homomorphic];

    /// The single-letter tag the paper uses in Table III.
    pub fn tag(self) -> &'static str {
        match self {
            Variant::EdgeInduced => "E",
            Variant::VertexInduced => "V",
            Variant::Homomorphic => "H",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Variant::EdgeInduced => "edge-induced",
            Variant::VertexInduced => "vertex-induced",
            Variant::Homomorphic => "homomorphic",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    /// Parse `e`/`v`/`h` (either case, as `.repro` files and the CLI write
    /// them) or `edge`/`vertex`/`hom`.
    fn from_str(s: &str) -> Result<Variant, String> {
        match s {
            "e" | "E" | "edge" => Ok(Variant::EdgeInduced),
            "v" | "V" | "vertex" => Ok(Variant::VertexInduced),
            "h" | "H" | "hom" => Ok(Variant::Homomorphic),
            other => Err(format!("unknown variant {other:?} (expected e, v or h)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_tags_match_paper_table3() {
        assert_eq!(Variant::EdgeInduced.tag(), "E");
        assert_eq!(Variant::VertexInduced.tag(), "V");
        assert_eq!(Variant::Homomorphic.tag(), "H");
    }

    #[test]
    fn injectivity_only_relaxed_for_homomorphism() {
        assert!(Variant::EdgeInduced.injective());
        assert!(Variant::VertexInduced.injective());
        assert!(!Variant::Homomorphic.injective());
    }

    #[test]
    fn variants_parse_from_short_and_long_tokens() {
        for v in Variant::ALL {
            assert_eq!(v.tag().parse::<Variant>(), Ok(v));
            assert_eq!(v.tag().to_lowercase().parse::<Variant>(), Ok(v));
        }
        assert_eq!("hom".parse::<Variant>(), Ok(Variant::Homomorphic));
        assert!("x".parse::<Variant>().is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Variant::EdgeInduced.to_string(), "edge-induced");
        assert_eq!(Variant::VertexInduced.to_string(), "vertex-induced");
        assert_eq!(Variant::Homomorphic.to_string(), "homomorphic");
    }
}
