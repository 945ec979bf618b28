//! # CSCE — Large Subgraph Matching for Heterogeneous Graphs
//!
//! A Rust implementation of *"Large Subgraph Matching: A Comprehensive
//! and Efficient Approach for Heterogeneous Graphs"* (ICDE 2024):
//! Clustered Compressed Sparse Rows (CCSR) for heterogeneity-aware
//! indexing and Sequential Candidate Equivalence (SCE) for
//! dependency-aware candidate reuse, supporting edge-induced,
//! vertex-induced and homomorphic subgraph matching.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — the heterogeneous graph substrate (model, I/O,
//!   generators, pattern sampling, test oracles);
//! * [`ccsr`] — the clustered CSR index (`G_C`), Algorithm 1 cluster
//!   selection, persistence;
//! * [`engine`] — plans (GCF / DAG / LDSF / NEC) and the SCE executor,
//!   plus the high-level [`Engine`];
//! * [`baselines`] — RI, failing-set backtracking, Graphflow-style WCOJ,
//!   VF-style induced matching and GraphPi-style symmetry breaking;
//! * [`datasets`] — deterministic stand-ins for the paper's data graphs
//!   and the EMAIL-EU case study;
//! * [`obs`] — zero-dependency observability: phase-timed spans, the
//!   metrics registry, run reports and the built-in JSON codec;
//! * [`analyze`] — deep structural invariant checkers ([`analyze::Validate`])
//!   for graphs and plans, plus the `csce-lint` source linter (a `G_C` is
//!   checked by [`ccsr::Ccsr::check`]);
//! * [`fuzz`] — the seeded differential-testing harness behind
//!   `csce fuzz`: random cases, the engine/baseline/oracle referee sweep,
//!   the shrinker and the `.repro` format.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use csce_analyze as analyze;
pub use csce_baselines as baselines;
pub use csce_ccsr as ccsr;
pub use csce_core as engine;
pub use csce_datasets as datasets;
pub use csce_fuzz as fuzz;
pub use csce_graph as graph;
pub use csce_obs as obs;

pub use csce_core::{Engine, ExecError, PlannerConfig, QueryOutput, RunConfig};
pub use csce_graph::{Graph, GraphBuilder, Variant, VertexId, NO_LABEL};
