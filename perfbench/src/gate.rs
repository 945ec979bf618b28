//! The correctness gate: every completed query's answer is checked against
//! a reference count that the timed run did not produce.
//!
//! The reference is computed once per seed, after the timed runs, by an
//! independent engine: the RI backtracker of `csce-baselines` when it
//! finishes within the workload's budget, otherwise the CSCE executor
//! under the `ri_cluster` planner preset (a different matching order and
//! no SCE/NEC sharing). A query neither finishes in budget is reported as
//! unverified.

use crate::workload::{DataGraph, Query, Spec};
use csce_baselines::ri::RiBacktracking;
use csce_baselines::Baseline;
use csce_core::{Engine, PlannerConfig, RunConfig};
use csce_graph::{Graph, VertexId};

/// Where a reference count came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Baseline,
    RiCluster,
    /// Neither reference finished within budget.
    None,
}

/// The reference answer of one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub count: Option<u64>,
    pub source: Source,
}

/// Compute the reference answer of one query.
pub fn reference(q: &Query, graphs: &[DataGraph], engines: &[Engine], spec: &Spec) -> Reference {
    let g = &graphs[q.data].graph;
    let r = RiBacktracking.count(g, &q.pattern, q.variant, Some(spec.baseline_budget));
    if !r.timed_out {
        return Reference { count: Some(r.count), source: Source::Baseline };
    }
    let run = RunConfig { time_limit: Some(spec.reference_budget), ..RunConfig::default() };
    let out = engines[q.data].run(&q.pattern, q.variant, PlannerConfig::ri_cluster(), run);
    if out.stats.timed_out {
        Reference { count: None, source: Source::None }
    } else {
        Reference { count: Some(out.count), source: Source::RiCluster }
    }
}

/// Check one completed query's count against its reference; a query
/// without a reference passes unverified.
pub fn check_count(query: &str, got: u64, reference: &Reference) -> Result<(), String> {
    match reference.count {
        Some(want) if want != got => Err(format!(
            "{query}: engine counted {got}, reference ({:?}) counted {want}",
            reference.source
        )),
        _ => Ok(()),
    }
}

/// Check enumerated embeddings: sorted and duplicate-free (as the collect
/// entry point promises), and every `stride`-th one a real embedding of
/// the pattern's edges into the data graph.
pub fn check_embeddings(
    query: &str,
    g: &Graph,
    p: &Graph,
    embeddings: &[Vec<VertexId>],
) -> Result<(), String> {
    if let Some(i) = embeddings.windows(2).position(|w| w[0] >= w[1]) {
        return Err(format!("{query}: embeddings {i} and {} are unsorted or repeated", i + 1));
    }
    let stride = (embeddings.len() / 64).max(1);
    for f in embeddings.iter().step_by(stride) {
        if f.len() != p.n() {
            return Err(format!("{query}: embedding of length {} for {} vertices", f.len(), p.n()));
        }
        for e in p.edges() {
            let (a, b) = (f[e.src as usize], f[e.dst as usize]);
            if !g.has_edge(a, b, e.label, e.directed) {
                return Err(format!("{query}: embedding {f:?} misses pattern edge {e:?}"));
            }
        }
    }
    Ok(())
}
