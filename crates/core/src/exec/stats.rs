//! Execution statistics: what the evaluation section measures per run.
//!
//! Candidates and SCE hits are counted per pattern vertex, one increment
//! per event, and totalled once when a run returns. A vertex's slot means
//! the same in both walks, so the report ([`ExecStats::export`]) reads
//! the series per step of `Φ*` for counts and enumerations alike.

use csce_graph::VertexId;
use csce_obs::MetricsRegistry;

/// Counters collected during one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Embeddings found (count mode: the final count; enumerate mode: the
    /// number of `emit` calls).
    pub embeddings: u64,
    /// Candidate-set reuses via SCE signatures.
    pub sce_cache_hits: u64,
    /// Candidate sets computed from scratch.
    pub candidate_computations: u64,
    /// Candidates tried (post injectivity filter).
    pub candidates_scanned: u64,
    /// Recursion nodes visited.
    pub nodes: u64,
    /// Factorized `Split` nodes evaluated.
    pub splits_taken: u64,
    /// Negation clusters consulted by vertex-induced filtering.
    pub negation_clusters: u64,
    /// Root-candidate chunks claimed from the run's scheduler. Every run
    /// has one, a standalone executor's included, so this is at least 1
    /// whenever the root vertex has a candidate.
    pub chunks_claimed: u64,
    /// The time limit fired; results are partial.
    pub timed_out: bool,
    /// A count or product reached `u64::MAX` and was clamped there, so
    /// the reported count is a lower bound, not the exact answer.
    pub saturated: bool,
    /// Candidates tried per pattern vertex (indexed by vertex id, |V_P|
    /// long); `candidates_scanned` is their sum.
    pub vertex_candidates: Vec<u64>,
    /// SCE cache hits per pattern vertex (indexed by vertex id, |V_P|
    /// long); `sce_cache_hits` is their sum.
    pub vertex_sce_hits: Vec<u64>,
    /// Elements fed into candidate-set intersections.
    pub intersection_input: u64,
    /// Elements surviving multi-way candidate-set intersections.
    pub intersection_output: u64,
}

/// `a + b`, clamped at `u64::MAX`; a clamp sets `saturated`.
#[inline]
pub(crate) fn add_clamped(a: u64, b: u64, saturated: &mut bool) -> u64 {
    a.checked_add(b).unwrap_or_else(|| {
        *saturated = true;
        u64::MAX
    })
}

/// `a · b`, clamped at `u64::MAX`; a clamp sets `saturated`.
#[inline]
pub(crate) fn mul_clamped(a: u64, b: u64, saturated: &mut bool) -> u64 {
    a.checked_mul(b).unwrap_or_else(|| {
        *saturated = true;
        u64::MAX
    })
}

impl ExecStats {
    /// Zeroed counters for a pattern of `n` vertices.
    pub(crate) fn new(n: usize) -> ExecStats {
        let (vertex_candidates, vertex_sce_hits) = (vec![0; n], vec![0; n]);
        ExecStats { vertex_candidates, vertex_sce_hits, ..ExecStats::default() }
    }

    /// Zero every counter, keeping the per-vertex vectors' length and
    /// allocation.
    pub(crate) fn reset(&mut self) {
        let ExecStats { mut vertex_candidates, mut vertex_sce_hits, .. } = std::mem::take(self);
        vertex_candidates.fill(0);
        vertex_sce_hits.fill(0);
        *self = ExecStats { vertex_candidates, vertex_sce_hits, ..ExecStats::default() };
    }

    /// Set `candidates_scanned` and `sce_cache_hits` to the sums of their
    /// per-vertex series, saturating at `u64::MAX`.
    pub(crate) fn total_vertex_counts(&mut self) {
        let sum = |series: &[u64]| series.iter().fold(0u64, |a, &b| a.saturating_add(b));
        self.candidates_scanned = sum(&self.vertex_candidates);
        self.sce_cache_hits = sum(&self.vertex_sce_hits);
    }

    /// Fraction of candidate-set requests served from the SCE cache.
    pub fn sce_hit_rate(&self) -> f64 {
        let total = self.sce_cache_hits + self.candidate_computations;
        if total == 0 {
            0.0
        } else {
            self.sce_cache_hits as f64 / total as f64
        }
    }

    /// Combine another run's counters into this one — the reduction used
    /// for per-worker stats in parallel runs. Counters saturate-add (the
    /// per-worker counters already saturate, so the merge must not
    /// reintroduce overflow), per-vertex series add element-wise, and
    /// `timed_out` and `saturated` are sticky (any worker timing out makes
    /// the merged result partial; an `embeddings` sum that clamps makes it
    /// a lower bound).
    pub fn merge(&mut self, other: &ExecStats) {
        self.embeddings = add_clamped(self.embeddings, other.embeddings, &mut self.saturated);
        self.sce_cache_hits = self.sce_cache_hits.saturating_add(other.sce_cache_hits);
        self.candidate_computations =
            self.candidate_computations.saturating_add(other.candidate_computations);
        self.candidates_scanned = self.candidates_scanned.saturating_add(other.candidates_scanned);
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.splits_taken = self.splits_taken.saturating_add(other.splits_taken);
        self.negation_clusters = self.negation_clusters.saturating_add(other.negation_clusters);
        self.chunks_claimed = self.chunks_claimed.saturating_add(other.chunks_claimed);
        self.intersection_input = self.intersection_input.saturating_add(other.intersection_input);
        self.intersection_output =
            self.intersection_output.saturating_add(other.intersection_output);
        self.timed_out |= other.timed_out;
        self.saturated |= other.saturated;
        add_series(&mut self.vertex_candidates, &other.vertex_candidates);
        add_series(&mut self.vertex_sce_hits, &other.vertex_sce_hits);
    }

    /// Export every counter into a metrics registry under the `exec.`
    /// prefix (the names the `csce match --stats` run report uses). The
    /// per-vertex series are written per step of `order`, the plan's
    /// `Φ*`: `exec.depth_candidates[i]` counts `order[i]`'s candidates.
    pub fn export(&self, order: &[VertexId], m: &mut MetricsRegistry) {
        m.set_counter("exec.embeddings", self.embeddings);
        m.set_counter("exec.sce_cache_hits", self.sce_cache_hits);
        m.set_counter("exec.candidate_computations", self.candidate_computations);
        m.set_counter("exec.candidates_scanned", self.candidates_scanned);
        m.set_counter("exec.nodes", self.nodes);
        m.set_counter("exec.splits_taken", self.splits_taken);
        m.set_counter("exec.negation_clusters", self.negation_clusters);
        m.set_counter("exec.chunks_claimed", self.chunks_claimed);
        m.set_counter("exec.timed_out", self.timed_out as u64);
        m.set_counter("exec.saturated", self.saturated as u64);
        m.set_counter("exec.intersection_input", self.intersection_input);
        m.set_counter("exec.intersection_output", self.intersection_output);
        m.set_gauge("exec.sce_hit_rate", self.sce_hit_rate());
        let per_step = |series: &[u64]| {
            order.iter().map(|&u| series.get(u as usize).copied().unwrap_or(0)).collect()
        };
        m.set_series("exec.depth_candidates", per_step(&self.vertex_candidates));
        m.set_series("exec.depth_sce_hits", per_step(&self.vertex_sce_hits));
    }
}

/// Add `theirs` into `mine` element-wise, saturating, growing `mine` with
/// zeros to `theirs`'s length.
fn add_series(mine: &mut Vec<u64>, theirs: &[u64]) {
    if mine.len() < theirs.len() {
        mine.resize(theirs.len(), 0);
    }
    for (m, &t) in mine.iter_mut().zip(theirs) {
        *m = m.saturating_add(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate() {
        let mut s = ExecStats::default();
        assert_eq!(s.sce_hit_rate(), 0.0);
        s.sce_cache_hits = 3;
        s.candidate_computations = 1;
        assert!((s.sce_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_and_propagates_timeout() {
        let mut a = ExecStats { embeddings: 2, nodes: 10, ..Default::default() };
        let b = ExecStats {
            embeddings: 3,
            nodes: 5,
            timed_out: true,
            vertex_candidates: vec![1, 2],
            vertex_sce_hits: vec![0, 1],
            intersection_input: 7,
            intersection_output: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.embeddings, 5);
        assert_eq!(a.nodes, 15);
        assert!(a.timed_out);
        assert_eq!(a.vertex_candidates, vec![1, 2], "an empty series adopts the other's");
        a.merge(&b);
        assert_eq!(a.vertex_candidates, vec![2, 4]);
        assert_eq!(a.vertex_sce_hits, vec![0, 2]);
        assert_eq!((a.intersection_input, a.intersection_output), (14, 8));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = ExecStats { nodes: u64::MAX - 1, ..Default::default() };
        let b = ExecStats { nodes: 5, chunks_claimed: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.nodes, u64::MAX);
        assert_eq!(a.chunks_claimed, 2);
        let near = ExecStats {
            vertex_candidates: vec![u64::MAX - 1, 1],
            vertex_sce_hits: vec![u64::MAX - 1],
            intersection_input: u64::MAX - 1,
            intersection_output: u64::MAX - 1,
            ..Default::default()
        };
        let mut a = near.clone();
        a.merge(&near);
        assert_eq!(a.vertex_candidates, vec![u64::MAX, 2]);
        assert_eq!(a.vertex_sce_hits, vec![u64::MAX]);
        assert_eq!((a.intersection_input, a.intersection_output), (u64::MAX, u64::MAX));
        a.total_vertex_counts();
        assert_eq!((a.candidates_scanned, a.sce_cache_hits), (u64::MAX, u64::MAX));
    }

    #[test]
    fn merge_flags_a_clamped_embedding_count() {
        let mut a = ExecStats { embeddings: u64::MAX - 1, ..Default::default() };
        a.merge(&ExecStats { embeddings: 1, ..Default::default() });
        assert_eq!(a.embeddings, u64::MAX);
        assert!(!a.saturated, "an exact u64::MAX is not a clamp");
        a.merge(&ExecStats { embeddings: 1, ..Default::default() });
        assert_eq!(a.embeddings, u64::MAX);
        assert!(a.saturated);
        let mut b = ExecStats::default();
        b.merge(&a);
        assert!(b.saturated, "sticky across merges");
        let mut m = MetricsRegistry::new();
        b.export(&[], &mut m);
        assert_eq!(m.counter("exec.saturated"), 1);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let mut s = ExecStats::new(3);
        s.vertex_candidates[1] = 4;
        s.vertex_sce_hits[2] = 1;
        s.nodes = 9;
        s.timed_out = true;
        s.total_vertex_counts();
        assert_eq!((s.candidates_scanned, s.sce_cache_hits), (4, 1));
        let buffer = s.vertex_candidates.as_ptr();
        s.reset();
        assert_eq!(s, ExecStats::new(3));
        assert_eq!(s.vertex_candidates.as_ptr(), buffer, "the allocation is kept");
    }

    #[test]
    fn export_covers_all_counters() {
        let stats = ExecStats {
            embeddings: 1,
            sce_cache_hits: 2,
            candidate_computations: 2,
            vertex_candidates: vec![4, 0, 7],
            vertex_sce_hits: vec![0, 2, 0],
            intersection_input: 5,
            ..Default::default()
        };
        let mut m = MetricsRegistry::new();
        stats.export(&[2, 0, 1], &mut m);
        assert_eq!(m.counter("exec.embeddings"), 1);
        assert_eq!(m.counter("exec.intersection_input"), 5);
        assert_eq!(m.gauge("exec.sce_hit_rate"), Some(0.5));
        assert_eq!(m.series("exec.depth_candidates"), &[7, 4, 0], "one entry per step");
        assert_eq!(m.series("exec.depth_sce_hits"), &[0, 0, 2]);
    }
}
