//! Execution statistics: what the evaluation section measures per run.

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
    /// Per-depth and intersection profiling, present when the run asked
    /// for it (`RunConfig::profile`).
    pub deep: Option<DeepStats>,
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

/// Hot-loop profiling counters, collected only on request because they
/// touch per-depth vectors on every candidate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeepStats {
    /// Candidates scanned at each recursion depth.
    pub depth_candidates: Vec<u64>,
    /// SCE cache hits at each recursion depth.
    pub depth_sce_hits: Vec<u64>,
    /// Total elements fed into candidate-set intersections.
    pub intersection_input: u64,
    /// Total elements surviving those intersections.
    pub intersection_output: u64,
}

impl DeepStats {
    /// Count one event at `depth` of `series`.
    #[inline]
    pub fn bump(series: &mut Vec<u64>, depth: usize) {
        DeepStats::add(series, depth, 1);
    }

    /// Count `n` events at `depth` of `series`, growing it with zeros to
    /// reach `depth` and saturating at `u64::MAX`. Adding 0 leaves the
    /// series as it is, so `add(series, depth, n)` equals `n` bumps.
    #[inline]
    pub fn add(series: &mut Vec<u64>, depth: usize, n: u64) {
        if n == 0 {
            return;
        }
        if series.len() <= depth {
            series.resize(depth + 1, 0);
        }
        if let Some(count) = series.get_mut(depth) {
            *count = count.saturating_add(n);
        }
    }

    fn merge(&mut self, other: &DeepStats) {
        fn add(mine: &mut Vec<u64>, theirs: &[u64]) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, &t) in mine.iter_mut().zip(theirs) {
                *m = m.saturating_add(t);
            }
        }
        add(&mut self.depth_candidates, &other.depth_candidates);
        add(&mut self.depth_sce_hits, &other.depth_sce_hits);
        self.intersection_input = self.intersection_input.saturating_add(other.intersection_input);
        self.intersection_output =
            self.intersection_output.saturating_add(other.intersection_output);
    }
}

impl ExecStats {
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
    /// reintroduce overflow), per-depth series add element-wise, and
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
        self.timed_out |= other.timed_out;
        self.saturated |= other.saturated;
        if let Some(theirs) = &other.deep {
            self.deep.get_or_insert_with(DeepStats::default).merge(theirs);
        }
    }

    /// Export every counter into a metrics registry under the `exec.`
    /// prefix (the names the `csce match --stats` run report uses).
    pub fn export(&self, m: &mut MetricsRegistry) {
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
        m.set_gauge("exec.sce_hit_rate", self.sce_hit_rate());
        if let Some(deep) = &self.deep {
            m.set_series("exec.depth_candidates", deep.depth_candidates.clone());
            m.set_series("exec.depth_sce_hits", deep.depth_sce_hits.clone());
            m.set_counter("exec.intersection_input", deep.intersection_input);
            m.set_counter("exec.intersection_output", deep.intersection_output);
        }
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
            deep: Some(DeepStats {
                depth_candidates: vec![1, 2],
                depth_sce_hits: vec![0, 1],
                intersection_input: 7,
                intersection_output: 4,
            }),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.embeddings, 5);
        assert_eq!(a.nodes, 15);
        assert!(a.timed_out);
        let deep = a.deep.as_ref().expect("deep stats adopted");
        assert_eq!(deep.depth_candidates, vec![1, 2]);
        a.merge(&b);
        assert_eq!(a.deep.as_ref().unwrap().intersection_input, 14);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = ExecStats { nodes: u64::MAX - 1, ..Default::default() };
        let b = ExecStats { nodes: 5, chunks_claimed: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.nodes, u64::MAX);
        assert_eq!(a.chunks_claimed, 2);
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
        b.export(&mut m);
        assert_eq!(m.counter("exec.saturated"), 1);
    }

    #[test]
    fn deep_stats_saturate_instead_of_overflowing() {
        let near = DeepStats {
            depth_candidates: vec![u64::MAX - 1, 1],
            depth_sce_hits: vec![u64::MAX - 1],
            intersection_input: u64::MAX - 1,
            intersection_output: u64::MAX - 1,
        };
        let mut a = ExecStats { deep: Some(near.clone()), ..Default::default() };
        a.merge(&ExecStats { deep: Some(near), ..Default::default() });
        let deep = a.deep.as_mut().expect("deep stats kept");
        assert_eq!(deep.depth_candidates, vec![u64::MAX, 2]);
        assert_eq!(deep.depth_sce_hits, vec![u64::MAX]);
        assert_eq!((deep.intersection_input, deep.intersection_output), (u64::MAX, u64::MAX));
        DeepStats::bump(&mut deep.depth_candidates, 0);
        DeepStats::bump(&mut deep.depth_candidates, 2);
        assert_eq!(deep.depth_candidates, vec![u64::MAX, 2, 1]);
    }

    #[test]
    fn add_grows_the_series_and_saturates() {
        let mut series = Vec::new();
        DeepStats::add(&mut series, 2, 0);
        assert!(series.is_empty(), "adding zero grows nothing");
        DeepStats::add(&mut series, 2, 5);
        assert_eq!(series, vec![0, 0, 5]);
        DeepStats::add(&mut series, 0, 3);
        DeepStats::add(&mut series, 2, u64::MAX - 6);
        assert_eq!(series, vec![3, 0, u64::MAX - 1]);
        DeepStats::add(&mut series, 2, 2);
        assert_eq!(series, vec![3, 0, u64::MAX]);
        let mut bumped = Vec::new();
        for _ in 0..4 {
            DeepStats::bump(&mut bumped, 1);
        }
        let mut added = Vec::new();
        DeepStats::add(&mut added, 1, 4);
        assert_eq!(bumped, added, "n bumps equal one add of n");
    }

    #[test]
    fn export_covers_all_counters() {
        let stats = ExecStats {
            embeddings: 1,
            sce_cache_hits: 2,
            candidate_computations: 2,
            deep: Some(DeepStats { depth_candidates: vec![4], ..Default::default() }),
            ..Default::default()
        };
        let mut m = MetricsRegistry::new();
        stats.export(&mut m);
        assert_eq!(m.counter("exec.embeddings"), 1);
        assert_eq!(m.gauge("exec.sce_hit_rate"), Some(0.5));
        assert_eq!(m.series("exec.depth_candidates"), &[4]);
    }
}
