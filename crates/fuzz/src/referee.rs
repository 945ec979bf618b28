//! The differential referee sweep.
//!
//! For each case the referees are ranked by trust: the brute-force oracle
//! is ground truth; the engine — swept across every planner preset
//! ([`PlannerConfig::ALL`], recorded by its [`PlannerConfig::name`] token),
//! SCE / factorization toggle and thread count — must match it exactly; each
//! baseline that declares support for the task must match it too (unless
//! its time limit fires, which only skips that probe). The first
//! disagreement is returned as a [`Divergence`] for shrinking.

use csce_baselines::all_baselines;
use csce_core::{Engine, PlannerConfig, RunConfig};
use csce_graph::{oracle_count, Graph, Variant};
use csce_obs::Recorder;
use std::time::Duration;

/// One point of the engine configuration matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// One of the four planner presets: the sweep exercises plans with and
    /// without class sharing, cluster tie-breaks and the LDSF reorder.
    pub planner: PlannerConfig,
    pub use_sce_cache: bool,
    pub factorize: bool,
    pub threads: usize,
}

impl EngineConfig {
    /// The full sweep: every planner preset × cache toggle × factorization
    /// toggle × thread count.
    pub fn matrix(thread_counts: &[usize]) -> Vec<EngineConfig> {
        let mut out = Vec::new();
        for &threads in thread_counts {
            for planner in PlannerConfig::ALL {
                for use_sce_cache in [true, false] {
                    for factorize in [true, false] {
                        out.push(EngineConfig { planner, use_sce_cache, factorize, threads });
                    }
                }
            }
        }
        out
    }

    /// The runtime switches of this probe.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            use_sce_cache: self.use_sce_cache,
            factorize: self.factorize,
            ..RunConfig::default()
        }
    }

    /// Report / `.repro` label, e.g.
    /// `engine[planner=csce cache=false factorize=true threads=4]`.
    pub fn label(&self) -> String {
        format!(
            "engine[planner={} cache={} factorize={} threads={}]",
            self.planner.name(),
            self.use_sce_cache,
            self.factorize,
            self.threads
        )
    }
}

/// The system whose counts are being checked against the oracle. The
/// production implementation is [`RealEngine`]; tests substitute
/// [`InjectedBugEngine`] to prove the harness catches and shrinks a
/// deliberately wrong engine.
pub trait EngineUnderTest {
    /// Count embeddings of `p` in `g` under `variant` with `config`.
    fn count(
        &self,
        g: &Graph,
        p: &Graph,
        variant: Variant,
        config: &EngineConfig,
    ) -> Result<u64, String>;
}

/// The actual CSCE engine.
pub struct RealEngine;

impl EngineUnderTest for RealEngine {
    fn count(
        &self,
        g: &Graph,
        p: &Graph,
        variant: Variant,
        config: &EngineConfig,
    ) -> Result<u64, String> {
        let engine = Engine::try_build(g).map_err(|e| e.to_string())?;
        let recorder = Recorder::disabled();
        let query =
            engine.prepare(p, variant, config.planner, &recorder).map_err(|e| e.to_string())?;
        let out = query.count(config.run_config(), config.threads, None);
        out.map(|out| out.count).map_err(|e| e.to_string())
    }
}

/// A deliberately broken engine: over-counts by one whenever the real
/// edge-induced factorized count is positive. Exists so the harness (and
/// its acceptance test) can demonstrate end-to-end that an engine bug is
/// caught, shrunk and written out as a replayable repro.
pub struct InjectedBugEngine;

impl EngineUnderTest for InjectedBugEngine {
    fn count(
        &self,
        g: &Graph,
        p: &Graph,
        variant: Variant,
        config: &EngineConfig,
    ) -> Result<u64, String> {
        let count = RealEngine.count(g, p, variant, config)?;
        if variant == Variant::EdgeInduced && config.factorize && count > 0 {
            Ok(count + 1)
        } else {
            Ok(count)
        }
    }
}

/// What a referee reported for one probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observed {
    /// A completed count.
    Count(u64),
    /// The probe failed outright (e.g. a worker panic surfaced as
    /// [`csce_core::ExecError`]) — treated as a divergence.
    Error(String),
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observed::Count(c) => write!(f, "{c}"),
            Observed::Error(e) => write!(f, "error: {e}"),
        }
    }
}

/// Which referee disagreed with the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Referee {
    /// The engine under one configuration.
    Engine(EngineConfig),
    /// A baseline, by its registry name.
    Baseline(String),
}

impl Referee {
    /// Report label.
    pub fn label(&self) -> String {
        match self {
            Referee::Engine(cfg) => cfg.label(),
            Referee::Baseline(name) => format!("baseline:{name}"),
        }
    }
}

/// A disagreement between the oracle and one referee.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub variant: Variant,
    pub referee: Referee,
    /// The oracle's ground-truth count.
    pub expected: u64,
    /// What the referee reported instead.
    pub observed: Observed,
}

/// Knobs of one sweep.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Thread counts of the engine matrix (the serial `1` plus the
    /// parallel probes).
    pub thread_counts: Vec<usize>,
    /// Per-baseline probe budget; a fired limit skips the probe rather
    /// than reporting its partial count.
    pub baseline_time_limit: Option<Duration>,
    /// Probe the baselines at all.
    pub check_baselines: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            thread_counts: vec![1, 4],
            baseline_time_limit: Some(Duration::from_secs(2)),
            check_baselines: true,
        }
    }
}

/// Work counters of a sweep, accumulated across cases for the final
/// report.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    pub engine_runs: u64,
    pub baseline_runs: u64,
    pub baseline_timeouts: u64,
}

/// Run every referee against the oracle for one case; the first
/// disagreement wins.
pub fn sweep(
    g: &Graph,
    p: &Graph,
    engine: &dyn EngineUnderTest,
    opts: &SweepOpts,
    stats: &mut SweepStats,
) -> Option<Divergence> {
    let matrix = EngineConfig::matrix(&opts.thread_counts);
    for variant in Variant::ALL {
        let expected = oracle_count(g, p, variant);
        for config in &matrix {
            stats.engine_runs += 1;
            let observed = match engine.count(g, p, variant, config) {
                Ok(count) if count == expected => continue,
                Ok(count) => Observed::Count(count),
                Err(e) => Observed::Error(e),
            };
            return Some(Divergence {
                variant,
                referee: Referee::Engine(*config),
                expected,
                observed,
            });
        }
        if opts.check_baselines {
            for baseline in all_baselines() {
                if !baseline.supports(g, p, variant) {
                    continue;
                }
                stats.baseline_runs += 1;
                let result = baseline.count(g, p, variant, opts.baseline_time_limit);
                if result.timed_out {
                    stats.baseline_timeouts += 1;
                    continue;
                }
                if result.count != expected {
                    return Some(Divergence {
                        variant,
                        referee: Referee::Baseline(baseline.name().to_string()),
                        expected,
                        observed: Observed::Count(result.count),
                    });
                }
            }
        }
    }
    None
}

/// Re-run exactly one referee for the shrinker / replayer: the oracle's
/// fresh ground truth plus the referee's report on `(g, p)`.
pub fn probe(
    g: &Graph,
    p: &Graph,
    variant: Variant,
    referee: &Referee,
    engine: &dyn EngineUnderTest,
    baseline_time_limit: Option<Duration>,
) -> (u64, Observed) {
    let expected = oracle_count(g, p, variant);
    let observed = match referee {
        Referee::Engine(config) => match engine.count(g, p, variant, config) {
            Ok(count) => Observed::Count(count),
            Err(e) => Observed::Error(e),
        },
        Referee::Baseline(name) => {
            match all_baselines().into_iter().find(|b| b.name() == name.as_str()) {
                Some(baseline) if baseline.supports(g, p, variant) => {
                    let result = baseline.count(g, p, variant, baseline_time_limit);
                    if result.timed_out {
                        // An inconclusive probe must not count as "still
                        // diverging", so report agreement.
                        Observed::Count(expected)
                    } else {
                        Observed::Count(result.count)
                    }
                }
                // Shrinking may leave the task outside the baseline's
                // capability matrix; that is agreement, not divergence.
                Some(_) => Observed::Count(expected),
                None => Observed::Error(format!("unknown baseline {name:?}")),
            }
        }
    };
    (expected, observed)
}

/// Whether a probe outcome is a divergence.
pub fn diverges(expected: u64, observed: &Observed) -> bool {
    match observed {
        Observed::Count(c) => *c != expected,
        Observed::Error(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case;

    #[test]
    fn matrix_covers_all_toggles() {
        let matrix = EngineConfig::matrix(&[1, 4]);
        assert_eq!(matrix.len(), 4 * 2 * 2 * 2);
        assert!(matrix.iter().any(|c| c.threads == 4 && !c.use_sce_cache && !c.factorize));
        assert!(matrix.iter().any(|c| c.planner == PlannerConfig::ldsf()));
    }

    #[test]
    fn clean_case_produces_no_divergence() {
        let case = case::generate(11, 3);
        let mut stats = SweepStats::default();
        let div = sweep(&case.data, &case.pattern, &RealEngine, &SweepOpts::default(), &mut stats);
        assert!(div.is_none(), "unexpected divergence: {div:?}");
        assert!(stats.engine_runs > 0);
    }

    #[test]
    fn injected_bug_is_detected() {
        let case = case::generate(11, 3);
        let mut stats = SweepStats::default();
        let div =
            sweep(&case.data, &case.pattern, &InjectedBugEngine, &SweepOpts::default(), &mut stats)
                .expect("sabotaged engine must diverge");
        assert_eq!(div.variant, Variant::EdgeInduced);
        assert!(matches!(div.referee, Referee::Engine(_)));
        assert!(diverges(div.expected, &div.observed));
    }
}
