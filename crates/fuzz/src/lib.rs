//! `csce-fuzz`: seeded differential testing for the CSCE engine.
//!
//! The harness generates random `(data graph, pattern)` cases
//! ([`case::generate`]), sweeps every match variant through the full
//! engine configuration matrix, the baselines and the brute-force oracle
//! ([`referee::sweep`]), stops at the first divergence, minimizes it
//! ([`shrink::shrink_case`]) and packages the result as a replayable
//! `.repro` file ([`repro::Repro`]) whose graphs are re-validated by the
//! `csce-analyze` checkers before being reported. The `csce fuzz` CLI
//! subcommand is a thin wrapper over [`run_fuzz`].

#![forbid(unsafe_code)]

pub mod case;
pub mod referee;
pub mod repro;
pub mod shrink;

use csce_analyze::{plan_check, Validate, ValidationReport};
use csce_core::Engine;
use csce_obs::Recorder;
use referee::{sweep, EngineUnderTest, Referee, SweepOpts, SweepStats};
use repro::Repro;

/// Parameters of one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of cases to generate and sweep.
    pub runs: u64,
    /// Master seed; the whole run is a pure function of this.
    pub seed: u64,
    /// The knobs every case's sweep runs with.
    pub sweep: SweepOpts,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { runs: 200, seed: 42, sweep: SweepOpts::default() }
    }
}

/// A caught, shrunk and validated divergence.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Flavor description of the originating case.
    pub descr: String,
    /// The minimized repro, ready to write to disk.
    pub repro: Repro,
    /// `csce-analyze` validation of the shrunk graphs (and plan, for
    /// engine referees) — a repro over corrupt structures would point at
    /// the shrinker, not the engine.
    pub validation: ValidationReport,
}

/// What a fuzzing run did and found.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    pub cases_run: u64,
    pub stats: SweepStats,
    /// The first divergence, if any.
    pub failure: Option<FuzzFailure>,
}

/// Run the harness: generate cases, sweep referees, stop on the first
/// divergence, shrink and validate it. `log` receives one progress line
/// per phase change (suitable for stderr).
pub fn run_fuzz(
    config: &FuzzConfig,
    engine: &dyn EngineUnderTest,
    log: &mut dyn FnMut(&str),
) -> FuzzOutcome {
    let mut stats = SweepStats::default();
    for index in 0..config.runs {
        let case = case::generate(config.seed, index);
        if index > 0 && index % 50 == 0 {
            log(&format!("case {index}/{}", config.runs));
        }
        let Some(div) = sweep(&case.data, &case.pattern, engine, &config.sweep, &mut stats) else {
            continue;
        };
        log(&format!(
            "divergence at case {index} [{}]: variant {:?}, {} reported {} (oracle: {})",
            case.descr,
            div.variant,
            div.referee.label(),
            div.observed,
            div.expected
        ));
        log("shrinking...");
        let limit = config.sweep.baseline_time_limit;
        let (sg, sp) = shrink::shrink_case(
            &case.data,
            &case.pattern,
            div.variant,
            &div.referee,
            engine,
            limit,
        );
        let (expected, observed) =
            referee::probe(&sg, &sp, div.variant, &div.referee, engine, limit);
        log(&format!(
            "shrunk to data n={} m={}, pattern n={} m={}",
            sg.n(),
            sg.m(),
            sp.n(),
            sp.m()
        ));
        let mut validation = sg.validate();
        validation.merge(sp.validate());
        if let Referee::Engine(cfg) = &div.referee {
            let engine = Engine::build(&sg);
            let recorder = Recorder::disabled();
            match engine.prepare(&sp, div.variant, cfg.planner, &recorder) {
                Ok(query) => {
                    validation.merge(plan_check::validate_plan(&query.catalog(), query.plan()))
                }
                Err(err) => log(&format!("shrunk pattern not plannable: {err}")),
            }
        }
        let repro = Repro {
            seed: config.seed,
            case: index,
            variant: div.variant,
            referee: div.referee,
            expected,
            observed,
            data: sg,
            pattern: sp,
        };
        return FuzzOutcome {
            cases_run: index + 1,
            stats,
            failure: Some(FuzzFailure { descr: case.descr, repro, validation }),
        };
    }
    FuzzOutcome { cases_run: config.runs, stats, failure: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee::{InjectedBugEngine, RealEngine};

    #[test]
    fn clean_run_has_no_failure() {
        let config = FuzzConfig { runs: 10, seed: 1, ..FuzzConfig::default() };
        let outcome = run_fuzz(&config, &RealEngine, &mut |_| {});
        assert!(outcome.failure.is_none(), "unexpected failure: {:?}", outcome.failure);
        assert_eq!(outcome.cases_run, 10);
        assert!(outcome.stats.engine_runs >= 10 * 3);
    }

    #[test]
    fn injected_bug_is_caught_shrunk_and_validated() {
        let sweep = SweepOpts { check_baselines: false, ..SweepOpts::default() };
        let config = FuzzConfig { runs: 64, seed: 42, sweep };
        let outcome = run_fuzz(&config, &InjectedBugEngine, &mut |_| {});
        let failure = outcome.failure.expect("sabotaged engine must be caught");
        assert!(failure.repro.data.n() <= 8, "repro too large: {}", failure.repro.data.n());
        assert!(
            referee::diverges(failure.repro.expected, &failure.repro.observed),
            "recorded repro must diverge"
        );
        assert!(failure.validation.is_ok(), "shrunk repro failed validation");
        let text = failure.repro.to_text().expect("serialize");
        let back = Repro::parse(&text).expect("round trip");
        let report = repro::replay(&back, &InjectedBugEngine);
        assert!(report.reproduces, "replay must reproduce against the buggy engine");
        let fixed = repro::replay(&back, &RealEngine);
        assert!(!fixed.reproduces, "real engine must pass the repro");
    }
}
