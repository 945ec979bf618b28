//! # perfbench
//!
//! The repository benchmark: three seeded closed-loop workloads over the
//! CSCE engine's public API, an end-to-end (untraced) run, a traced run
//! that times each layer from outside, and a correctness gate that checks
//! every completed answer against an independent reference.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints one `name = value unit` line per metric and, last, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

pub mod alloc;
pub mod gate;
pub mod measure;
pub mod report;
pub mod workload;

use measure::Bench;
pub use workload::{Scale, Workload};

use std::time::Duration;

/// What one invocation prints: the text lines (metrics, then the counter
/// block of a traced run) and the final JSON line.
pub struct Printed {
    pub text: String,
    pub json: String,
}

/// Run one workload end to end: set up, measure for `seconds`, check the
/// answers and render the result. `Err` carries a failed correctness check
/// or set-up error; no metrics are produced then.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Printed, String> {
    let mut bench = Bench::prepare(workload, seed, scale)?;
    let budget = Duration::from_secs_f64(seconds);
    let (outcome, block) =
        if trace { bench.per_layer(budget)? } else { (bench.end_to_end(budget)?, String::new()) };
    Ok(Printed { text: outcome.text() + &block, json: outcome.json() })
}

/// The untraced run of one workload split over `parts` processes of the
/// benchmark binary `exe`, run one after another (see
/// [`Bench::end_to_end_in_parts`]); this process samples, admits and
/// checks the queries.
pub fn run_in_parts(
    exe: &std::path::Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    parts: u32,
) -> Result<Printed, String> {
    let mut bench = Bench::prepare(workload, seed, Scale::Full)?;
    let outcome = bench.end_to_end_in_parts(exe, Duration::from_secs_f64(seconds), parts)?;
    Ok(Printed { text: outcome.text(), json: outcome.json() })
}

/// One part of [`run_in_parts`]: set up, admit the sampled queries at
/// `admitted`, run the loop for `seconds` and return the lines the parent
/// reads.
pub fn run_part(
    workload: Workload,
    seed: u64,
    seconds: f64,
    admitted: &[usize],
) -> Result<String, String> {
    let mut bench = Bench::prepare_admitted(workload, seed, Scale::Full, Some(admitted))?;
    bench.part_report(Duration::from_secs_f64(seconds))
}
