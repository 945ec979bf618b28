//! # csce-obs
//!
//! Zero-dependency observability for the CSCE engine: the measurement
//! substrate behind `csce match --stats`, the `perfbench` layer timings,
//! and every perf claim later PRs make.
//!
//! Three pieces, combinable but independent:
//!
//! * [`Recorder`] / [`Span`] — nestable, thread-aware phase timers
//!   collecting a tree of wall-clock durations (`load → parse`,
//!   `plan → gcf/dag/nec/tree`, ...). A [`Recorder::disabled`] recorder
//!   reduces every span to a single branch, so library code can thread
//!   one unconditionally.
//! * [`MetricsRegistry`] — named counters, gauges and per-depth series
//!   with deterministic (sorted) export and a worker-merge reduction.
//! * [`RunReport`] — meta + phases + metrics, exported as an aligned text
//!   block or JSON via the built-in [`json`] writer/parser (serde is not
//!   available in the build environment, and report validity is covered
//!   by parsing our own output back).

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metrics::MetricsRegistry;
pub use report::RunReport;
pub use span::{PhaseNode, PhaseTree, Recorder, Span};

use std::time::Duration;

/// Format a duration the way the paper's plots do (log-scale friendly).
pub fn format_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(format_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(format_duration(Duration::from_micros(250)), "250.0us");
        assert_eq!(format_duration(Duration::from_millis(2)), "2.0ms");
        assert_eq!(format_duration(Duration::from_secs(3)), "3.00s");
    }
}
