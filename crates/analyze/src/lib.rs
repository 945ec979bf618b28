//! # csce-analyze
//!
//! Structural invariant checking and static source analysis for the CSCE
//! workspace — the validation layer the paper's correctness arguments
//! assume but the production code never re-checks.
//!
//! Two parts:
//!
//! * **Runtime structural analysis** — the [`Validate`] trait plus deep,
//!   from-scratch checkers for the graph and plan structures:
//!   [`csce_graph::Graph`] (adjacency symmetry, degrees, edge uniqueness) and
//!   [`csce_core::Plan`] / dependency DAGs (Algorithms 2–4: acyclicity,
//!   descendant sizes recomputed independently, order coverage, NEC class
//!   soundness), in [`graph_check`] and [`plan_check`]. The checkers
//!   deliberately re-derive every property from first principles rather
//!   than calling the production code paths they audit. A `G_C` has no
//!   checker here: `csce_ccsr::Ccsr::check` is its one structural check,
//!   and decoding runs it on every file.
//! * **Static source analysis** — [`callgraph`], [`reach`] and [`rules`]:
//!   one zero-dependency pass lexes each library file once, builds a
//!   crate-aware workspace call graph, and derives all seven source-policy
//!   rules from it — panic-freedom of the executor entry points
//!   (`panic-reach`) and no explicit panics elsewhere (`no-panic`), narrow
//!   casts on the hot path (`hot-cast`) and elsewhere (`lossy-cast`),
//!   shared-state fields against the declared-ordering manifest
//!   (`shared-state`), wildcard arms over `Variant`/`Orient`
//!   (`wildcard-variant-arm`) and module docs (`module-doc`). Findings
//!   ratchet per function against the one baseline,
//!   `scripts/static-baseline.txt`, and export as SARIF through the
//!   `csce-lint` binary.
//!
//! [`counters`] holds the work-counter ratchet that
//! `scripts/check-counters.sh` runs through the `counter-ratchet` binary.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod counters;
pub mod graph_check;
pub mod plan_check;
pub mod reach;
pub mod rules;
mod tokens;

/// Cap on the number of per-violation detail strings a report retains;
/// counts stay exact beyond it, details are dropped (a badly corrupted
/// structure can otherwise produce millions of identical messages).
pub const MAX_DETAILS: usize = 64;

/// One broken invariant, attributed to the checker that found it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Dotted checker identifier, e.g. `"graph.adjacency-symmetry"`.
    pub checker: &'static str,
    /// Human-readable description with enough context to locate the damage.
    pub detail: String,
}

/// Outcome of validating one structure: which checkers ran and what each
/// found. A structure is valid iff every checker found zero violations.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// What was validated (e.g. a file path or a structure description).
    pub subject: String,
    /// `(checker, violation count)` for every checker that ran, in run
    /// order — zero-count entries prove the check happened.
    checks: Vec<(&'static str, u64)>,
    /// Detailed messages, capped at [`MAX_DETAILS`].
    details: Vec<Violation>,
}

impl ValidationReport {
    pub fn new(subject: impl Into<String>) -> ValidationReport {
        ValidationReport { subject: subject.into(), checks: Vec::new(), details: Vec::new() }
    }

    /// Register a checker as having run (idempotent).
    pub fn ran(&mut self, checker: &'static str) {
        if !self.checks.iter().any(|(name, _)| *name == checker) {
            self.checks.push((checker, 0));
        }
    }

    /// Record one violation found by `checker`.
    pub fn violation(&mut self, checker: &'static str, detail: impl Into<String>) {
        self.ran(checker);
        for (name, count) in &mut self.checks {
            if *name == checker {
                *count += 1;
            }
        }
        if self.details.len() < MAX_DETAILS {
            self.details.push(Violation { checker, detail: detail.into() });
        }
    }

    /// Whether every checker passed.
    pub fn is_ok(&self) -> bool {
        self.total_violations() == 0
    }

    /// Total violations across all checkers (exact even past the detail cap).
    pub fn total_violations(&self) -> u64 {
        self.checks.iter().map(|(_, c)| c).sum()
    }

    /// Number of distinct checkers that ran.
    pub fn checks_run(&self) -> usize {
        self.checks.len()
    }

    /// `(checker, violation count)` pairs in run order.
    pub fn checks(&self) -> &[(&'static str, u64)] {
        &self.checks
    }

    /// Retained violation details (capped at [`MAX_DETAILS`]).
    pub fn details(&self) -> &[Violation] {
        &self.details
    }

    /// Fold another report's checks and details into this one.
    pub fn merge(&mut self, other: ValidationReport) {
        for (checker, count) in other.checks {
            self.ran(checker);
            for (name, total) in &mut self.checks {
                if *name == checker {
                    *total += count;
                }
            }
        }
        for v in other.details {
            if self.details.len() < MAX_DETAILS {
                self.details.push(v);
            }
        }
    }

    /// Export as a `csce-obs` run report: metadata identifies the subject
    /// and verdict, counters carry per-checker violation counts, and the
    /// retained details ride along as numbered metadata entries.
    pub fn to_run_report(&self) -> csce_obs::RunReport {
        let mut report = csce_obs::RunReport::new();
        report
            .meta("tool", "csce-analyze")
            .meta("subject", &self.subject)
            .meta("verdict", if self.is_ok() { "PASS" } else { "FAIL" })
            .meta("checks_run", self.checks_run())
            .meta("violations", self.total_violations());
        for (i, v) in self.details.iter().enumerate() {
            report.meta(&format!("violation.{i}"), format!("[{}] {}", v.checker, v.detail));
        }
        let dropped = self.total_violations() as i128 - self.details.len() as i128;
        if dropped > 0 {
            report.meta("violations_dropped", dropped);
        }
        for (checker, count) in &self.checks {
            report.metrics.set_counter(&format!("violations.{checker}"), *count);
        }
        report
    }
}

/// Deep structural validation: re-derive every invariant the structure is
/// supposed to maintain and report what holds.
pub trait Validate {
    /// Run every applicable checker and collect the findings.
    fn validate(&self) -> ValidationReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_checks_and_violations() {
        let mut r = ValidationReport::new("unit");
        r.ran("a.one");
        r.ran("a.one");
        assert!(r.is_ok());
        assert_eq!(r.checks_run(), 1);
        r.violation("a.two", "broke");
        assert!(!r.is_ok());
        assert_eq!(r.checks_run(), 2);
        assert_eq!(r.total_violations(), 1);
        assert_eq!(r.details()[0].checker, "a.two");
    }

    #[test]
    fn detail_cap_keeps_counts_exact() {
        let mut r = ValidationReport::new("unit");
        for i in 0..(MAX_DETAILS + 10) {
            r.violation("x", format!("v{i}"));
        }
        assert_eq!(r.total_violations(), (MAX_DETAILS + 10) as u64);
        assert_eq!(r.details().len(), MAX_DETAILS);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ValidationReport::new("a");
        a.violation("c1", "x");
        let mut b = ValidationReport::new("b");
        b.violation("c1", "y");
        b.ran("c2");
        a.merge(b);
        assert_eq!(a.total_violations(), 2);
        assert_eq!(a.checks_run(), 2);
    }

    #[test]
    fn run_report_exports_verdict() {
        let mut r = ValidationReport::new("unit");
        r.ran("ok.check");
        let text = r.to_run_report().to_text();
        assert!(text.contains("PASS"), "{text}");
        r.violation("bad.check", "boom");
        let text = r.to_run_report().to_text();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("boom"), "{text}");
    }
}
