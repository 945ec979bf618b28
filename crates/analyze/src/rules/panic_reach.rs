//! Rules `panic-reach` and `no-panic`: panic sites transitively
//! reachable from the certified match-engine entry points, and the
//! explicit panics (`.unwrap()`, `.expect(…)`, `panic!`) everywhere else
//! in library code. A site is reported by exactly one of the two: hot
//! sites are `panic-reach` findings with a witness chain, cold explicit
//! panics are `no-panic` findings, and cold indexing, division and
//! invariant macros (`assert!`, `unreachable!`) are not findings.
//!
//! The entry-point list below *is* the certification surface: the WCOJ
//! recursion (`Executor::scan`/`try_candidate`/`walk` and the drivers
//! above them), the work-stealing scheduler's chunk-claim/stop/deadline
//! path, the worker driver (`run_parallel`) and the entry points above it
//! (`count_parallel_observed`, and `collect_parallel` with, through it,
//! `collect_with_limit`, the one collect body that the first-`k` collect
//! shares). Every entry is pinned to `crates/core/src/exec/` so a
//! same-named function elsewhere cannot widen or shadow the surface, and
//! an entry that no longer resolves is itself a finding — renaming a hot
//! function without updating the list fails CI instead of silently
//! un-certifying it.

use crate::callgraph::Workspace;
use crate::reach::{reach, EntryPoint, Reachability};
use crate::rules::Finding;

/// File prefix every certified entry must be defined under.
pub const ENTRY_PREFIX: &str = "crates/core/src/exec/";

/// The certified executor entry points.
pub const ENTRY_POINTS: [&str; 16] = [
    // Sequential drivers and the WCOJ recursion (Algorithm 4).
    "Executor::count",
    "Executor::drive",
    "Executor::enumerate",
    "Executor::scan",
    "Executor::try_candidate",
    "Executor::walk",
    "Executor::count_node",
    "Executor::check_deadline",
    // Work-stealing scheduler: chunk claim, stop, deadline.
    "Scheduler::claim",
    "Scheduler::request_stop",
    "Scheduler::stop_once",
    "Scheduler::stopped",
    "Scheduler::deadline",
    // Parallel entry points.
    "run_parallel",
    "count_parallel_observed",
    "collect_parallel",
];

/// Run both rules: one `panic-reach` finding per panic site in a
/// reachable function and per certified entry that no longer resolves,
/// one `no-panic` finding per explicit panic in an unreachable function.
/// Returns the reachability result too so the driver can report
/// call-graph scale.
pub fn run(ws: &Workspace, adj: &[Vec<usize>]) -> (Vec<Finding>, Reachability) {
    let entries: Vec<EntryPoint> =
        ENTRY_POINTS.iter().map(|q| EntryPoint { qual: q, file_prefix: ENTRY_PREFIX }).collect();
    let r = reach(ws, adj, &entries);
    let mut findings = Vec::new();
    for missing in &r.missing {
        findings.push(Finding {
            rule: "panic-reach",
            fn_path: missing.clone(),
            file: "<entry-point-list>".to_string(),
            line: 0,
            msg: "certified entry point no longer resolves to a function under \
                  crates/core/src/exec/ — update the list in rules/panic_reach.rs"
                .to_string(),
        });
    }
    for (idx, f) in ws.fns.iter().enumerate() {
        let hot = r.reachable[idx];
        for site in &f.sites {
            let (rule, msg) = if hot && site.kind.is_panic() {
                let chain = r.chain(ws, idx);
                (
                    "panic-reach",
                    format!("{} {} reachable via {chain}", site.kind.label(), site.what),
                )
            } else if !hot && site.is_explicit_panic() {
                let msg = format!(
                    "{} in library code; return a Result or justify it in the baseline",
                    site.what
                );
                ("no-panic", msg)
            } else {
                continue;
            };
            findings.push(Finding {
                rule,
                fn_path: f.qual_name.clone(),
                file: f.file.clone(),
                line: site.line,
                msg,
            });
        }
    }
    (findings, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_sites_in_reachable_fns_only() {
        let mut ws = Workspace::default();
        ws.parse_file(
            "crates/core/src/exec/engine.rs",
            "//! d\nstruct Executor;\nimpl Executor {\n  fn walk(&mut self) { helper(); }\n}\nfn helper(v: &[u64]) -> u64 { v[0] }\nfn cold() -> u64 { Some(1).unwrap() }\n",
        );
        let adj = ws.resolve();
        let (findings, r) = run(&ws, &adj);
        // `helper` is reachable from walk; `cold` is not. The other 15
        // entries are missing in this tiny fixture.
        let site_findings: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "panic-reach" && f.file != "<entry-point-list>")
            .collect();
        assert_eq!(site_findings.len(), 1);
        assert_eq!(site_findings[0].fn_path, "helper");
        assert!(
            site_findings[0].msg.contains("Executor::walk > helper"),
            "{}",
            site_findings[0].msg
        );
        assert_eq!(r.missing.len(), ENTRY_POINTS.len() - 1);
        assert_eq!(
            findings.iter().filter(|f| f.file == "<entry-point-list>").count(),
            ENTRY_POINTS.len() - 1
        );
    }

    #[test]
    fn each_panic_site_has_exactly_one_rule() {
        let mut ws = Workspace::default();
        ws.parse_file(
            "crates/core/src/exec/engine.rs",
            "//! d\nstruct Executor;\nimpl Executor {\n  fn walk(&mut self) { Some(1).unwrap(); }\n}\n\
             fn cold(v: &[u64]) -> u64 { assert!(v.len() > 1); v[0] / v[1] + Some(1).expect(\"x\") }\n",
        );
        let adj = ws.resolve();
        let (findings, _) = run(&ws, &adj);
        let sites: Vec<(&str, &str, u32)> = findings
            .iter()
            .filter(|f| f.file != "<entry-point-list>")
            .map(|f| (f.rule, f.fn_path.as_str(), f.line))
            .collect();
        // The reachable unwrap is `panic-reach` only; the cold function's
        // `.expect` is `no-panic`, its assert, index and division nothing.
        assert_eq!(sites, vec![("panic-reach", "Executor::walk", 4), ("no-panic", "cold", 6)]);
    }

    #[test]
    fn entries_outside_exec_do_not_certify() {
        let mut ws = Workspace::default();
        ws.parse_file(
            "crates/baselines/src/common.rs",
            "//! d\nfn count_parallel_observed() { Some(1).unwrap(); }\n",
        );
        let adj = ws.resolve();
        let (findings, r) = run(&ws, &adj);
        assert_eq!(r.count(), 0);
        let cold: Vec<&str> =
            findings.iter().filter(|f| f.file != "<entry-point-list>").map(|f| f.rule).collect();
        assert_eq!(cold, vec!["no-panic"]);
    }
}
