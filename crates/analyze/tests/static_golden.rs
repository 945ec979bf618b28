//! Golden-file test for the source-policy analyzer: the SARIF document
//! produced over the `tests/fixtures/mini` workspace is pinned
//! byte-for-byte, so any change to parsing, reachability, rule logic or
//! the SARIF encoding shows up as a reviewable golden diff.
//!
//! Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p csce-analyze --test static_golden`.

use csce_analyze::rules::{run_static, to_sarif, StaticBaseline};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini.sarif.json")
}

#[test]
fn mini_fixture_findings_are_the_designed_seven() {
    let report = run_static(&fixture_root()).unwrap();
    // All 16 certified entry points resolve in the fixture, so there are
    // no missing-entry findings — only the planted defects.
    assert_eq!(report.entries_found, 16);
    let by_rule = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    assert_eq!(by_rule("panic-reach"), 2, "lookup[] and chunk's division");
    assert_eq!(by_rule("hot-cast"), 1, "narrow's `as u32`");
    assert_eq!(by_rule("shared-state"), 2, "Executor.budget + stale Scheduler.gone");
    // The unreachable decoys are not hot-path findings; since `no-panic`
    // and `lossy-cast` share the pass, they are reported under those two
    // rules instead, each exactly once.
    let rule_of = |fn_path: &str| -> Vec<&str> {
        report.findings.iter().filter(|f| f.fn_path == fn_path).map(|f| f.rule).collect()
    };
    assert_eq!(rule_of("cold"), vec!["no-panic"], "cold's `panic!`");
    assert_eq!(rule_of("cold_cast"), vec!["lossy-cast"], "cold_cast's `as u32`");
    assert_eq!(by_rule("wildcard-variant-arm") + by_rule("module-doc"), 0);
    // Reachability chains name the certified entry they start from.
    let lookup = report.findings.iter().find(|f| f.fn_path == "lookup").unwrap();
    assert!(lookup.msg.contains("Executor::try_candidate > lookup"), "{}", lookup.msg);
}

#[test]
fn mini_fixture_sarif_matches_golden() {
    let report = run_static(&fixture_root()).unwrap();
    let got = to_sarif(&report).to_pretty();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &got).unwrap();
    }
    let want = std::fs::read_to_string(golden_path()).unwrap();
    assert_eq!(
        got, want,
        "SARIF output drifted from tests/fixtures/mini.sarif.json; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn mini_fixture_baseline_roundtrip_certifies() {
    // A baseline generated from the findings makes the run pass, and the
    // serialized form parses back to the same ceilings.
    let report = run_static(&fixture_root()).unwrap();
    let baseline = StaticBaseline::from_findings(&report.findings);
    assert!(baseline.check(&report.findings).is_empty());
    let reparsed = StaticBaseline::parse(&baseline.to_text()).unwrap();
    assert_eq!(reparsed, baseline);
    // An empty baseline reports every planted defect.
    assert_eq!(StaticBaseline::default().check(&report.findings).len(), 7);
}
