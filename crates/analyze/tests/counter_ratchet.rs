//! Fixture tests of the work-counter ratchet (`counter-ratchet`, run by
//! `scripts/check-counters.sh`): a rise, a count change, an added query, a
//! missing query and a rising workload line each fail; a pure fall and an
//! identical block pass.

use csce_analyze::counters::compare;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_counter-ratchet");
const PINNED: &str = include_str!("fixtures/counters/pinned.txt");
const PINNED_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/counters/pinned.txt");

/// `PINNED` with the first occurrence of `from` replaced by `to`.
fn edited(from: &str, to: &str) -> String {
    assert!(PINNED.contains(from), "fixture lacks {from:?}");
    PINNED.replacen(from, to, 1)
}

/// `PINNED` without the line containing `needle`.
fn without(needle: &str) -> String {
    PINNED.lines().filter(|l| !l.contains(needle)).map(|l| format!("{l}\n")).collect()
}

fn assert_fails(fresh: &str, what: &str) {
    let ratchet = compare(PINNED, fresh);
    assert!(!ratchet.passed(), "{what} must fail: {ratchet:?}");
    assert_eq!(ratchet.regressions.len(), 1, "{what}: {ratchet:?}");
}

#[test]
fn an_identical_block_passes_silently() {
    let ratchet = compare(PINNED, PINNED);
    assert!(ratchet.passed());
    assert!(ratchet.improvements.is_empty());
}

#[test]
fn a_pure_fall_passes_and_is_named() {
    let fresh =
        edited("nodes=38897 candidates_scanned=85532", "nodes=30000 candidates_scanned=85000")
            .replacen("nodes=over_budget", "count=52 nodes=83731", 1)
            .replacen("plan.nodes_vs_ri_cluster=3.296180", "plan.nodes_vs_ri_cluster=1.000000", 1);
    let ratchet = compare(PINNED, &fresh);
    assert!(ratchet.passed(), "{ratchet:?}");
    assert_eq!(ratchet.improvements.len(), 3, "{ratchet:?}");
    assert!(ratchet.improvements[0].starts_with("Patent/S16/p30/E: nodes 38897 -> 30000"));
    assert!(ratchet.improvements[1].starts_with("Patent/D32/p38/E: nodes over_budget -> 83731"));
    assert!(ratchet.improvements[2].starts_with("plan.nodes_vs_ri_cluster: 3.296180 -> 1.000000"));
}

#[test]
fn an_ungated_move_passes_and_is_named() {
    let fresh = edited("candidate_computations=3271", "candidate_computations=4000");
    let ratchet = compare(PINNED, &fresh);
    assert!(ratchet.passed(), "{ratchet:?}");
    assert_eq!(ratchet.improvements, vec!["Patent/S16/p30/E: candidate_computations 3271 -> 4000"]);
}

#[test]
fn a_rise_fails() {
    assert_fails(&edited("nodes=3652", "nodes=3653"), "a nodes rise");
    assert_fails(&edited("candidates_scanned=3699", "candidates_scanned=3700"), "a scan rise");
    assert_fails(&edited("count=48 nodes=3652", "nodes=over_budget"), "a query over budget");
    assert_fails(
        &edited("plan.nodes_vs_ri_cluster=3.296180", "plan.nodes_vs_ri_cluster=3.300000"),
        "a workload-line rise",
    );
}

#[test]
fn a_count_change_fails_even_with_fewer_nodes() {
    assert_fails(&edited("count=48 nodes=3652", "count=47 nodes=3000"), "a count change");
}

#[test]
fn an_added_query_fails() {
    let fresh = format!(
        "{PINNED}counter plan-quality seed=1 Patent/D8/p1/E clusters_read=1 count=1 nodes=1\n"
    );
    assert_fails(&fresh, "an added query");
}

#[test]
fn a_missing_query_fails() {
    assert_fails(&without("Patent/D16/p50/E"), "a missing query");
    assert_fails(&without("plan.nodes_vs_ri_cluster"), "a missing workload line");
}

#[test]
fn the_binary_exits_by_verdict() {
    let dir = std::env::temp_dir().join(format!("counter-ratchet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |fresh: &str| {
        let path = dir.join("fresh.txt");
        std::fs::write(&path, fresh).unwrap();
        let out = Command::new(BIN).arg(PINNED_PATH).arg(&path).output().expect("spawn");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    assert_eq!(run(PINNED).0, Some(0));
    let (code, stdout) = run(&edited("nodes=3652", "nodes=3000"));
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("improved: Patent/D16/p50/E") && stdout.contains("--update"),
        "{stdout}"
    );
    assert_eq!(run(&edited("nodes=3652", "nodes=4000")).0, Some(1));
    let missing = Command::new(BIN).arg(PINNED_PATH).arg(dir.join("absent.txt")).output().unwrap();
    assert_eq!(missing.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}
