//! End-to-end tests of the `csce-lint` binary: the baseline ratchet must
//! pass a clean tree, fail on a seeded violation, and fail on a stale
//! ceiling.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_csce-lint");

/// Every certified executor entry point, panic-free, so a fixture tree
/// has no missing-entry findings.
const EXEC_STUB: &str = "//! Certified entry points.\n\n\
    impl Executor {\n    fn count() {}\n    fn drive() {}\n    fn enumerate() {}\n    fn scan() {}\n    \
    fn try_candidate() {}\n    fn walk() {}\n    fn count_node() {}\n    fn check_deadline() {}\n}\n\n\
    impl Scheduler {\n    fn claim() {}\n    fn request_stop() {}\n    fn stop_once() {}\n    fn stopped() {}\n    \
    fn deadline() {}\n}\n\nfn run_parallel() {}\nfn count_parallel_observed() {}\nfn collect_parallel() {}\n";

const ONE_UNWRAP: &str =
    "//! Risky helper.\n\npub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";

/// A miniature workspace with clean library files.
fn write_fixture(root: &Path) {
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Demo module documentation.\n\npub fn double(x: u64) -> u64 {\n    x * 2\n}\n",
    )
    .unwrap();
    let exec_dir = root.join("crates/core/src/exec");
    std::fs::create_dir_all(&exec_dir).unwrap();
    std::fs::write(exec_dir.join("mod.rs"), EXEC_STUB).unwrap();
    std::fs::create_dir_all(root.join("scripts")).unwrap();
}

fn run_lint(root: &Path, extra: &[&str]) -> (bool, String) {
    let out =
        Command::new(BIN).arg("--root").arg(root).args(extra).output().expect("spawn csce-lint");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn temp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("csce_lint_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_fixture(&root);
    root
}

#[test]
fn clean_tree_passes_without_baseline() {
    let root = temp_root("clean");
    let (ok, err) = run_lint(&root, &[]);
    assert!(ok, "clean fixture should pass: {err}");
    assert!(err.contains("OK"), "expected OK verdict: {err}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_violation_fails_then_baseline_ratchets() {
    let root = temp_root("seeded");
    let bad = root.join("crates/demo/src/risky.rs");
    std::fs::write(&bad, ONE_UNWRAP).unwrap();

    // Without a baseline the new violation is a hard failure.
    let (ok, err) = run_lint(&root, &[]);
    assert!(!ok, "seeded unwrap must fail the lint");
    assert!(err.contains("no-panic"), "failure names the rule: {err}");
    assert!(err.contains("risky.rs"), "failure names the file: {err}");

    // Recording the debt makes the same tree pass...
    let (ok, err) = run_lint(&root, &["--update-baseline"]);
    assert!(ok, "--update-baseline should succeed: {err}");
    let (ok, err) = run_lint(&root, &[]);
    assert!(ok, "recorded debt should pass: {err}");

    // ...but a second unwrap in the same function still fails (ceiling,
    // not a blanket exemption).
    std::fs::write(
        &bad,
        "//! Risky helper.\n\npub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap() + *v.last().unwrap()\n}\n",
    )
    .unwrap();
    let (ok, err) = run_lint(&root, &[]);
    assert!(!ok, "new debt above the ceiling must fail: {err}");
    assert!(err.contains("first"), "failure names the function: {err}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stale_ceiling_fails_until_tightened() {
    let root = temp_root("stale");
    let bad = root.join("crates/demo/src/risky.rs");
    std::fs::write(&bad, ONE_UNWRAP).unwrap();
    let (ok, _) = run_lint(&root, &["--update-baseline"]);
    assert!(ok);

    // Fixing the unwrap makes the recorded ceiling stale: the lint fails
    // until the baseline is tightened, so ratchet progress is locked in.
    std::fs::write(
        &bad,
        "//! Risky helper.\n\npub fn first(v: &[u32]) -> Option<u32> {\n    v.first().copied()\n}\n",
    )
    .unwrap();
    let (ok, err) = run_lint(&root, &[]);
    assert!(!ok, "stale ceiling must fail: {err}");
    assert!(err.contains("stale") || err.contains("tighten"), "explains staleness: {err}");
    let (ok, _) = run_lint(&root, &["--update-baseline"]);
    assert!(ok);
    let (ok, err) = run_lint(&root, &[]);
    assert!(ok, "tightened baseline passes: {err}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn workspace_tree_passes_checked_in_baseline() {
    // The real repository must be clean against its own baseline.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (ok, err) = run_lint(&repo_root, &[]);
    assert!(ok, "workspace lint must pass with checked-in baseline: {err}");
}
