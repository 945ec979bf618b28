//! The exhibit binaries end to end: they print their tables, write no
//! file, and reject bad harness parameters by name.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csce-exhibits-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn fig11_prints_its_table_and_writes_nothing() {
    let dir = empty_dir("fig11");
    let out = Command::new(env!("CARGO_BIN_EXE_fig11"))
        .current_dir(&dir)
        .env_remove("CSCE_TIME_LIMIT")
        .env_remove("CSCE_REPEATS")
        .output()
        .expect("run fig11");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fig11 failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout.lines().any(|l| l.starts_with("labels  pattern  read time  clusters  working set")),
        "missing table header:\n{stdout}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(left.is_empty(), "fig11 left files behind: {left:?}");
}

#[test]
fn malformed_repeats_is_an_error_naming_the_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig10"))
        .env("CSCE_REPEATS", "abc")
        .output()
        .expect("run fig10");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "CSCE_REPEATS=abc must fail");
    assert!(stderr.contains("CSCE_REPEATS"), "stderr does not name the variable: {stderr}");
}
