//! End-to-end tests of the `csce` command-line binary: cluster → persist
//! → stats → match → enumerate → explain, plus error handling.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_csce"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csce_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const DATA: &str = "t 5 6\nv 0 0\nv 1 1\nv 2 0\nv 3 1\nv 4 0\n\
e 0 1 - d\ne 2 1 - d\ne 2 3 - d\ne 4 3 - d\ne 0 3 - d\ne 4 1 - d\n";
const PATTERN: &str = "t 2 1\nv 0 0\nv 1 1\ne 0 1 - d\n";

#[test]
fn cluster_stats_match_pipeline() {
    let dir = workdir();
    let data = write(&dir, "data.csce", DATA);
    let pattern = write(&dir, "pattern.csce", PATTERN);
    let ccsr = dir.join("data.ccsr");

    let out = bin()
        .args(["cluster", data.to_str().unwrap(), "-o", ccsr.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "cluster failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(ccsr.exists());

    let out = bin().args(["stats", ccsr.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("over 5 vertices"), "stats output: {text}");
    assert!(text.contains("clusters over"), "stats output: {text}");
    // The heap figure counts the whole G_C: at least its cluster table.
    let gc = csce::ccsr::persist::load(&ccsr).unwrap();
    let heap = csce::ccsr::CcsrStats::of(&gc).heap_bytes;
    assert!(heap >= gc.cluster_count() * std::mem::size_of::<csce::ccsr::Cluster>());
    assert!(text.contains(&format!("heap {heap} bytes")), "stats output: {text}");

    // Matching against the persisted file and the raw text must agree.
    for source in [&ccsr, &data] {
        let out = bin()
            .args(["match", source.to_str().unwrap(), pattern.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("6 embeddings"), "match output: {text}");
    }
}

#[test]
fn enumerate_and_explain() {
    let dir = workdir();
    let data = write(&dir, "data2.csce", DATA);
    let pattern = write(&dir, "pattern2.csce", PATTERN);

    let out = bin()
        .args(["match", data.to_str().unwrap(), pattern.to_str().unwrap(), "--enumerate", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 embeddings printed"), "{text}");

    let out = bin()
        .args([
            "match",
            data.to_str().unwrap(),
            pattern.to_str().unwrap(),
            "--explain",
            "--variant",
            "h",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("matching order"), "{text}");
    assert!(text.contains("homomorphic"), "{text}");
    // The SCE statistics are derived on demand for the explain output.
    assert!(text.contains("SCE: 0/2 vertices have an earlier independent vertex"), "{text}");
}

/// `--explain` on a star whose first arm forks again prints this text,
/// the nested `Split` included.
#[test]
fn explain_prints_the_pinned_nested_tree() {
    const NESTED: &str = "t 8 7\nv 0 0\nv 1 1\nv 2 2\nv 3 3\nv 4 4\nv 5 5\nv 6 6\nv 7 7\n\
e 0 1 - u\ne 0 2 - u\ne 0 3 - u\ne 0 7 - u\ne 1 4 - u\ne 1 5 - u\ne 2 6 - u\n";
    const QUERY: &str = "(a:0)--(b:1), (a)--(c:2), (a)--(d:3), (a)--(h:7), \
(b)--(e:4), (b)--(f:5), (c)--(g:6)";
    const EXPLAIN: &str = "variant: edge-induced
matching order Φ*: [0, 1, 2, 3, 4, 5, 6, 7]
dependency DAG: 7 edges (0 negation dependencies)
SCE: 6/8 vertices have an earlier independent vertex (6 cluster-driven)
NEC: 8 classes over 8 vertices, 8 candidate-cache slots
execution tree (2 splits):
  match u0
  split x4 (multiply counts)
  component:
    match u1
    split x2 (multiply counts)
    component:
      match u5
      emit
    component:
      match u6
      emit
  component:
    match u2
    match u7
    emit
  component:
    match u3
    emit
  component:
    match u4
    emit
";
    let dir = workdir();
    let data = write(&dir, "nested.csce", NESTED);
    let out = bin()
        .args(["match", data.to_str().unwrap(), "--query", QUERY, "--explain"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), EXPLAIN);
}

#[test]
fn variant_flag_changes_results() {
    let dir = workdir();
    let data = write(&dir, "data3.csce", DATA);
    // A 2-path pattern whose homomorphic count exceeds edge-induced.
    let pattern = write(&dir, "wedge.csce", "t 3 2\nv 0 0\nv 1 1\nv 2 0\ne 0 1 - d\ne 2 1 - d\n");
    let count_for = |variant: &str| -> u64 {
        let out = bin()
            .args([
                "match",
                data.to_str().unwrap(),
                pattern.to_str().unwrap(),
                "--variant",
                variant,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        text.split_whitespace().next().unwrap().parse().unwrap()
    };
    let e = count_for("e");
    let h = count_for("h");
    let v = count_for("v");
    assert!(v <= e && e <= h, "v={v} e={e} h={h}");
    assert!(h > e, "homomorphism folds the two sources onto one vertex");
}

#[test]
fn errors_are_reported() {
    let dir = workdir();
    let out = bin().args(["match", "/nonexistent", "/nonexistent"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    let data = write(&dir, "data4.csce", DATA);
    let bad_pattern = write(&dir, "disconnected.csce", "t 2 0\nv 0 0\nv 1 1\n");
    let out = bin()
        .args(["match", data.to_str().unwrap(), bad_pattern.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("connected"));
}

#[test]
fn dot_rendering() {
    let out = bin().args(["dot", "--query", "(a:1)-[5]->(b:2)"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digraph"));
    assert!(text.contains("v0 -> v1 [label=\"5\"]"));
}

#[test]
fn query_flag_matches_inline_patterns() {
    let dir = workdir();
    let data = write(&dir, "data5.csce", DATA);
    let out =
        bin().args(["match", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 embeddings"));
    // Parallel counting path.
    let out = bin()
        .args(["match", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 embeddings"));
}

#[test]
fn stats_json_is_valid_and_complete() {
    use csce::obs::JsonValue;
    let dir = workdir();
    let data = write(&dir, "data6.csce", DATA);
    let out = bin()
        .args(["match", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)", "--stats", "json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The count line comes first; everything from the first '{' is the report.
    let json_start = stdout.find('{').expect("report follows the count line");
    let report = csce::obs::parse_json(&stdout[json_start..]).expect("valid JSON report");

    let meta = report.get("meta").expect("meta object");
    assert_eq!(meta.get("algo").and_then(JsonValue::as_str), Some("CSCE"));
    assert_eq!(meta.get("count").and_then(JsonValue::as_str), Some("6"));
    assert_eq!(meta.get("timed_out").and_then(JsonValue::as_str), Some("false"));
    assert_eq!(meta.get("saturated").and_then(JsonValue::as_str), Some("false"));

    // The phase tree covers the full pipeline: load → plan → execute,
    // with clustering under load and the planner stages under plan.
    let phases = report.get("phases").and_then(JsonValue::as_array).expect("phases");
    let phase = |name: &str| {
        phases
            .iter()
            .find(|p| p.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("missing phase {name}"))
    };
    let load = phase("load");
    let children = load.get("children").and_then(JsonValue::as_array).expect("load children");
    assert!(
        children.iter().any(|c| c.get("name").and_then(JsonValue::as_str) == Some("cluster")),
        "clustering recorded under load"
    );
    assert!(load.get("nanos").and_then(JsonValue::as_u64).is_some());
    let plan = phase("plan");
    let stages = plan.get("children").and_then(JsonValue::as_array).expect("plan children");
    let has_stage = |stage: &str| {
        stages.iter().any(|c| c.get("name").and_then(JsonValue::as_str) == Some(stage))
    };
    for stage in ["gcf", "dag", "nec", "tree"] {
        assert!(has_stage(stage), "missing plan stage {stage}");
    }
    // The SCE statistics are derived on demand, and CSCE matches in the
    // GCF order: descendant sizes and LDSF run only in the LDSF ablation.
    for stage in ["sce", "descendant", "ldsf"] {
        assert!(!has_stage(stage), "no {stage} stage in the plan span");
    }
    phase("execute");

    // The counter registry carries the executor and CCSR-side counters.
    let counters = report.get("counters").expect("counters object");
    assert_eq!(counters.get("exec.embeddings").and_then(JsonValue::as_u64), Some(6));
    for key in ["exec.nodes", "exec.candidates_scanned", "read.clusters_read"] {
        assert!(counters.get(key).and_then(JsonValue::as_u64).is_some(), "missing counter {key}");
    }
    let gauges = report.get("gauges").expect("gauges object");
    assert!(gauges.get("exec.sce_hit_rate").and_then(JsonValue::as_f64).is_some());

    // Text mode renders the same report human-readably.
    let out = bin()
        .args(["match", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)", "--stats", "text"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exec.embeddings"), "{text}");

    // Unknown flags are rejected instead of silently ignored.
    let out = bin()
        .args(["match", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)", "--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}

/// The double-arm star `(c:0)--(a:1)--(x:3), (c)--(b:2)--(y:4)` splits
/// into its arms after the centre. Counted (factorized) and enumerated
/// (the sink walk along `Φ*`), its report carries one
/// `exec.depth_candidates` and `exec.depth_sce_hits` entry per pattern
/// vertex, each series summing to the run's total.
#[test]
fn stats_series_have_one_entry_per_step_on_a_splitting_plan() {
    use csce::obs::JsonValue;
    const STAR: &str = "t 10 12\nv 0 0\nv 1 0\nv 2 1\nv 3 1\nv 4 2\nv 5 2\nv 6 3\nv 7 3\n\
v 8 4\nv 9 4\ne 0 2 - u\ne 0 3 - u\ne 1 2 - u\ne 2 6 - u\ne 3 6 - u\ne 3 7 - u\n\
e 0 4 - u\ne 1 4 - u\ne 1 5 - u\ne 4 8 - u\ne 5 8 - u\ne 5 9 - u\n";
    let dir = workdir();
    let data = write(&dir, "double_arm.csce", STAR);
    let query = "(c:0)--(a:1)--(x:3), (c)--(b:2)--(y:4)";
    for enumerate in [None, Some(["--enumerate", "100"])] {
        let out = bin()
            .arg("match")
            .arg(&data)
            .args(["--query", query, "--variant", "e", "--stats", "json"])
            .args(enumerate.iter().flatten())
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let json_start = stdout.find('{').expect("report follows the count line");
        let report = csce::obs::parse_json(&stdout[json_start..]).expect("valid JSON report");
        let counters = report.get("counters").expect("counters object");
        let counter = |key: &str| counters.get(key).and_then(JsonValue::as_u64).unwrap();
        assert_eq!(counter("exec.embeddings"), 6, "{enumerate:?}");
        if enumerate.is_none() {
            assert!(counter("exec.splits_taken") > 0, "the arms split");
        }
        let series = report.get("series").expect("series object");
        for (key, total) in [
            ("exec.depth_candidates", "exec.candidates_scanned"),
            ("exec.depth_sce_hits", "exec.sce_cache_hits"),
        ] {
            let steps: Vec<u64> = series
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("missing series {key}"))
                .iter()
                .filter_map(JsonValue::as_u64)
                .collect();
            assert_eq!(steps.len(), 5, "{key} {enumerate:?}: {steps:?}");
            assert_eq!(steps.iter().sum::<u64>(), counter(total), "{key} {enumerate:?}");
        }
    }
}

#[test]
fn enumerate_stats_time_the_sort_and_the_merge() {
    use csce::obs::JsonValue;
    let dir = workdir();
    let data = write(&dir, "data_sorted.csce", DATA);
    let args = ["--query", "(a:0)-->(b:1)", "--threads", "2", "--stats", "json", "--enumerate"];
    // All six embeddings, then the first three: a limited collect takes
    // the same path, sorted in the workers and merged by the driver.
    for (limit, printed) in [(None, 6), (Some("3"), 3)] {
        let out = bin().arg("match").arg(&data).args(args).args(limit).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("-- {printed} embeddings printed")), "{stdout}");
        let rows: Vec<Vec<u32>> = stdout
            .lines()
            .filter_map(|line| line.strip_prefix('[')?.strip_suffix(']'))
            .map(|row| row.split(", ").map(|v| v.parse().unwrap()).collect())
            .collect();
        assert_eq!(rows.len(), printed, "{stdout}");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {stdout}");
        let json_start = stdout.find('{').expect("report follows the embeddings");
        let report = csce::obs::parse_json(&stdout[json_start..]).expect("valid JSON report");
        let named = |nodes: &[JsonValue], name: &str| -> JsonValue {
            nodes
                .iter()
                .find(|p| p.get("name").and_then(JsonValue::as_str) == Some(name))
                .unwrap_or_else(|| panic!("missing phase {name}"))
                .clone()
        };
        let children = |node: &JsonValue| -> Vec<JsonValue> {
            node.get("children")
                .and_then(JsonValue::as_array)
                .map(<[_]>::to_vec)
                .unwrap_or_default()
        };
        // Rows past the limit are not counted as embeddings.
        let counters = report.get("counters").expect("counters object");
        let embeddings = counters.get("exec.embeddings").and_then(JsonValue::as_u64);
        assert_eq!(embeddings, Some(printed as u64), "limit {limit:?}");
        let phases = report.get("phases").and_then(JsonValue::as_array).expect("phases");
        // Each worker sorts its own rows; the driver merges them once per
        // further worker.
        let execute = children(&named(phases, "execute"));
        let sort = named(&children(&named(&execute, "worker")), "sort");
        assert_eq!(sort.get("calls").and_then(JsonValue::as_u64), Some(2), "limit {limit:?}");
        let merge = named(&execute, "merge");
        assert_eq!(merge.get("calls").and_then(JsonValue::as_u64), Some(1), "limit {limit:?}");
    }
}

#[test]
fn every_planner_preset_is_accepted_by_name() {
    let dir = workdir();
    let data = write(&dir, "data_presets.csce", DATA);
    let count = |plan: &str| {
        let out = bin()
            .arg("match")
            .arg(&data)
            .args(["--query", "(a:0)-->(b:1)<--(c:0)", "--plan", plan])
            .output()
            .unwrap();
        assert!(out.status.success(), "{plan}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or_default().to_string()
    };
    let csce = count("csce");
    assert!(csce.ends_with("embeddings (edge-induced)"), "{csce}");
    for plan in ["csce+ldsf", "ri", "ri+c"] {
        assert_eq!(count(plan), csce, "--plan {plan}");
    }
    let out =
        bin().arg("match").arg(&data).args(["--query", "(a:0)", "--plan", "rm"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown planner \"rm\""), "{stderr}");
    for name in ["csce", "csce+ldsf", "ri", "ri+c"] {
        assert!(stderr.contains(name), "{stderr} omits {name}");
    }
}

/// A directed star: a label-0 centre with `per_label` leaves of each
/// label `1..=labels`, in the `.csce` text format.
fn labeled_star(labels: u32, per_label: u32) -> String {
    let n = 1 + labels * per_label;
    let mut text = format!("t {n} {}\nv 0 0\n", n - 1);
    for v in 1..n {
        text.push_str(&format!("v {v} {}\n", 1 + (v - 1) / per_label));
    }
    for v in 1..n {
        text.push_str(&format!("e 0 {v} - d\n"));
    }
    text
}

#[test]
fn a_clamped_count_is_marked_saturated() {
    use csce::obs::JsonValue;
    let dir = workdir();
    // The 7-leaf star has 1000^7 = 10^21 embeddings, past u64::MAX; the
    // 6-leaf one has 10^18, which fits.
    let data = write(&dir, "star7.csce", &labeled_star(7, 1000));
    for (leaves, saturated) in [(7u32, true), (6, false)] {
        let query: String = (1..=leaves).map(|l| format!("(c:0)-->(l{l}:{l}), ")).collect();
        let query = query.trim_end_matches(", ");
        let out = bin()
            .args(["match", data.to_str().unwrap(), "--query", query, "--stats", "json"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let first = stdout.lines().next().unwrap_or("");
        let want = if saturated { "18446744073709551615" } else { "1000000000000000000" };
        assert!(first.starts_with(&format!("{want} embeddings")), "{first}");
        assert_eq!(first.contains("SATURATED"), saturated, "{first}");
        let report = csce::obs::parse_json(&stdout[stdout.find('{').unwrap()..]).unwrap();
        let meta = report.get("meta").expect("meta object");
        let flag = saturated.to_string();
        assert_eq!(meta.get("saturated").and_then(JsonValue::as_str), Some(flag.as_str()));
        let counters = report.get("counters").expect("counters object");
        assert_eq!(
            counters.get("exec.saturated").and_then(JsonValue::as_u64),
            Some(u64::from(saturated))
        );
    }
}

#[test]
fn validate_passes_good_inputs_and_plans() {
    let dir = workdir();
    let data = write(&dir, "data7.csce", DATA);
    let ccsr = dir.join("data7.ccsr");
    let out = bin()
        .args(["cluster", data.to_str().unwrap(), "-o", ccsr.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Text graph: graph + G_C + plan checkers all pass.
    let out = bin()
        .args(["validate", data.to_str().unwrap(), "--query", "(a:0)-->(b:1)", "--variant", "v"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("verdict") && l.ends_with("PASS")), "{text}");
    for family in ["graph.adjacency-symmetry", "ccsr.structure", "plan.topological"] {
        assert!(text.contains(family), "missing checker family {family}: {text}");
    }

    // Persisted G_C: decode + deep checks pass.
    let out = bin().args(["validate", ccsr.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("verdict") && l.ends_with("PASS")), "{text}");
    assert!(text.contains("ccsr.structure"), "{text}");
}

#[test]
fn validate_detects_corrupted_ccsr() {
    let dir = workdir();
    let data = write(&dir, "data8.csce", DATA);
    let ccsr = dir.join("data8.ccsr");
    let out = bin()
        .args(["cluster", data.to_str().unwrap(), "-o", ccsr.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Corrupt the body (past the 8-byte magic) and expect a FAIL verdict
    // with a non-zero exit for at least one flipped word; `match` rejects
    // every such file too, with a diagnostic instead of a panic.
    let good = std::fs::read(&ccsr).unwrap();
    let mut caught = 0;
    for i in (8..good.len().saturating_sub(4)).step_by(4) {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        if bad == good {
            continue;
        }
        let path = dir.join("corrupt.ccsr");
        std::fs::write(&path, &bad).unwrap();
        let out = bin().args(["validate", path.to_str().unwrap()]).output().unwrap();
        if !out.status.success() {
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(
                text.lines().any(|l| l.starts_with("verdict") && l.ends_with("FAIL")),
                "exit 1 must pair with FAIL: {text}"
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("validation failed"),
                "stderr explains the failure"
            );
            let out = bin()
                .args(["match", path.to_str().unwrap(), "--query", "(a:0)-->(b:1)"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "flip at byte {i}: {stderr}");
            assert!(!stderr.contains("panicked"), "flip at byte {i}: {stderr}");
            caught += 1;
        }
    }
    assert!(caught > 0, "no corruption detected across {} flips", good.len() / 4);
}

/// Runs and neighbors of one hand-written CSR.
type RawCsr<'a> = (&'a [(u32, u32)], &'a [u32]);

/// A one-cluster `.ccsr` file written word by word: the magic, the vertex
/// labels, then the cluster's key (`src`, `dst`, edge label), its raw
/// directed byte, its `out` CSR and, if given, its `inc` CSR.
fn ccsr_bytes(
    labels: &[u32],
    key: [u32; 3],
    directed: u8,
    out: RawCsr,
    inc: Option<RawCsr>,
) -> Vec<u8> {
    fn word(buf: &mut Vec<u8>, w: u32) {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    fn csr(buf: &mut Vec<u8>, (runs, neighbors): RawCsr) {
        word(buf, runs.len() as u32);
        for &(value, count) in runs {
            word(buf, value);
            word(buf, count);
        }
        word(buf, neighbors.len() as u32);
        for &w in neighbors {
            word(buf, w);
        }
    }
    let mut buf = b"CSCEGC1\0".to_vec();
    word(&mut buf, labels.len() as u32);
    for &l in labels {
        word(&mut buf, l);
    }
    word(&mut buf, 1);
    for k in key {
        word(&mut buf, k);
    }
    buf.push(directed);
    csr(&mut buf, out);
    buf.push(u8::from(inc.is_some()));
    if let Some(inc) = inc {
        csr(&mut buf, inc);
    }
    buf
}

#[test]
fn corrupt_ccsr_files_are_rejected_by_name() {
    const NULL: u32 = u32::MAX;
    let dir = workdir();
    // Each file breaks one invariant, named in the diagnostic.
    let cases: [(&str, Vec<u8>, &str); 7] = [
        // The runs cover n offsets instead of n + 1.
        (
            "short_rows",
            ccsr_bytes(&[0; 3], [0, 0, NULL], 0, (&[(0, 1), (1, 1), (2, 1)], &[1, 0]), None),
            "rle-coverage",
        ),
        // Vertex 1's neighbor 5 is not a vertex.
        (
            "bad_nbr",
            ccsr_bytes(&[0; 2], [0, 0, NULL], 0, (&[(0, 1), (1, 1), (2, 1)], &[1, 5]), None),
            "neighbor-range",
        ),
        // Vertex 0's row is [2, 1].
        (
            "unsorted",
            ccsr_bytes(
                &[0; 3],
                [0, 0, NULL],
                0,
                (&[(0, 1), (2, 1), (3, 1), (4, 1)], &[2, 1, 0, 0]),
                None,
            ),
            "rows-sorted",
        ),
        // `out` is 0 -> 1, 2 -> 1; `inc` copies it instead of transposing.
        (
            "bad_transpose",
            ccsr_bytes(
                &[0; 3],
                [0, 0, NULL],
                1,
                (&[(0, 1), (1, 2), (2, 1)], &[1, 1]),
                Some((&[(0, 1), (1, 2), (2, 1)], &[1, 1])),
            ),
            "inc-transpose",
        ),
        // A valid directed cluster whose directed byte is 2.
        (
            "flag2",
            ccsr_bytes(
                &[0; 3],
                [0, 0, NULL],
                2,
                (&[(0, 1), (1, 2), (2, 1)], &[1, 1]),
                Some((&[(0, 2), (2, 2)], &[0, 2])),
            ),
            "flag-byte",
        ),
        // A cluster with no arcs.
        (
            "empty_cluster",
            ccsr_bytes(&[0; 2], [0, 0, NULL], 0, (&[(0, 3)], &[]), None),
            "cluster-nonempty",
        ),
        // An undirected key listing the larger label first.
        (
            "noncanonical_key",
            ccsr_bytes(&[0, 1], [1, 0, NULL], 0, (&[(0, 1), (1, 1), (2, 1)], &[1, 0]), None),
            "key-canonical",
        ),
    ];
    for (name, bytes, invariant) in cases {
        let path = dir.join(format!("{name}.ccsr"));
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_str().unwrap();
        for args in [
            vec!["match", path, "--query", "(a:0)--(b:0)"],
            vec!["match", path, "--query", "(a:0)-->(b:0)<--(c:0)"],
            vec!["stats", path],
            vec!["validate", path],
        ] {
            let out = bin().args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(invariant), "{name} {args:?} names {invariant}: {stderr}");
        }
    }
}

#[test]
fn malformed_inputs_error_without_panicking() {
    let dir = workdir();
    let data = write(&dir, "data9.csce", DATA);
    // Corrupt pattern/graph files: a parse diagnostic and a nonzero exit,
    // never a panic (a panic would print "panicked at" on stderr and exit
    // with 101 instead of 1).
    let cases = [
        ("garbage.csce", "not a graph at all\n"),
        ("badcount.csce", "t 3 1\nv 0 0\nv 1 0\ne 0 1 - u\n"),
        ("badid.csce", "t 2 1\nv 0 0\nv 7 0\ne 0 1 - u\n"),
        ("badedge.csce", "t 2 1\nv 0 0\nv 1 0\ne 0 9 - u\n"),
        ("baddir.csce", "t 2 1\nv 0 0\nv 1 0\ne 0 1 - x\n"),
        ("selfloop.csce", "t 1 1\nv 0 0\ne 0 0 - u\n"),
    ];
    for (name, contents) in cases {
        let bad = write(&dir, name, contents);
        for order in [[&bad, &data], [&data, &bad]] {
            let out = bin()
                .args(["match", order[0].to_str().unwrap(), order[1].to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{name} must be rejected");
            assert_eq!(out.status.code(), Some(1), "{name}: diagnostic exit, not a crash");
            assert!(!stderr.contains("panicked"), "{name}: {stderr}");
            assert!(stderr.contains("error:"), "{name}: {stderr}");
        }
    }
    // An empty pattern parses fine but the planner cannot take it.
    let empty = write(&dir, "empty.csce", "t 0 0\n");
    for cmd in ["match", "validate"] {
        let out =
            bin().args([cmd, data.to_str().unwrap(), empty.to_str().unwrap()]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} with empty pattern: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert!(stderr.contains("empty"), "{cmd} names the problem: {stderr}");
    }
}

#[test]
fn duration_flags_reject_out_of_range_values() {
    let dir = workdir();
    let data = write(&dir, "data_secs.csce", DATA);
    let data = data.to_str().unwrap();
    let query = "(a:0)-->(b:1)";
    // Out of `Duration`'s range, negative, or not a number: a diagnostic
    // naming the flag and exit 1, never a panic.
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["match", data, "--query", query, "--time-limit", "-1"], "--time-limit"),
        (vec!["match", data, "--query", query, "--time-limit", "nan"], "--time-limit"),
        (vec!["match", data, "--query", query, "--time-limit", "1e30"], "--time-limit"),
        (vec!["match", data, "--query", query, "--progress", "1e30"], "--progress"),
        (vec!["match", data, "--query", query, "--progress", "0"], "--progress"),
        (vec!["fuzz", "--runs", "1", "--baseline-time-limit", "1e30"], "--baseline-time-limit"),
        (vec!["fuzz", "--runs", "1", "--baseline-time-limit", "-1"], "--baseline-time-limit"),
    ];
    for (args, flag) in cases {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // A limit past the clock's range means no deadline: the exact count,
    // on one thread and on several.
    for threads in ["1", "4"] {
        let out = bin()
            .args(["match", data, "--query", query, "--time-limit", "1e19", "--threads", threads])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--time-limit 1e19 on {threads} threads: {stderr}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("6 embeddings"), "{threads} threads: {text}");
    }
    // Zero stays a valid limit: it times out at once instead of erroring.
    let out = bin().args(["match", data, "--query", query, "--time-limit", "0"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked") && !stderr.contains("error:"), "{stderr}");
}

#[test]
fn fuzz_smoke_and_replay_roundtrip() {
    let dir = workdir();
    // A clean bounded run: zero divergences, exit 0.
    let out =
        bin().args(["fuzz", "--runs", "5", "--seed", "1", "--no-baselines"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no divergences"), "{text}");

    // The injected bug: caught, shrunk, written as a .repro, exit 1.
    let out = bin()
        .args([
            "fuzz",
            "--runs",
            "64",
            "--seed",
            "42",
            "--no-baselines",
            "--inject-bug",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "injected bug must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("divergence"), "{stdout}");
    let repro = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "repro"))
        .expect("a .repro file was written")
        .path();

    // Replay against the buggy engine: still reproduces, exit 1.
    let out =
        bin().args(["fuzz", "--replay", repro.to_str().unwrap(), "--inject-bug"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("still reproduces"));

    // Replay against the real engine: fixed, exit 0.
    let out = bin().args(["fuzz", "--replay", repro.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no longer reproduces"));

    // A corrupt .repro is a diagnostic, not a panic.
    let bad = write(&dir, "bad.repro", "csce-fuzz repro v1\nseed oops\n");
    let out = bin().args(["fuzz", "--replay", bad.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("seed"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
