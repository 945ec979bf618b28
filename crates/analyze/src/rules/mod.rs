//! The workspace source-policy rules and their one ratchet.
//!
//! Seven rules run over the parsed [`crate::callgraph::Workspace`]:
//!
//! * [`panic_reach`] — `panic-reach`: panic sites transitively reachable
//!   from the certified executor entry points; `no-panic`: `.unwrap()`,
//!   `.expect(…)` and `panic!` in every other library function;
//! * [`hot_cast`] — `hot-cast`: narrow `as` casts in functions reachable
//!   from the engine or CCSR read paths; `lossy-cast`: the same casts
//!   anywhere else;
//! * [`shared_state`] — `shared-state`: `Arc`/`Atomic*`/`Mutex` fields in
//!   `exec/` absent from the declared-ordering manifest;
//! * [`style`] — `wildcard-variant-arm`: `_ =>` arms over
//!   `Variant`/`Orient`; `module-doc`: files without a `//!` module doc.
//!
//! Each site is reported by exactly one rule. Findings ratchet against
//! one committed, function-granular **baseline** (`<count> <rule>
//! <fn-path> <file>` lines, `-` for file-level findings): CI fails when a
//! function gains a finding *or* when a ceiling goes stale, so recorded
//! debt only shrinks. The same findings export as a SARIF-style JSON
//! document for artifact upload.

pub mod hot_cast;
pub mod panic_reach;
pub mod shared_state;
pub mod style;

use std::fmt::Write as _;
use std::path::Path;

use crate::callgraph::Workspace;
use csce_obs::json::JsonValue;

/// Rule identifiers, in reporting order.
pub const RULES: [&str; 7] = [
    "panic-reach",
    "no-panic",
    "hot-cast",
    "lossy-cast",
    "shared-state",
    "wildcard-variant-arm",
    "module-doc",
];

/// Default baseline and manifest locations relative to the workspace root.
pub const BASELINE_PATH: &str = "scripts/static-baseline.txt";
pub const MANIFEST_PATH: &str = "scripts/shared-state-manifest.txt";

/// One static-analysis finding, attributed to a function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Qualified function path (`Type::name` or `name`); for manifest
    /// findings, the `Struct.field` entry; `-` for file-level findings.
    pub fn_path: String,
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// 1-based line (0 for whole-entity findings).
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {} — {}", self.file, self.line, self.rule, self.fn_path, self.msg)
    }
}

/// Everything one analyzer run produced, plus call-graph scale counters
/// for the run report.
#[derive(Clone, Debug, Default)]
pub struct StaticReport {
    pub findings: Vec<Finding>,
    /// Source files parsed.
    pub files: usize,
    /// Functions parsed across the workspace.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Functions reachable from the panic-certified entry points.
    pub hot_fns: usize,
    /// Certified entry points that resolved to a workspace function.
    pub entries_found: usize,
}

/// Run all rules over an already-parsed workspace. `manifest` is the
/// shared-state manifest text (`None` when the file does not exist).
pub fn run_rules(ws: &Workspace, manifest: Option<&str>) -> StaticReport {
    let adj = ws.resolve();
    let mut report = StaticReport {
        findings: Vec::new(),
        files: ws.files,
        functions: ws.fns.len(),
        edges: ws.edge_count(&adj),
        hot_fns: 0,
        entries_found: 0,
    };
    let (panic_findings, reach) = panic_reach::run(ws, &adj);
    report.hot_fns = reach.count();
    report.entries_found = reach.entries.len();
    report.findings.extend(panic_findings);
    report.findings.extend(hot_cast::run(ws, &adj));
    report.findings.extend(shared_state::run(ws, manifest));
    report.findings.extend(style::run(ws));
    report
}

/// Parse the workspace under `root` and run all rules, reading the
/// shared-state manifest from its conventional location.
pub fn run_static(root: &Path) -> std::io::Result<StaticReport> {
    let ws = Workspace::load(root)?;
    let manifest = match std::fs::read_to_string(root.join(MANIFEST_PATH)) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(run_rules(&ws, manifest.as_deref()))
}

/// Function-granular ratchet: per `(rule, fn-path, file)` ceilings.
///
/// Format, one entry per line: `<count> <rule> <fn-path> <file>`; `#`
/// comments and blank lines are ignored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticBaseline {
    entries: Vec<(String, String, &'static str, u32)>, // (file, fn_path, rule, count)
}

impl StaticBaseline {
    pub fn parse(text: &str) -> Result<StaticBaseline, String> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (count, rule, fn_path, file) = match (it.next(), it.next(), it.next(), it.next()) {
                (Some(c), Some(r), Some(f), Some(p)) => (c, r, f, p),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `<count> <rule> <fn-path> <file>`",
                        lineno + 1
                    ))
                }
            };
            let count: u32 = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count {count:?}", lineno + 1))?;
            let rule = RULES
                .iter()
                .find(|&&r2| r2 == rule)
                .ok_or_else(|| format!("baseline line {}: unknown rule {rule:?}", lineno + 1))?;
            entries.push((file.to_string(), fn_path.to_string(), *rule, count));
        }
        entries.sort();
        Ok(StaticBaseline { entries })
    }

    pub fn allowed(&self, file: &str, fn_path: &str, rule: &str) -> u32 {
        self.entries
            .iter()
            .find(|(p, f, r, _)| p == file && f == fn_path && *r == rule)
            .map(|&(_, _, _, c)| c)
            .unwrap_or(0)
    }

    /// Build a baseline that exactly covers `findings`.
    pub fn from_findings(findings: &[Finding]) -> StaticBaseline {
        let mut entries: Vec<(String, String, &'static str, u32)> = Vec::new();
        for f in findings {
            match entries
                .iter_mut()
                .find(|(p, fp, r, _)| *p == f.file && *fp == f.fn_path && *r == f.rule)
            {
                Some((_, _, _, c)) => *c += 1,
                None => entries.push((f.file.clone(), f.fn_path.clone(), f.rule, 1)),
            }
        }
        entries.sort();
        StaticBaseline { entries }
    }

    /// Serialize in the checked-in format.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# csce-lint baseline: per-function finding ceilings for every rule\n\
             # (`-` marks a file-level finding). Regenerate with\n\
             # `cargo run -p csce-analyze --bin csce-lint -- --update-baseline`\n\
             # after *reducing* counts; additions require justification in\n\
             # review. Certified entry points reach zero panic sites beyond what\n\
             # this file enumerates.\n",
        );
        for (file, fn_path, rule, count) in &self.entries {
            let _ = writeln!(out, "{count} {rule} {fn_path} {file}");
        }
        out
    }

    /// Total recorded ceiling across all entries.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, _, _, c)| u64::from(c)).sum()
    }

    /// Compare findings against the ceilings: new findings (over ceiling)
    /// and stale ceilings (under) both fail, keeping the ratchet tight.
    pub fn check(&self, findings: &[Finding]) -> Vec<String> {
        let observed = StaticBaseline::from_findings(findings);
        let mut failures = Vec::new();
        for (file, fn_path, rule, count) in &observed.entries {
            let allowed = self.allowed(file, fn_path, rule);
            if *count > allowed {
                let lines: Vec<String> = findings
                    .iter()
                    .filter(|f| &f.file == file && &f.fn_path == fn_path && f.rule == *rule)
                    .map(|f| format!("  {f}"))
                    .collect();
                failures.push(format!(
                    "{fn_path} ({file}): {count} `{rule}` findings exceed the allowed \
                     {allowed}:\n{}",
                    lines.join("\n")
                ));
            }
        }
        for (file, fn_path, rule, allowed) in &self.entries {
            let count = observed.allowed(file, fn_path, rule);
            if count < *allowed {
                failures.push(format!(
                    "{fn_path} ({file}): baseline permits {allowed} `{rule}` but only {count} \
                     remain — tighten the ratchet (--update-baseline)"
                ));
            }
        }
        failures
    }
}

/// Export findings as a SARIF-style document (version 2.1.0 core fields:
/// one run, one driver, per-rule metadata, one result per finding).
pub fn to_sarif(report: &StaticReport) -> JsonValue {
    let rules: Vec<JsonValue> = RULES
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("id".to_string(), JsonValue::Str((*r).to_string())),
                (
                    "shortDescription".to_string(),
                    JsonValue::Object(vec![(
                        "text".to_string(),
                        JsonValue::Str(rule_description(r).to_string()),
                    )]),
                ),
            ])
        })
        .collect();
    let results: Vec<JsonValue> = report
        .findings
        .iter()
        .map(|f| {
            JsonValue::Object(vec![
                ("ruleId".to_string(), JsonValue::Str(f.rule.to_string())),
                ("level".to_string(), JsonValue::Str("warning".to_string())),
                (
                    "message".to_string(),
                    JsonValue::Object(vec![(
                        "text".to_string(),
                        JsonValue::Str(format!("{}: {}", f.fn_path, f.msg)),
                    )]),
                ),
                (
                    "locations".to_string(),
                    JsonValue::Array(vec![JsonValue::Object(vec![(
                        "physicalLocation".to_string(),
                        JsonValue::Object(vec![
                            (
                                "artifactLocation".to_string(),
                                JsonValue::Object(vec![(
                                    "uri".to_string(),
                                    JsonValue::Str(f.file.clone()),
                                )]),
                            ),
                            (
                                "region".to_string(),
                                JsonValue::Object(vec![(
                                    "startLine".to_string(),
                                    JsonValue::UInt(u64::from(f.line.max(1))),
                                )]),
                            ),
                        ]),
                    )])]),
                ),
                (
                    "properties".to_string(),
                    JsonValue::Object(vec![(
                        "functionPath".to_string(),
                        JsonValue::Str(f.fn_path.clone()),
                    )]),
                ),
            ])
        })
        .collect();
    let driver = JsonValue::Object(vec![
        ("name".to_string(), JsonValue::Str("csce-lint".to_string())),
        ("informationUri".to_string(), JsonValue::Str("https://example.invalid/csce".to_string())),
        ("rules".to_string(), JsonValue::Array(rules)),
    ]);
    let run = JsonValue::Object(vec![
        ("tool".to_string(), JsonValue::Object(vec![("driver".to_string(), driver)])),
        ("results".to_string(), JsonValue::Array(results)),
        (
            "properties".to_string(),
            JsonValue::Object(vec![
                ("files".to_string(), JsonValue::UInt(report.files as u64)),
                ("functions".to_string(), JsonValue::UInt(report.functions as u64)),
                ("callEdges".to_string(), JsonValue::UInt(report.edges as u64)),
                ("hotFunctions".to_string(), JsonValue::UInt(report.hot_fns as u64)),
                ("entriesFound".to_string(), JsonValue::UInt(report.entries_found as u64)),
            ]),
        ),
    ]);
    JsonValue::Object(vec![
        (
            "$schema".to_string(),
            JsonValue::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
        ),
        ("version".to_string(), JsonValue::Str("2.1.0".to_string())),
        ("runs".to_string(), JsonValue::Array(vec![run])),
    ])
}

fn rule_description(rule: &str) -> &'static str {
    match rule {
        "panic-reach" => "panic site reachable from a certified executor entry point",
        "no-panic" => "unwrap/expect/panic! in library code off the certified path",
        "hot-cast" => "narrow as-cast in code reachable from the engine/CCSR read path",
        "lossy-cast" => "narrow as-cast that can truncate an index",
        "shared-state" => "shared-state field missing from the declared-ordering manifest",
        "wildcard-variant-arm" => "wildcard arm in a match involving Variant/Orient",
        "module-doc" => "library file without a module doc comment",
        _ => "unknown rule",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, fn_path: &str, file: &str) -> Finding {
        Finding {
            rule,
            fn_path: fn_path.to_string(),
            file: file.to_string(),
            line: 3,
            msg: "m".to_string(),
        }
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let findings = vec![
            finding("panic-reach", "Executor::walk", "crates/core/src/exec/engine.rs"),
            finding("panic-reach", "Executor::walk", "crates/core/src/exec/engine.rs"),
            finding("hot-cast", "read_csr", "crates/ccsr/src/read.rs"),
        ];
        let base = StaticBaseline::from_findings(&findings);
        let parsed = StaticBaseline::parse(&base.to_text()).unwrap();
        assert_eq!(base, parsed);
        assert_eq!(parsed.total(), 3);
        assert!(parsed.check(&findings).is_empty());
        // One more finding in a covered function fails.
        let mut more = findings.clone();
        more.push(finding("panic-reach", "Executor::walk", "crates/core/src/exec/engine.rs"));
        assert_eq!(parsed.check(&more).len(), 1);
        // A fixed finding fails as a stale ceiling.
        assert_eq!(parsed.check(&findings[1..]).len(), 1);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(StaticBaseline::parse("nope").is_err());
        assert!(StaticBaseline::parse("2 bogus f x.rs").is_err());
        assert!(StaticBaseline::parse("x panic-reach f x.rs").is_err());
        assert!(StaticBaseline::parse("# comment\n\n1 hot-cast f x.rs\n").is_ok());
    }

    #[test]
    fn sarif_has_schema_results_and_properties() {
        let report = StaticReport {
            findings: vec![finding("panic-reach", "f", "a.rs")],
            files: 2,
            functions: 10,
            edges: 20,
            hot_fns: 5,
            entries_found: 3,
        };
        let sarif = to_sarif(&report);
        assert_eq!(sarif.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let runs = sarif.get("runs").and_then(|r| r.as_array()).unwrap();
        let results = runs[0].get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("ruleId").and_then(|r| r.as_str()), Some("panic-reach"));
        // The document round-trips through the JSON parser.
        let parsed = csce_obs::json::parse(&sarif.to_pretty()).unwrap();
        assert_eq!(parsed, sarif);
    }

    /// The rules a one-file workspace at `x.rs` violates, in reporting
    /// order (the certified entry points are absent by construction, so
    /// their missing-entry findings are left out).
    fn rules_of(src: &str) -> Vec<&'static str> {
        let mut ws = Workspace::default();
        ws.parse_file("x.rs", src);
        run_rules(&ws, None)
            .findings
            .into_iter()
            .filter(|f| f.file != "<entry-point-list>")
            .map(|f| f.rule)
            .collect()
    }

    const DOC: &str = "//! doc\n";

    #[test]
    fn clean_file_passes() {
        assert!(
            rules_of("//! A documented module.\npub fn f(x: u64) -> u64 { x + 1 }\n").is_empty()
        );
    }

    #[test]
    fn missing_module_doc_flagged() {
        assert_eq!(rules_of("pub fn f() {}\n"), vec!["module-doc"]);
        assert!(rules_of("/*! block doc */\npub fn f() {}\n").is_empty());
    }

    #[test]
    fn unwrap_expect_panic_flagged() {
        let src =
            format!("{DOC}fn f() {{ let x = g().unwrap(); h().expect(\"x\"); panic!(\"y\"); }}");
        assert_eq!(rules_of(&src), vec!["no-panic", "no-panic", "no-panic"]);
    }

    #[test]
    fn invariant_macros_off_the_hot_path_are_not_flagged() {
        let src = format!("{DOC}fn f(x: u64) {{ assert!(x > 0); unreachable!(); }}\n");
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_not_flagged() {
        let src = format!("{DOC}// .unwrap() here\nfn f() -> &'static str {{ \".unwrap()\" }}\n");
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        assert!(rules_of(&format!("{DOC}fn f(x: Option<u64>) -> u64 {{ x.unwrap_or(0) }}\n"))
            .is_empty());
    }

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src = format!(
            "{DOC}pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ f(); Some(1).unwrap(); }}\n}}\n"
        );
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn lossy_casts_flagged_and_widening_ignored() {
        assert_eq!(
            rules_of(&format!("{DOC}fn f(n: usize) -> u32 {{ n as u32 }}\n")),
            vec!["lossy-cast"]
        );
        assert!(rules_of(&format!("{DOC}fn f(n: u32) -> usize {{ n as usize }}\n")).is_empty());
        let alias = format!("{DOC}fn f(n: usize) -> VertexId {{ n as VertexId }}\n");
        assert_eq!(rules_of(&alias), vec!["lossy-cast"]);
    }

    #[test]
    fn use_as_rename_not_flagged() {
        assert!(rules_of(&format!("{DOC}use std::io::Error as IoError;\nfn f(_: IoError) {{}}\n"))
            .is_empty());
    }

    #[test]
    fn wildcard_arm_on_guarded_enum_flagged() {
        let src = format!(
            "{DOC}fn f(v: Variant) -> u32 {{ match v {{ Variant::EdgeInduced => 1, _ => 0 }} }}\n"
        );
        assert_eq!(rules_of(&src), vec!["wildcard-variant-arm"]);
    }

    #[test]
    fn wildcard_arm_on_other_enums_allowed() {
        let src =
            format!("{DOC}fn f(v: Option<u32>) -> u32 {{ match v {{ Some(x) => x, _ => 0 }} }}\n");
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn wildcard_subpattern_not_flagged() {
        let src = format!(
            "{DOC}fn f(v: Orient, w: u32) -> u32 {{ match (v, w) {{ (Orient::Out, _) => 1, (Orient::In, x) => x, (Orient::Und, _) => 2 }} }}\n"
        );
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = format!(
            "{DOC}fn f<'a>(x: &'a str) -> &'a str {{ let _ = r#\"panic!( .unwrap() \"#; let _ = 'x'; x }}\n"
        );
        assert!(rules_of(&src).is_empty());
    }

    #[test]
    fn file_level_findings_ratchet_under_a_dash() {
        let mut ws = Workspace::default();
        ws.parse_file("crates/x/src/lib.rs", "fn f() {}\n");
        let findings: Vec<Finding> =
            run_rules(&ws, None).findings.into_iter().filter(|f| f.rule == "module-doc").collect();
        let text = StaticBaseline::from_findings(&findings).to_text();
        assert!(text.contains("1 module-doc - crates/x/src/lib.rs"), "{text}");
        assert!(StaticBaseline::parse(&text).unwrap().check(&findings).is_empty());
    }
}
