//! Zero-dependency static source lint for the CSCE workspace.
//!
//! A minimal Rust tokenizer (comments, strings, raw strings, char
//! literals, lifetimes, idents, numbers, punctuation) feeds four
//! rules over non-test library code:
//!
//! * `no-panic` — no `.unwrap()`, `.expect(…)`, or `panic!` in library
//!   code; panics belong in tests and at the CLI boundary.
//! * `lossy-cast` — no `as` casts into narrow index types (`u8`–`u32`,
//!   `i8`–`i32`, `VertexId`, `Label`); a `usize → u32` cast silently
//!   truncates on graphs past 4 billion vertices.
//! * `wildcard-variant-arm` — no `_ =>` arms in matches that involve the
//!   matching-variant (`Variant`) or cluster-direction (`Orient`) enums,
//!   so adding a variant is a compile error everywhere it matters.
//! * `module-doc` — every library file opens with `//!` or `/*!`.
//!
//! `#[cfg(test)]` items are stripped before the rules run; `tests/`,
//! `benches/`, `examples/`, and `bin/` paths are excluded wholesale.
//! Enforcement is *ratcheted* through a checked-in allowlist of per-file
//! counts: CI fails when a file gains a violation (new debt) or loses one
//! without the allowlist shrinking (stale ceiling), so the recorded debt
//! only ever goes down.

use std::fmt::Write as _;
use std::path::Path;

use crate::tokens::{lex, strip_test_items, Tok, TokKind};

/// Rule identifiers, in reporting order.
pub const RULES: [&str; 4] = ["no-panic", "lossy-cast", "wildcard-variant-arm", "module-doc"];

/// Target types of the `lossy-cast` rule: a cast *into* any of these can
/// drop high bits of a wider index.
pub(crate) const NARROW_TYPES: [&str; 8] =
    ["u8", "u16", "u32", "i8", "i16", "i32", "VertexId", "Label"];

/// Enums whose matches must stay exhaustive (`wildcard-variant-arm`).
const GUARDED_ENUMS: [&str; 2] = ["Variant", "Orient"];

/// One rule hit at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintViolation {
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number (0 for whole-file rules).
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for LintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Run all rules on one source file; `path` is only used for labeling.
pub fn lint_source(path: &str, src: &str) -> Vec<LintViolation> {
    let lexed = lex(src);
    let mut out = Vec::new();
    if !lexed.has_module_doc {
        out.push(LintViolation {
            rule: "module-doc",
            path: path.to_string(),
            line: 1,
            msg: "file does not open with a `//!` module doc comment".to_string(),
        });
    }
    let toks = strip_test_items(lexed.toks);
    rule_no_panic(path, &toks, &mut out);
    rule_lossy_cast(path, &toks, &mut out);
    rule_wildcard_arm(path, &toks, &mut out);
    out.sort_by_key(|v| v.line);
    out
}

fn rule_no_panic(path: &str, toks: &[Tok<'_>], out: &mut Vec<LintViolation>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let next = toks.get(i + 1).map(|t| t.text);
        let hit = match t.text {
            "unwrap" | "expect" => prev_dot && next == Some("("),
            "panic" => next == Some("!"),
            _ => false,
        };
        if hit {
            out.push(LintViolation {
                rule: "no-panic",
                path: path.to_string(),
                line: t.line,
                msg: format!(
                    "`{}` in library code; return a Result or justify in the allowlist",
                    t.text
                ),
            });
        }
    }
}

fn rule_lossy_cast(path: &str, toks: &[Tok<'_>], out: &mut Vec<LintViolation>) {
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "as"
            && toks[i + 1].kind == TokKind::Ident
            && NARROW_TYPES.contains(&toks[i + 1].text)
        {
            // `as` inside a use statement (`use x as y`) has an ident after
            // it too, but never one of the narrow primitive types.
            out.push(LintViolation {
                rule: "lossy-cast",
                path: path.to_string(),
                line: toks[i].line,
                msg: format!(
                    "`as {}` can truncate; use try_into or justify in the allowlist",
                    toks[i + 1].text
                ),
            });
        }
    }
}

fn rule_wildcard_arm(path: &str, toks: &[Tok<'_>], out: &mut Vec<LintViolation>) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "match" {
            i += 1;
            continue;
        }
        // Header: up to the body `{` at bracket depth 0 (struct literals
        // are not allowed bare in a scrutinee).
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        // Body: to the matching `}`.
        let body_start = j + 1;
        let mut braces = 1usize;
        let mut k = body_start;
        while k < toks.len() && braces > 0 {
            match toks[k].text {
                "{" => braces += 1,
                "}" => braces -= 1,
                _ => {}
            }
            k += 1;
        }
        let body_end = k.saturating_sub(1);
        let involved = toks[i..body_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && GUARDED_ENUMS.contains(&t.text));
        if involved {
            // Wildcard arms live at brace depth 1 of the body, outside any
            // parens (a `_` inside `(…)` or `Foo { … }` is a sub-pattern).
            let mut bdepth = 1usize;
            let mut pdepth = 0usize;
            for a in body_start..body_end {
                match toks[a].text {
                    "{" => bdepth += 1,
                    "}" => bdepth -= 1,
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth = pdepth.saturating_sub(1),
                    "_" if bdepth == 1
                        && pdepth == 0
                        && toks.get(a + 1).map(|t| t.text) == Some("=")
                        && toks.get(a + 2).map(|t| t.text) == Some(">") =>
                    {
                        out.push(LintViolation {
                            rule: "wildcard-variant-arm",
                            path: path.to_string(),
                            line: toks[a].line,
                            msg: "wildcard arm in a match involving Variant/Orient; list the variants"
                                .to_string(),
                        });
                    }
                    _ => {}
                }
            }
        }
        i = body_start;
    }
}

/// Whether a workspace-relative path is non-test library code the rules
/// apply to.
pub fn is_library_source(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return false;
    }
    !parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples" | "bin" | "fixtures"))
        && rel.ends_with(".rs")
}

/// Collect the workspace's library sources under `root`, returning sorted
/// workspace-relative `/`-separated paths.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir != root && is_nested_workspace(&dir) {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !matches!(name.as_ref(), "target" | "vendor" | ".git" | ".claude") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if is_library_source(&rel) {
                    found.push(rel);
                }
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Whether `dir` holds a package that declares its own `[workspace]`
/// (e.g. the standalone `perfbench/`): it builds separately, workspace
/// crates cannot call into it, so it is outside the analyzed sources.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The ratcheting allowlist: per `(rule, file)` violation ceilings.
///
/// Format, one entry per line: `<count> <rule> <path>`; `#` comments and
/// blank lines are ignored. Entries are kept sorted by (path, rule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: Vec<(String, &'static str, u32)>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (count, rule, path) = match (it.next(), it.next(), it.next()) {
                (Some(c), Some(r), Some(p)) => (c, r, p),
                _ => {
                    return Err(format!(
                        "allowlist line {}: expected `<count> <rule> <path>`",
                        lineno + 1
                    ))
                }
            };
            let count: u32 = count
                .parse()
                .map_err(|_| format!("allowlist line {}: bad count {count:?}", lineno + 1))?;
            let rule = RULES
                .iter()
                .find(|&&r2| r2 == rule)
                .ok_or_else(|| format!("allowlist line {}: unknown rule {rule:?}", lineno + 1))?;
            entries.push((path.to_string(), *rule, count));
        }
        entries.sort();
        Ok(Allowlist { entries })
    }

    pub fn allowed(&self, path: &str, rule: &str) -> u32 {
        self.entries
            .iter()
            .find(|(p, r, _)| p == path && *r == rule)
            .map(|&(_, _, c)| c)
            .unwrap_or(0)
    }

    /// Build an allowlist that exactly covers `violations`.
    pub fn from_violations(violations: &[LintViolation]) -> Allowlist {
        let mut entries: Vec<(String, &'static str, u32)> = Vec::new();
        for v in violations {
            match entries.iter_mut().find(|(p, r, _)| *p == v.path && *r == v.rule) {
                Some((_, _, c)) => *c += 1,
                None => entries.push((v.path.clone(), v.rule, 1)),
            }
        }
        entries.sort();
        Allowlist { entries }
    }

    /// Serialize in the checked-in format.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# csce-lint ratchet: per-file violation ceilings. Regenerate with\n\
             # `cargo run -p csce-analyze --bin csce-lint -- --update-allowlist`\n\
             # after *reducing* counts; additions require justification in review.\n",
        );
        for (path, rule, count) in &self.entries {
            let _ = writeln!(out, "{count} {rule} {path}");
        }
        out
    }

    /// Compare observed violations against the ceilings. Returns
    /// human-readable failures: new violations (count above ceiling) and
    /// stale ceilings (count below — the ratchet must be tightened).
    pub fn check(&self, violations: &[LintViolation]) -> Vec<String> {
        let observed = Allowlist::from_violations(violations);
        let mut failures = Vec::new();
        for (path, rule, count) in &observed.entries {
            let allowed = self.allowed(path, rule);
            if *count > allowed {
                let lines: Vec<String> = violations
                    .iter()
                    .filter(|v| &v.path == path && v.rule == *rule)
                    .map(|v| format!("  {v}"))
                    .collect();
                failures.push(format!(
                    "{path}: {count} `{rule}` violations exceed the allowed {allowed}:\n{}",
                    lines.join("\n")
                ));
            }
        }
        for (path, rule, allowed) in &self.entries {
            let count = observed.allowed(path, rule);
            if count < *allowed {
                failures.push(format!(
                    "{path}: allowlist permits {allowed} `{rule}` but only {count} remain — \
                     tighten the ratchet (run with --update-allowlist)"
                ));
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<&'static str> {
        lint_source("x.rs", src).into_iter().map(|v| v.rule).collect()
    }

    const DOC: &str = "//! doc\n";

    #[test]
    fn clean_file_passes() {
        let src = "//! A documented module.\npub fn f(x: u64) -> u64 { x + 1 }\n";
        assert!(lint_source("x.rs", src).is_empty());
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
    fn unwrap_in_string_or_comment_not_flagged() {
        let src = format!("{DOC}// .unwrap() here\nfn f() -> &'static str {{ \".unwrap()\" }}\n");
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = format!("{DOC}fn f(x: Option<u64>) -> u64 {{ x.unwrap_or(0) }}\n");
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src = format!(
            "{DOC}pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ f(); Some(1).unwrap(); }}\n}}\n"
        );
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn lossy_casts_flagged_and_widening_ignored() {
        let src = format!("{DOC}fn f(n: usize) -> u32 {{ n as u32 }}\n");
        assert_eq!(rules_of(&src), vec!["lossy-cast"]);
        let ok = format!("{DOC}fn f(n: u32) -> usize {{ n as usize }}\n");
        assert!(lint_source("x.rs", &ok).is_empty());
        let alias = format!("{DOC}fn f(n: usize) -> VertexId {{ n as VertexId }}\n");
        assert_eq!(rules_of(&alias), vec!["lossy-cast"]);
    }

    #[test]
    fn use_as_rename_not_flagged() {
        let src = format!("{DOC}use std::io::Error as IoError;\nfn f(_: IoError) {{}}\n");
        assert!(lint_source("x.rs", &src).is_empty());
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
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn wildcard_subpattern_not_flagged() {
        let src = format!(
            "{DOC}fn f(v: Orient, w: u32) -> u32 {{ match (v, w) {{ (Orient::Out, _) => 1, (Orient::In, x) => x, (Orient::Und, _) => 2 }} }}\n"
        );
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = format!(
            "{DOC}fn f<'a>(x: &'a str) -> &'a str {{ let _ = r#\"panic!( .unwrap() \"#; let _ = 'x'; x }}\n"
        );
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn path_classification() {
        assert!(is_library_source("crates/graph/src/graph.rs"));
        assert!(is_library_source("src/lib.rs"));
        assert!(!is_library_source("crates/graph/tests/io.rs"));
        assert!(!is_library_source("src/bin/csce.rs"));
        assert!(!is_library_source("vendor/proptest/src/lib.rs"));
        assert!(!is_library_source("crates/bench/src/fixtures/x.rs"));
        assert!(!is_library_source("README.md"));
    }

    #[test]
    fn nested_workspaces_are_not_collected() {
        let root = std::env::temp_dir().join(format!("csce-lint-nested-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("crates/a/src/lib.rs", "//! a\n");
        write("bench/Cargo.toml", "[package]\nname = \"b\"\n\n[workspace]\n");
        write("bench/src/lib.rs", "//! b\n");
        let found = collect_sources(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(found, vec!["crates/a/src/lib.rs".to_string()]);
    }

    #[test]
    fn allowlist_roundtrip_and_ratchet() {
        let violations = vec![
            LintViolation { rule: "no-panic", path: "a.rs".into(), line: 3, msg: "x".into() },
            LintViolation { rule: "no-panic", path: "a.rs".into(), line: 9, msg: "y".into() },
            LintViolation { rule: "lossy-cast", path: "b.rs".into(), line: 1, msg: "z".into() },
        ];
        let list = Allowlist::from_violations(&violations);
        let parsed = Allowlist::parse(&list.to_text()).unwrap();
        assert_eq!(list, parsed);
        assert!(parsed.check(&violations).is_empty(), "exact coverage passes");
        // A new violation fails.
        let mut more = violations.clone();
        more.push(LintViolation {
            rule: "no-panic",
            path: "b.rs".into(),
            line: 2,
            msg: "w".into(),
        });
        assert_eq!(parsed.check(&more).len(), 1);
        // A removed violation fails too (stale ceiling).
        assert_eq!(parsed.check(&violations[1..]).len(), 1);
    }

    #[test]
    fn allowlist_rejects_garbage() {
        assert!(Allowlist::parse("not a line").is_err());
        assert!(Allowlist::parse("3 bogus-rule a.rs").is_err());
        assert!(Allowlist::parse("x no-panic a.rs").is_err());
        assert!(Allowlist::parse("# comment\n\n2 no-panic a.rs\n").is_ok());
    }
}
