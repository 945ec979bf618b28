//! Rules `module-doc` and `wildcard-variant-arm`: the token-level source
//! policy, read off the same parse as the call-graph rules.
//!
//! * `module-doc` — every library file opens with `//!` or `/*!`; the
//!   finding is file-level (`fn-path` `-`, line 1).
//! * `wildcard-variant-arm` — no `_ =>` arms in matches that involve the
//!   matching-variant (`Variant`) or cluster-direction (`Orient`) enums,
//!   so adding a variant is a compile error everywhere it matters; the
//!   finding names the enclosing function.

use crate::callgraph::{SiteKind, Workspace};
use crate::rules::Finding;

/// Run both rules over the parsed workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings: Vec<Finding> = ws
        .undocumented
        .iter()
        .map(|file| Finding {
            rule: "module-doc",
            fn_path: "-".to_string(),
            file: file.clone(),
            line: 1,
            msg: "file does not open with a `//!` module doc comment".to_string(),
        })
        .collect();
    for f in &ws.fns {
        for site in f.sites.iter().filter(|s| s.kind == SiteKind::WildcardArm) {
            findings.push(Finding {
                rule: "wildcard-variant-arm",
                fn_path: f.qual_name.clone(),
                file: f.file.clone(),
                line: site.line,
                msg: "wildcard arm in a match involving Variant/Orient; list the variants"
                    .to_string(),
            });
        }
    }
    findings
}
