//! Rules `hot-cast` and `lossy-cast`: narrow `as` casts (into `u8`–`u32`,
//! `i8`–`i32`, `VertexId`, `Label`), split by where truncation lands.
//!
//! `hot-cast` covers functions reachable from the engine entry points or
//! from the CCSR read path (`ReadCSR`, Algorithm 1, and the
//! cluster accessors the recursion touches per candidate), where
//! a truncated index corrupts results; `lossy-cast` covers every other
//! library function. Each cast site is reported by exactly one of them.

use crate::callgraph::{SiteKind, Workspace};
use crate::reach::{reach, EntryPoint};
use crate::rules::{panic_reach, Finding};

/// Entry points of the CCSR read path, pinned to the ccsr crate: the read
/// itself and the star accessors the catalog and the recursion call.
pub const READ_ENTRY_POINTS: [&str; 4] =
    ["read_csr", "pattern_edge_key", "GcStar::edge_clusters", "GcStar::pair_clusters"];

/// File prefix the read-path entries must be defined under.
pub const READ_PREFIX: &str = "crates/ccsr/src/";

/// Run both rules: one `hot-cast` finding per narrow-cast site in a
/// function reachable from the engine or CCSR read paths, one
/// `lossy-cast` finding per narrow cast anywhere else. Missing read-path
/// entries are not findings here — `panic-reach` already certifies the
/// engine list, and the read-path names double as plain reachability
/// seeds.
pub fn run(ws: &Workspace, adj: &[Vec<usize>]) -> Vec<Finding> {
    let mut entries: Vec<EntryPoint> = panic_reach::ENTRY_POINTS
        .iter()
        .map(|q| EntryPoint { qual: q, file_prefix: panic_reach::ENTRY_PREFIX })
        .collect();
    entries
        .extend(READ_ENTRY_POINTS.iter().map(|q| EntryPoint { qual: q, file_prefix: READ_PREFIX }));
    let r = reach(ws, adj, &entries);
    let mut findings = Vec::new();
    for (idx, f) in ws.fns.iter().enumerate() {
        for site in f.sites.iter().filter(|s| s.kind == SiteKind::NarrowCast) {
            let (rule, msg) = if r.reachable[idx] {
                (
                    "hot-cast",
                    format!("{} in hot code, reachable via {}", site.what, r.chain(ws, idx)),
                )
            } else {
                (
                    "lossy-cast",
                    format!(
                        "{} can truncate; use try_into or justify it in the baseline",
                        site.what
                    ),
                )
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
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casts_flagged_only_in_reachable_code() {
        let mut ws = Workspace::default();
        ws.parse_file(
            "crates/ccsr/src/read.rs",
            "//! d\nfn read_csr(n: usize) { narrow(n); }\nfn narrow(n: usize) -> u32 { n as u32 }\nfn cold(n: usize) -> u32 { n as u32 }\n",
        );
        let adj = ws.resolve();
        let findings = run(&ws, &adj);
        let rules: Vec<(&str, &str)> =
            findings.iter().map(|f| (f.rule, f.fn_path.as_str())).collect();
        assert_eq!(rules, vec![("hot-cast", "narrow"), ("lossy-cast", "cold")]);
        assert!(findings[0].msg.contains("read_csr > narrow"), "{}", findings[0].msg);
    }

    /// Every read-path entry names a function of the real workspace: an
    /// entry that no longer resolves would silently drop its callees from
    /// `hot-cast`.
    #[test]
    fn read_entry_points_resolve_in_the_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::load(&root).unwrap();
        for qual in READ_ENTRY_POINTS {
            assert!(!ws.find(qual, Some(READ_PREFIX)).is_empty(), "{qual} does not resolve");
        }
    }
}
