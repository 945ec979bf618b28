//! Transitive reachability over the workspace call graph.
//!
//! Breadth-first search from a set of *certified entry points* (function
//! qual-names pinned to a file prefix, so a `count` in a baseline crate
//! cannot shadow `Executor::count`). The BFS keeps parent pointers, so
//! every reachable function can explain *how* the hot path reaches it —
//! the call chain is printed in findings and is the difference between an
//! actionable report and a wall of names.

use crate::callgraph::Workspace;

/// One certified entry point: a function qual-name plus the file prefix
/// its definition must live under.
#[derive(Clone, Copy, Debug)]
pub struct EntryPoint {
    pub qual: &'static str,
    pub file_prefix: &'static str,
}

/// Result of a reachability pass.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// Per-function: reachable from any entry point?
    pub reachable: Vec<bool>,
    /// BFS tree parent (caller) for each reachable non-entry function.
    parent: Vec<Option<usize>>,
    /// Function indices that matched the entry-point list.
    pub entries: Vec<usize>,
    /// Entry quals that matched no workspace function — drift between the
    /// certified list and the code, itself a reportable finding.
    pub missing: Vec<String>,
}

/// BFS from `entries` over the resolved call graph `adj`.
pub fn reach(ws: &Workspace, adj: &[Vec<usize>], entries: &[EntryPoint]) -> Reachability {
    let mut r = Reachability {
        reachable: vec![false; ws.fns.len()],
        parent: vec![None; ws.fns.len()],
        entries: Vec::new(),
        missing: Vec::new(),
    };
    let mut queue = std::collections::VecDeque::new();
    for e in entries {
        let found = ws.find(e.qual, Some(e.file_prefix));
        if found.is_empty() {
            r.missing.push(e.qual.to_string());
        }
        for idx in found {
            if !r.reachable[idx] {
                r.reachable[idx] = true;
                r.entries.push(idx);
                queue.push_back(idx);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !r.reachable[v] {
                r.reachable[v] = true;
                r.parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    r
}

impl Reachability {
    /// Number of reachable functions.
    pub fn count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }

    /// The BFS call chain from the nearest entry point to `idx`, rendered
    /// as `entry > … > callee` (shortest in hops, capped for readability).
    pub fn chain(&self, ws: &Workspace, idx: usize) -> String {
        const MAX_HOPS: usize = 12;
        let mut names = vec![ws.fns[idx].qual_name.clone()];
        let mut cur = idx;
        while let Some(p) = self.parent[cur] {
            names.push(ws.fns[p].qual_name.clone());
            cur = p;
            if names.len() > MAX_HOPS {
                names.push("…".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" > ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        let mut w = Workspace::default();
        w.parse_file("crates/x/src/lib.rs", src);
        w
    }

    #[test]
    fn transitive_closure_and_chain() {
        let w = ws(
            "//! d\nfn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        );
        let adj = w.resolve();
        let r = reach(&w, &adj, &[EntryPoint { qual: "entry", file_prefix: "crates/x/" }]);
        assert_eq!(r.count(), 3);
        let leaf = w.find("leaf", None)[0];
        assert!(r.reachable[leaf]);
        assert_eq!(r.chain(&w, leaf), "entry > mid > leaf");
        let island = w.find("island", None)[0];
        assert!(!r.reachable[island]);
    }

    #[test]
    fn file_prefix_pins_the_entry() {
        let w = ws("//! d\nfn entry() {}\n");
        let adj = w.resolve();
        let r = reach(&w, &adj, &[EntryPoint { qual: "entry", file_prefix: "crates/other/" }]);
        assert_eq!(r.count(), 0);
        assert_eq!(r.missing, vec!["entry"]);
    }

    #[test]
    fn cycles_terminate() {
        let w = ws("//! d\nfn a() { b(); }\nfn b() { a(); }\n");
        let adj = w.resolve();
        let r = reach(&w, &adj, &[EntryPoint { qual: "a", file_prefix: "" }]);
        assert_eq!(r.count(), 2);
    }
}
