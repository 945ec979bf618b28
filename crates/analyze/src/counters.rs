//! The work-counter ratchet: compares a fresh `perfbench --trace 1`
//! counter block with the pinned one in `results/counters/`.
//!
//! The counters do not depend on the machine, so a difference is a
//! behaviour change. Only a regression fails:
//!
//! - a query's `count` changes (a wrong answer);
//! - its `nodes` or `candidates_scanned` rises (`over_budget` ranks above
//!   every number);
//! - a query or workload line is added or goes missing;
//! - a workload line's value (`plan.nodes_vs_ri_cluster=`) rises.
//!
//! Every other difference (a fall, or a move of an ungated counter such
//! as `candidate_computations`) passes and is reported, so that
//! `scripts/check-counters.sh --update` records it on purpose.

use std::collections::{HashMap, HashSet};

/// Per-query counters whose rise fails the ratchet.
const NO_RISE: [&str; 2] = ["nodes", "candidates_scanned"];

/// Outcome of one comparison, one line of text per differing line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Differences that fail the ratchet.
    pub regressions: Vec<String>,
    /// Differences that pass: falls and ungated moves.
    pub improvements: Vec<String>,
}

impl Ratchet {
    /// Whether the fresh block is no worse than the pinned one.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// One parsed `counter <workload> seed=<s> ...` line.
enum Line<'a> {
    /// A query line: its `key=value` fields in order.
    Query(Vec<(&'a str, &'a str)>),
    /// A workload line (`plan.nodes_vs_ri_cluster=1.000000`).
    Workload(&'a str),
}

/// Key the counter lines of `block` by query name (or workload metric
/// name), in file order. Lines that are not counter lines are skipped.
fn parse(block: &str) -> Vec<(&str, Line<'_>)> {
    let mut lines = Vec::new();
    for text in block.lines() {
        let mut tokens = text.split_whitespace();
        if tokens.next() != Some("counter") {
            continue;
        }
        let Some(name) = tokens.nth(2) else { continue };
        match name.split_once('=') {
            Some((metric, value)) => lines.push((metric, Line::Workload(value))),
            None => lines
                .push((name, Line::Query(tokens.filter_map(|kv| kv.split_once('=')).collect()))),
        }
    }
    lines
}

/// A gated counter's rank: its value, or above every value when it is
/// `over_budget` (or absent or unreadable).
fn rank(value: Option<&str>) -> u64 {
    value.and_then(|v| v.parse().ok()).unwrap_or(u64::MAX)
}

/// Compare the counter block `fresh` with the pinned block `pinned`.
pub fn compare(pinned: &str, fresh: &str) -> Ratchet {
    let mut out = Ratchet::default();
    let old_lines = parse(pinned);
    let new_lines = parse(fresh);
    let new_by_name: HashMap<&str, &Line<'_>> =
        new_lines.iter().map(|(name, line)| (*name, line)).collect();
    let old_names: HashSet<&str> = old_lines.iter().map(|(name, _)| *name).collect();
    for (name, old) in &old_lines {
        match (old, new_by_name.get(name)) {
            (_, None) => out.regressions.push(format!("{name}: missing")),
            (Line::Workload(a), Some(Line::Workload(b))) => {
                let fell = matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y)) if y < x);
                if fell {
                    out.improvements.push(format!("{name}: {a} -> {b}"));
                } else if a != b {
                    out.regressions.push(format!("{name}: rose {a} -> {b}"));
                }
            }
            (Line::Query(a), Some(Line::Query(b))) => compare_query(name, a, b, &mut out),
            _ => out.regressions.push(format!("{name}: line changed kind")),
        }
    }
    for (name, _) in &new_lines {
        if !old_names.contains(name) {
            out.regressions.push(format!("{name}: added"));
        }
    }
    out
}

/// The value of `key` among a query line's fields.
fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Compare one query's pinned fields `old` with its fresh fields `new`.
fn compare_query(name: &str, old: &[(&str, &str)], new: &[(&str, &str)], out: &mut Ratchet) {
    let mut regressions = Vec::new();
    let mut moves = Vec::new();
    let mut keys: Vec<&str> = old.iter().map(|(k, _)| *k).collect();
    keys.extend(new.iter().map(|(k, _)| *k).filter(|k| field(old, k).is_none()));
    for key in keys {
        let (a, b) = (field(old, key), field(new, key));
        if a == b {
            continue;
        }
        let shown = format!("{key} {} -> {}", a.unwrap_or("-"), b.unwrap_or("-"));
        // A count that appears (the query came in under budget) is not a
        // change of answer; one that goes comes with an `over_budget` rise.
        let count_changed = key == "count" && a.is_some() && b.is_some();
        if count_changed || (NO_RISE.contains(&key) && rank(b) > rank(a)) {
            regressions.push(shown);
        } else {
            moves.push(shown);
        }
    }
    if !regressions.is_empty() {
        out.regressions.push(format!("{name}: {}", regressions.join(", ")));
    } else if !moves.is_empty() {
        out.improvements.push(format!("{name}: {}", moves.join(", ")));
    }
}
