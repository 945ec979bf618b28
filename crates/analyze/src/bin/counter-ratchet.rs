//! Work-counter ratchet driver: compares a fresh counter block with the
//! pinned one ([`csce_analyze::counters`]).
//!
//! ```text
//! counter-ratchet PINNED FRESH
//! ```
//!
//! Exit status 0 when `FRESH` is no worse than `PINNED` (differences that
//! pass are listed, to be recorded with `scripts/check-counters.sh
//! --update`); 1 on a regression; 2 on usage or I/O errors.

use csce_analyze::counters::compare;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [pinned, fresh] = args.as_slice() else {
        eprintln!("usage: counter-ratchet PINNED FRESH");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (old, new) = match (read(pinned), read(fresh)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("counter-ratchet: {e}");
            return ExitCode::from(2);
        }
    };
    let ratchet = compare(&old, &new);
    for line in &ratchet.regressions {
        eprintln!("regressed: {line}");
    }
    if !ratchet.passed() {
        eprintln!("{pinned}: {} counter line(s) regressed", ratchet.regressions.len());
        return ExitCode::FAILURE;
    }
    if ratchet.improvements.is_empty() {
        println!("{pinned}: counters match");
    } else {
        for line in &ratchet.improvements {
            println!("improved: {line}");
        }
        println!(
            "{pinned}: {} counter line(s) improved or moved on ungated counters; \
             record them with scripts/check-counters.sh --update",
            ratchet.improvements.len()
        );
    }
    ExitCode::SUCCESS
}
