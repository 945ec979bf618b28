//! Workspace source-policy driver: parses every library source once, runs
//! the seven rules (`panic-reach`, `no-panic`, `hot-cast`, `lossy-cast`,
//! `shared-state`, `wildcard-variant-arm`, `module-doc`) and ratchets the
//! findings against the function-granular baseline.
//!
//! ```text
//! csce-lint [--root DIR] [--baseline FILE] [--update-baseline] [--sarif FILE]
//! ```
//!
//! Exit status 0 when every function is at or under its recorded ceiling
//! and no ceiling is stale; 1 on a ratchet failure; 2 on usage or I/O
//! errors.

use csce_analyze::rules::{run_static, to_sarif, StaticBaseline, BASELINE_PATH, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    baseline: PathBuf,
    update_baseline: bool,
    sarif: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut sarif = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a directory")?),
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--update-baseline" => update_baseline = true,
            "--sarif" => sarif = Some(PathBuf::from(it.next().ok_or("--sarif needs a file")?)),
            "--help" | "-h" => {
                return Err("usage: csce-lint [--root DIR] [--baseline FILE] \
                            [--update-baseline] [--sarif FILE]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let baseline = baseline.unwrap_or_else(|| root.join(BASELINE_PATH));
    Ok(Args { root, baseline, update_baseline, sarif })
}

fn run(args: &Args) -> Result<bool, String> {
    let report =
        run_static(&args.root).map_err(|e| format!("analyzing {}: {e}", args.root.display()))?;
    if report.files == 0 {
        return Err(format!("no library sources found under {}", args.root.display()));
    }
    let summary: Vec<String> = RULES
        .iter()
        .map(|r| format!("{r}: {}", report.findings.iter().filter(|f| f.rule == *r).count()))
        .collect();
    eprintln!(
        "csce-lint: {} files, {} fns, {} call edges, {} hot fns ({} entries), {} findings ({})",
        report.files,
        report.functions,
        report.edges,
        report.hot_fns,
        report.entries_found,
        report.findings.len(),
        summary.join(", ")
    );

    if let Some(path) = &args.sarif {
        std::fs::write(path, to_sarif(&report).to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("csce-lint: wrote {}", path.display());
    }

    if args.update_baseline {
        let text = StaticBaseline::from_findings(&report.findings).to_text();
        std::fs::write(&args.baseline, text)
            .map_err(|e| format!("writing {}: {e}", args.baseline.display()))?;
        eprintln!("csce-lint: wrote {}", args.baseline.display());
        return Ok(true);
    }

    let baseline = match std::fs::read_to_string(&args.baseline) {
        Ok(text) => {
            StaticBaseline::parse(&text).map_err(|e| format!("{}: {e}", args.baseline.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => StaticBaseline::default(),
        Err(e) => return Err(format!("reading {}: {e}", args.baseline.display())),
    };
    let failures = baseline.check(&report.findings);
    for f in &failures {
        eprintln!("csce-lint: FAIL {f}");
    }
    if failures.is_empty() {
        eprintln!("csce-lint: OK (every finding within its baseline ceiling)");
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("csce-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
