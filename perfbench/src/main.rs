//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

#[global_allocator]
static ALLOC: perfbench::alloc::BatchedTracking = perfbench::alloc::BatchedTracking;

use perfbench::{Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <plan-quality|large-hetero|enum-induced> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Processes the untraced run is split over.
const PARTS: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a part process: the admitted query indices its parent passed.
    part: Option<Vec<usize>>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut part = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            "--part" => {
                let list = value.split(',').map(|i| i.parse().map_err(bad));
                part = Some(list.collect::<Result<Vec<usize>, _>>()?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace, part })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let printed = match (&args.part, args.trace) {
        (Some(admitted), _) => perfbench::run_part(w, seed, seconds, admitted).map(|text| {
            print!("{text}");
        }),
        (None, true) => perfbench::run(w, seed, seconds, true, Scale::Full).map(|p| {
            print!("{}", p.text);
            println!("{}", p.json);
        }),
        (None, false) => std::env::current_exe()
            .map_err(|e| format!("cannot find the benchmark binary: {e}"))
            .and_then(|exe| perfbench::run_in_parts(&exe, w, seed, seconds, PARTS))
            .map(|p| {
                print!("{}", p.text);
                println!("{}", p.json);
            }),
    };
    match printed {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} seed {seed}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
