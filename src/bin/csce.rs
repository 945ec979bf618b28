//! `csce` — command-line front end for the CSCE subgraph matching engine.
//!
//! ```text
//! csce cluster <graph.csce> -o <out.ccsr>         # offline: build + persist G_C
//! csce stats   <graph.csce|graph.ccsr>            # Table IV-style statistics
//! csce match   <data> [pattern.csce] [options]    # count / enumerate embeddings
//!     --query "(a:0)-[5]->(b:1)"  inline pattern instead of a file
//!     --variant e|v|h      matching variant (default e)
//!     --enumerate [N]      print embeddings (all, or first N)
//!     --plan ri|ri+c|csce|csce+ldsf
//!                          planner preset (default csce)
//!     --time-limit SECS    abort after a budget
//!     --threads N          parallel matching workers (counting and
//!                          enumeration; enumerated output is sorted)
//!     --stats [text|json]  full run report (phase tree + counters) on stdout
//!     --progress SECS      periodic heartbeat on stderr while matching
//!     --explain            print the plan instead of executing
//! csce fuzz [options]                             # differential testing
//!     --runs N             number of random cases (default 200)
//!     --seed S             master seed (default 42)
//!     --threads N          parallel engine probes use N threads (default 4)
//!     --out DIR            where to write `.repro` files (default .)
//!     --baseline-time-limit SECS   per-baseline probe budget (default 2)
//!     --no-baselines       engine/oracle self-consistency only
//!     --inject-bug         sabotage the engine to demo catch + shrink
//!     --replay FILE        re-run a `.repro` instead of fuzzing
//! ```
//!
//! Graph files use the CSCE text format (`csce_graph::io`); a `.ccsr`
//! data file is a persisted cluster set from `csce cluster`.

use csce::engine::{Engine, PlannerConfig, RunConfig};
use csce::graph::io;
use csce::obs::{Recorder, RunReport};
use csce::{Graph, Variant};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("match") => cmd_match(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `csce help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "csce — large subgraph matching for heterogeneous graphs\n\n\
         USAGE:\n  csce cluster <graph.csce> -o <out.ccsr>\n  \
         csce stats <graph.csce|graph.ccsr>\n  \
         csce match <data.csce|data.ccsr> <pattern.csce | --query \"(a:0)-->(b:1)\">\n            \
         [--variant e|v|h] [--enumerate [N]] [--plan ri|ri+c|csce|csce+ldsf]\n            \
         [--time-limit SECS] [--threads N] [--stats [text|json]]\n            \
         [--progress SECS] [--explain]\n  \
         csce validate <graph.csce|data.ccsr> [--query \"...\"] [--variant e|v|h]\n            \
         [--plan ri|ri+c|csce|csce+ldsf]\n  \
         csce fuzz [--runs N] [--seed S] [--threads N] [--out DIR]\n            \
         [--baseline-time-limit SECS] [--no-baselines] [--inject-bug]\n  \
         csce fuzz --replay <file.repro>\n  \
         csce dot <graph.csce | --query \"...\">"
    );
}

/// Load a data graph either as text (clustered on the fly) or as a
/// persisted `.ccsr` cluster set, timing the work under a `load` phase.
fn load_engine(path: &str, rec: &Recorder) -> Result<Engine, String> {
    let _load = rec.span("load");
    if path.ends_with(".ccsr") {
        let ccsr = rec
            .time("deserialize", || csce::ccsr::persist::load(path))
            .map_err(|e| e.to_string())?;
        Ok(Engine::from_ccsr(ccsr))
    } else {
        let g = rec.time("parse", || io::load_csce(path)).map_err(|e| e.to_string())?;
        rec.time("cluster", || Engine::try_build(&g)).map_err(|e| e.to_string())
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    io::load_csce(path).map_err(|e| e.to_string())
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let (mut input, mut output) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => output = Some(it.next().ok_or("missing -o value")?.clone()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => input = Some(other.to_string()),
        }
    }
    let input = input.ok_or("usage: csce cluster <graph.csce> -o <out.ccsr>")?;
    let output = output.ok_or("missing -o <out.ccsr>")?;
    let g = load_graph(&input)?;
    let t0 = std::time::Instant::now();
    let engine = Engine::try_build(&g).map_err(|e| e.to_string())?;
    println!(
        "clustered {} vertices / {} edges into {} clusters in {:?}",
        g.n(),
        g.m(),
        engine.ccsr().cluster_count(),
        t0.elapsed()
    );
    csce::ccsr::persist::save(engine.ccsr(), &output).map_err(|e| e.to_string())?;
    println!("wrote {output}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag {flag:?}"));
    }
    let path = args.first().ok_or("usage: csce stats <graph>")?;
    if path.ends_with(".ccsr") {
        let engine = load_engine(path, &Recorder::disabled())?;
        let gc = engine.ccsr();
        println!("persisted G_C over {} vertices", gc.n());
        println!("{}", csce::ccsr::CcsrStats::of(gc));
    } else {
        let g = load_graph(path)?;
        println!("{}", csce::graph::GraphStats::of(&g));
    }
    Ok(())
}

/// `csce validate <graph.csce|data.ccsr> [--query "..." | pattern.csce]
/// [--variant e|v|h] [--plan ri|ri+c|csce|csce+ldsf]`: run the structural
/// checks and print a PASS/FAIL report via `csce-obs`.
///
/// A `.csce` text graph is checked as a graph (`csce-analyze`), then
/// clustered; a `.ccsr` file is decoded once. Either way the `G_C` gets
/// its one check, [`csce::ccsr::Ccsr::check`], reported as
/// `ccsr.structure` (decoding runs it, and rejects what is not the
/// canonical encoding of a valid `G_C`). With a pattern, the generated plan
/// artifacts (DAG, LDSF order, NEC classes, cache slots) are checked
/// against the pattern too.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    use csce::analyze::{plan_check, Validate, ValidationReport};
    use csce::ccsr::persist::{self, PersistError};
    const STRUCTURE: &str = "ccsr.structure";
    let mut inputs = QueryInputs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !inputs.take(a, &mut it)? {
            return Err(format!("unknown flag {a:?}"));
        }
    }
    let (data, pattern) = inputs
        .resolve("usage: csce validate <graph.csce|data.ccsr> [pattern.csce | --query \"...\"]")?;

    let mut report;
    let engine;
    if data.ends_with(".ccsr") {
        report = ValidationReport::new(data);
        engine = match persist::load(data) {
            Ok(gc) => Some(Engine::from_ccsr(gc)),
            Err(PersistError::Io(e)) => return Err(format!("reading {data}: {e}")),
            Err(e) => {
                report.violation(STRUCTURE, e.to_string());
                None
            }
        };
    } else {
        let g = load_graph(data)?;
        report = g.validate();
        report.subject = data.to_string();
        let e = Engine::try_build(&g).map_err(|e| e.to_string())?;
        if let Err(c) = e.ccsr().check() {
            report.violation(STRUCTURE, c.to_string());
        }
        engine = Some(e);
    }
    report.ran(STRUCTURE);

    if let Some(p) = pattern {
        report.merge(p.validate());
        match &engine {
            Some(e) => {
                let recorder = Recorder::disabled();
                let query = e
                    .prepare(&p, inputs.variant, inputs.planner, &recorder)
                    .map_err(|err| err.to_string())?;
                report.merge(plan_check::validate_plan(&query.catalog(), query.plan()));
            }
            None => {
                // The G_C was rejected; there is no data graph to plan on.
                let mut r = ValidationReport::new("plan (skipped: invalid G_C)");
                r.ran("plan.skipped");
                report.merge(r);
            }
        }
    }

    print!("{}", report.to_run_report().to_text());
    if report.is_ok() {
        return Ok(());
    }
    let first = report.details().first();
    Err(format!(
        "validation failed: {} violation(s){}",
        report.total_violations(),
        first.map(|v| format!("; first: [{}] {}", v.checker, v.detail)).unwrap_or_default()
    ))
}

/// `csce fuzz`: drive the `csce-fuzz` differential harness — random
/// cases through every variant, the full engine configuration matrix,
/// the baselines and the oracle — and write the first divergence (after
/// shrinking and re-validation) as a replayable `.repro` file. With
/// `--replay FILE`, re-run one repro's probe instead; exits nonzero while
/// the divergence still reproduces.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    use csce::fuzz::referee::{diverges, EngineUnderTest, InjectedBugEngine, RealEngine};
    use csce::fuzz::{repro, run_fuzz, FuzzConfig};
    let mut config = FuzzConfig::default();
    let mut threads: usize = 4;
    let mut out_dir = String::from(".");
    let mut replay_path: Option<String> = None;
    let mut inject_bug = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                config.runs =
                    it.next().ok_or("missing --runs value")?.parse().map_err(|_| "bad --runs")?;
            }
            "--seed" => {
                config.seed =
                    it.next().ok_or("missing --seed value")?.parse().map_err(|_| "bad --seed")?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("missing --threads value")?
                    .parse()
                    .map_err(|_| "bad --threads")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--out" => out_dir = it.next().ok_or("missing --out value")?.clone(),
            "--baseline-time-limit" => {
                let limit = parse_secs("--baseline-time-limit", it.next())?;
                if limit.is_zero() {
                    return Err("--baseline-time-limit must be positive".into());
                }
                config.sweep.baseline_time_limit = Some(limit);
            }
            "--no-baselines" => config.sweep.check_baselines = false,
            "--inject-bug" => inject_bug = true,
            "--replay" => replay_path = Some(it.next().ok_or("missing --replay value")?.clone()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    config.sweep.thread_counts = if threads == 1 { vec![1] } else { vec![1, threads] };
    let engine: &dyn EngineUnderTest = if inject_bug { &InjectedBugEngine } else { &RealEngine };

    if let Some(path) = replay_path {
        let r = repro::Repro::load(&path)?;
        println!(
            "replaying {path}: seed {} case {} variant {} referee {}",
            r.seed,
            r.case,
            r.variant,
            r.referee.label()
        );
        println!("recorded: oracle {} vs {}", r.expected, r.observed);
        let report = repro::replay(&r, engine);
        print!("{}", report.validation.to_run_report().to_text());
        println!("now: oracle {} vs {}", report.expected_now, report.observed_now);
        if report.reproduces {
            return Err("divergence still reproduces".to_string());
        }
        println!("divergence no longer reproduces — fixed");
        return Ok(());
    }

    println!(
        "fuzzing: {} runs, seed {}, threads {:?}, baselines {}",
        config.runs,
        config.seed,
        config.sweep.thread_counts,
        if config.sweep.check_baselines { "on" } else { "off" }
    );
    let outcome = run_fuzz(&config, engine, &mut |line| eprintln!("[fuzz] {line}"));
    println!(
        "{} cases, {} engine probes, {} baseline probes ({} timed out)",
        outcome.cases_run,
        outcome.stats.engine_runs,
        outcome.stats.baseline_runs,
        outcome.stats.baseline_timeouts
    );
    match outcome.failure {
        None => {
            println!("no divergences");
            Ok(())
        }
        Some(failure) => {
            let r = &failure.repro;
            let path = format!("{}/fuzz-seed{}-case{}.repro", out_dir, r.seed, r.case);
            r.save(&path)?;
            print!("{}", failure.validation.to_run_report().to_text());
            println!(
                "divergence: case {} [{}] variant {} referee {}",
                r.case,
                failure.descr,
                r.variant,
                r.referee.label()
            );
            println!("oracle {} vs {}", r.expected, r.observed);
            println!(
                "shrunk to data n={} m={} / pattern n={} m={}; wrote {path}",
                r.data.n(),
                r.data.m(),
                r.pattern.n(),
                r.pattern.m()
            );
            if !diverges(r.expected, &r.observed) {
                println!("note: shrunk probe no longer diverges (flaky or timing-dependent)");
            }
            Err(format!("1 divergence found; repro written to {path}"))
        }
    }
}

/// `csce dot <graph.csce | --query "...">`: render to Graphviz DOT.
fn cmd_dot(args: &[String]) -> Result<(), String> {
    let g = match args {
        [flag, q] if flag == "--query" => {
            csce::graph::query::parse_pattern(q).map_err(|e| e.to_string())?
        }
        [path] => load_graph(path)?,
        _ => return Err("usage: csce dot <graph.csce>  or  csce dot --query \"...\"".into()),
    };
    print!("{}", csce::graph::export::to_dot(&g, "g"));
    Ok(())
}

/// Parse `flag`'s value as seconds: any finite, non-negative number whose
/// [`Duration`] fits (`0` is allowed; callers that need a positive value
/// reject `Duration::ZERO`). The error names the flag.
fn parse_secs(flag: &str, value: Option<&String>) -> Result<Duration, String> {
    let value = value.ok_or(format!("missing {flag} value"))?;
    let secs: f64 = value.parse().map_err(|_| format!("bad {flag} value {value:?}"))?;
    Duration::try_from_secs_f64(secs).map_err(|e| format!("bad {flag} value {value:?}: {e}"))
}

/// The arguments `match` and `validate` share: `<data> [pattern.csce |
/// --query Q]`, `--variant e|v|h` and `--plan ri|ri+c|csce|csce+ldsf`.
struct QueryInputs<'a> {
    positional: Vec<&'a str>,
    query: Option<&'a str>,
    variant: Variant,
    planner: PlannerConfig,
}

impl Default for QueryInputs<'_> {
    fn default() -> Self {
        QueryInputs {
            positional: Vec::new(),
            query: None,
            variant: Variant::EdgeInduced,
            planner: PlannerConfig::csce(),
        }
    }
}

impl<'a> QueryInputs<'a> {
    /// Take `arg` (and its value from `rest`) if it is a shared argument;
    /// `Ok(false)` leaves an unrecognized flag to the command.
    fn take(
        &mut self,
        arg: &'a str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = |flag: &str| rest.next().ok_or(format!("missing {flag} value"));
        match arg {
            "--query" => self.query = Some(value(arg)?),
            "--variant" => self.variant = value(arg)?.parse()?,
            "--plan" => self.planner = value(arg)?.parse()?,
            flag if flag.starts_with('-') => return Ok(false),
            _ => self.positional.push(arg),
        }
        Ok(true)
    }

    /// Resolve `<data> [pattern.csce | --query Q]` into the data path and
    /// the pattern, if one was given; `usage` is the error otherwise.
    fn resolve(&self, usage: &str) -> Result<(&'a str, Option<Graph>), String> {
        match (self.positional.as_slice(), self.query) {
            (&[data], None) => Ok((data, None)),
            (&[data], Some(q)) => {
                let p = csce::graph::query::parse_pattern(q).map_err(|e| e.to_string())?;
                Ok((data, Some(p)))
            }
            (&[data, pattern], None) => Ok((data, Some(load_graph(pattern)?))),
            _ => Err(usage.to_string()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum StatsFormat {
    Text,
    Json,
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    let mut inputs = QueryInputs::default();
    let mut enumerate: Option<u64> = None;
    let mut time_limit = None;
    let mut explain = false;
    let mut threads: usize = 1;
    let mut stats_format: Option<StatsFormat> = None;
    let mut progress_every: Option<Duration> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if inputs.take(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("missing --threads value")?
                    .parse()
                    .map_err(|_| "bad --threads")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--enumerate" => {
                enumerate = Some(match it.peek() {
                    Some(n) if !n.starts_with("--") => {
                        it.next().unwrap().parse().map_err(|_| "bad --enumerate count")?
                    }
                    _ => u64::MAX,
                });
            }
            "--stats" => {
                stats_format = Some(match it.peek().map(|s| s.as_str()) {
                    Some("text") => {
                        it.next();
                        StatsFormat::Text
                    }
                    Some("json") => {
                        it.next();
                        StatsFormat::Json
                    }
                    _ => StatsFormat::Text,
                });
            }
            "--progress" => {
                let every = parse_secs("--progress", it.next())?;
                if every.is_zero() {
                    return Err("--progress must be positive".into());
                }
                progress_every = Some(every);
            }
            "--time-limit" => time_limit = Some(parse_secs("--time-limit", it.next())?),
            "--explain" => explain = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let usage = "usage: csce match <data> <pattern>  or  csce match <data> --query \"...\"";
    let (data, p) = match inputs.resolve(usage)? {
        (data, Some(p)) => (data, p),
        (_, None) => return Err(usage.to_string()),
    };
    let (variant, planner) = (inputs.variant, inputs.planner);
    let recorder = if stats_format.is_some() { Recorder::new() } else { Recorder::disabled() };
    let engine = load_engine(data, &recorder)?;
    let t0 = Instant::now();
    let query = engine.prepare(&p, variant, planner, &recorder).map_err(|e| e.to_string())?;

    if explain {
        print!("{}", csce::engine::plan::explain::explain(&query.catalog(), query.plan()));
        return Ok(());
    }

    let run = RunConfig { time_limit, ..Default::default() };
    let progress = Arc::new(AtomicU64::new(0));
    let heartbeat =
        progress_every.map(|every| spawn_heartbeat(every, Arc::clone(&progress), time_limit));
    let progress_sink = progress_every.map(|_| Arc::clone(&progress));
    let result = match enumerate {
        None => query.count(run, threads, progress_sink).map(|out| (out, None)),
        Some(limit) => {
            // `--enumerate` without a count means "all embeddings".
            let limit = (limit != u64::MAX).then(|| usize::try_from(limit).unwrap_or(usize::MAX));
            query.collect(run, threads, progress_sink, limit).map(|(out, f)| (out, Some(f)))
        }
    };
    let wall = t0.elapsed();
    if let Some((stop, handle)) = heartbeat {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
    let (out, embeddings) = result.map_err(|e| e.to_string())?;
    let mut partial = String::new();
    if out.stats.timed_out {
        partial.push_str(" — TIME LIMIT, partial");
    }
    if out.stats.saturated {
        partial.push_str(" — SATURATED at u64::MAX, a lower bound");
    }
    match embeddings {
        None => {
            println!("{} embeddings ({variant}){partial}", out.count);
            eprintln!(
                "[csce] read {:?}  plan {:?}  exec {:?}  |  {} nodes, SCE hit rate {:.1}%, {:.0} embeddings/s",
                out.read_time,
                out.plan_time,
                out.exec_time,
                out.stats.nodes,
                out.stats.sce_hit_rate() * 100.0,
                out.throughput(),
            );
        }
        Some(embeddings) => {
            for f in &embeddings {
                println!("{f:?}");
            }
            println!("-- {} embeddings printed{partial}", embeddings.len());
            eprintln!(
                "[csce] {} nodes, SCE hit rate {:.1}%",
                out.stats.nodes,
                out.stats.sce_hit_rate() * 100.0
            );
        }
    }
    if let Some(format) = stats_format {
        let report = match_report(data, planner, threads, wall, &query, &out, &recorder);
        match format {
            StatsFormat::Text => print!("{}", report.to_text()),
            StatsFormat::Json => println!("{}", report.to_json_string()),
        }
    }
    Ok(())
}

/// Start the `--progress` heartbeat: every `every`, print the live
/// recursion-node count (and, with a time limit, the remaining budget) to
/// stderr until the returned flag is set.
fn spawn_heartbeat(
    every: Duration,
    progress: Arc<AtomicU64>,
    time_limit: Option<Duration>,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let start = Instant::now();
        let mut next_tick = every;
        loop {
            std::thread::sleep(Duration::from_millis(50).min(every));
            if stop_flag.load(Ordering::Relaxed) {
                return;
            }
            if start.elapsed() < next_tick {
                continue;
            }
            next_tick += every;
            let elapsed = start.elapsed();
            let nodes = progress.load(Ordering::Relaxed);
            match time_limit {
                Some(limit) if limit > elapsed => eprintln!(
                    "[csce] {} nodes visited, {:.1}s elapsed, {:.1}s of budget left",
                    nodes,
                    elapsed.as_secs_f64(),
                    (limit - elapsed).as_secs_f64()
                ),
                Some(_) => eprintln!(
                    "[csce] {} nodes visited, {:.1}s elapsed, over budget — stopping soon",
                    nodes,
                    elapsed.as_secs_f64()
                ),
                None => eprintln!(
                    "[csce] {} nodes visited, {:.1}s elapsed",
                    nodes,
                    elapsed.as_secs_f64()
                ),
            }
        }
    });
    (stop, handle)
}

/// Assemble the `--stats` run report: identification, the recorder's
/// phase tree, and every counter the run produced.
fn match_report(
    data: &str,
    planner: PlannerConfig,
    threads: usize,
    wall: Duration,
    query: &csce::engine::Query<'_>,
    out: &csce::QueryOutput,
    recorder: &Recorder,
) -> RunReport {
    let mut report = RunReport::new();
    report
        .meta("algo", "CSCE")
        .meta("data", data)
        .meta("variant", query.plan().variant)
        .meta("plan", planner.name())
        .meta("threads", threads)
        .meta("count", out.count)
        .meta("timed_out", out.stats.timed_out)
        .meta("saturated", out.stats.saturated);
    report.phases = recorder.snapshot();
    out.stats.export(&query.plan().order, &mut report.metrics);
    // Per-worker load-balance view (one element per worker thread).
    report.metrics.set_series("exec.worker_nodes", out.workers.iter().map(|w| w.nodes).collect());
    report
        .metrics
        .set_series("exec.worker_chunks", out.workers.iter().map(|w| w.chunks_claimed).collect());
    report
        .metrics
        .set_series("exec.worker_embeddings", out.workers.iter().map(|w| w.embeddings).collect());
    let read = query.read_stats();
    report.metrics.set_counter("read.clusters_read", read.clusters_read);
    report.metrics.set_counter("read.rows_decompressed", read.rows_decompressed);
    report.metrics.set_counter("read.missing_clusters", read.missing_clusters);
    report.metrics.set_counter("read.bytes", query.read_bytes() as u64);
    report.metrics.set_gauge("time.read_seconds", out.read_time.as_secs_f64());
    report.metrics.set_gauge("time.plan_seconds", out.plan_time.as_secs_f64());
    report.metrics.set_gauge("time.exec_seconds", out.exec_time.as_secs_f64());
    report.metrics.set_gauge("time.wall_seconds", wall.as_secs_f64());
    report.metrics.set_gauge("exec.embeddings_per_second", out.throughput());
    report
}
