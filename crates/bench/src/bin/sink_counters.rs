//! `sink_counters [--seed <n>]`: the sink walk's work counters on the
//! plans that split, one `counter sink-walk seed=<n> <query> ...` line per
//! query, for `scripts/check-counters.sh` to ratchet.
//!
//! The perfbench workloads count with the factorized tree, and
//! `enum-induced`'s patterns never split, so no benchmark runs the sink
//! walk on a splitting plan; yet that is where the walk's order decides
//! how often each component is searched again. This tool samples the
//! shapes of `large-hetero` (sparse 64–500-vertex patterns on the Patent
//! preset with 2000 labels, every variant) and `plan-quality` (16-vertex
//! edge-induced patterns on a quarter of Patent), keeps the plans that
//! split and whose factorized count needs at most 2^17 nodes, and counts
//! each with factorization off, which is the sink walk into a counting
//! sink. A search past 2^20 nodes is stopped and reads `over_budget`.
//! The counters do not depend on the machine.

use csce_ccsr::{build_ccsr, read_csr, Ccsr};
use csce_core::{Catalog, ExecStats, Executor, Plan, Planner, PlannerConfig, RunConfig, Scheduler};
use csce_datasets::{presets, sample_suite};
use csce_graph::generate::{chung_lu, randomize_vertex_labels};
use csce_graph::sample::PatternSampler;
use csce_graph::{Density, Graph, Variant};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Plans whose factorized count needs more nodes are left out.
const ADMIT_NODES: u64 = 1 << 17;
/// The sink walk stops past this many nodes.
const SINK_NODES: u64 = 1 << 20;

/// Run `plan` on one thread and stop it once it has visited more than
/// `budget` nodes: the count and counters, or `None` past the budget. A
/// run that ends within the budget is never stopped, so the verdict does
/// not depend on when the watcher wakes.
fn budgeted(
    catalog: &Catalog<'_>,
    plan: &Plan,
    config: RunConfig,
    budget: u64,
) -> Option<(u64, ExecStats)> {
    let scheduler = Arc::new(Scheduler::new(1, None));
    let progress = Arc::new(AtomicU64::new(0));
    let mut exec = Executor::new(catalog, plan, config)
        .with_scheduler(Arc::clone(&scheduler))
        .with_progress(Arc::clone(&progress));
    let finished = AtomicBool::new(false);
    let count = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !finished.load(Ordering::Acquire) {
                if progress.load(Ordering::Relaxed) > budget {
                    scheduler.request_stop();
                    return;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let count = exec.count();
        finished.store(true, Ordering::Release);
        count
    });
    let stats = exec.stats().clone();
    (stats.nodes <= budget).then_some((count, stats))
}

/// The counter line of one query, or `None` when its plan does not split
/// or its factorized count is over the admission budget. An error when
/// the sink walk's count differs from the factorized one.
fn counter_line(
    head: &str,
    name: &str,
    gc: &Ccsr,
    pattern: &Graph,
    variant: Variant,
) -> Result<Option<String>, String> {
    let star = read_csr(gc, pattern, variant);
    let catalog = Catalog::new(pattern, &star);
    let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
    if plan.root.split_count() == 0 {
        return Ok(None);
    }
    let Some((want, _)) = budgeted(&catalog, &plan, RunConfig::default(), ADMIT_NODES) else {
        return Ok(None);
    };
    let walk = RunConfig { factorize: false, ..RunConfig::default() };
    let Some((count, s)) = budgeted(&catalog, &plan, walk, SINK_NODES) else {
        return Ok(Some(format!("{head} {name} nodes=over_budget")));
    };
    if count != want {
        return Err(format!("{name}: the sink walk counted {count}, the factorized tree {want}"));
    }
    Ok(Some(format!(
        "{head} {name} count={count} nodes={} candidates_scanned={} candidate_computations={} \
         sce_cache_hits={}",
        s.nodes, s.candidates_scanned, s.candidate_computations, s.sce_cache_hits
    )))
}

fn run(seed: u64) -> Result<(), String> {
    let head = format!("counter sink-walk seed={seed}");
    let err = |e: csce_ccsr::CcsrError| e.to_string();

    let hetero = randomize_vertex_labels(&presets::patent().graph, 2000, 0xF10);
    let gc = build_ccsr(&hetero).map_err(err)?;
    let mut sampler = PatternSampler::new(&hetero, seed);
    for size in [64, 128, 256, 500] {
        for i in 0..12 {
            let Some(sp) = sampler.sample(size, Density::Sparse) else { continue };
            for variant in Variant::ALL {
                let name = format!("Patent-2000/S{size}/p{i}/{}", variant.tag());
                if let Some(line) = counter_line(&head, &name, &gc, &sp.pattern, variant)? {
                    println!("{line}");
                }
            }
        }
    }

    let quarter = chung_lu(5_000, 22_000, 2.6, 20, 0, false, 0x9A7E);
    let gc = build_ccsr(&quarter).map_err(err)?;
    for suite in sample_suite(&quarter, &[16], &[Density::Sparse], 100, seed) {
        for (i, p) in suite.patterns.iter().enumerate() {
            let name = format!("Patent/{}/p{i}/E", suite.name);
            if let Some(line) = counter_line(&head, &name, &gc, p, Variant::EdgeInduced)? {
                println!("{line}");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => Ok(1),
        [flag, value] if flag == "--seed" => {
            value.parse().map_err(|_| format!("bad value for --seed: {value}"))
        }
        _ => Err("usage: sink_counters [--seed <n>]".to_string()),
    };
    match seed.and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sink_counters: {e}");
            ExitCode::FAILURE
        }
    }
}
