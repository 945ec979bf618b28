//! # csce-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§VII). Each `src/bin/figN.rs` / `tableN.rs` binary
//! prints the rows or series of one exhibit on stdout and writes no file;
//! `benches/` holds Criterion micro-benchmarks of the hot paths and the
//! design-choice ablations. The measured, layer-timed benchmark is the
//! separate `perfbench` package.
//!
//! This library provides the shared machinery: the one reader of the
//! `CSCE_TIME_LIMIT` / `CSCE_REPEATS` parameters, aligned table printing
//! with the paper's byte and peak-RSS cells, and a uniform sweep runner
//! over CSCE plus every applicable baseline.

#![forbid(unsafe_code)]

pub mod params;
pub mod runner;
pub mod table;

pub use params::{env_param, UsageError};
pub use runner::{run_all, run_baseline, run_csce, sum_by_algo, AlgoResult, BenchContext};
pub use table::{format_bytes, mean_secs, partial, peak_rss, Table, PARTIAL_NOTE};
