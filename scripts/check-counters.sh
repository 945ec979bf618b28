#!/usr/bin/env bash
# Ratchet the deterministic work counters: regenerate the `^counter` lines
# of a short traced perfbench run for every workload at seeds 1 and 201 and
# compare them with results/counters/<workload>.seed<seed>.txt. The
# perfbench workloads count with the factorized tree, so the sink walk's
# counters on plans that split come from `sink_counters` (crates/bench) and
# are pinned as the `sink-walk` workload. The counters (clusters
# read, DAG edges, recursion nodes, candidates, counts) do not depend on
# the machine. The comparison (`counter-ratchet`, crates/analyze/src/
# counters.rs) fails when a count changes, a query's `nodes` or
# `candidates_scanned` rises, a query is added or goes missing, or a
# workload line (`plan.nodes_vs_ri_cluster=`) rises. Other differences pass
# and are listed: `scripts/check-counters.sh --update` records them, as
# csce-lint's `--update-baseline` does for lint.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
fi

cargo build -q --release --manifest-path perfbench/Cargo.toml
cargo build -q --release -p csce-analyze --bin counter-ratchet
cargo build -q --release -p csce-bench --bin sink_counters
bin=perfbench/target/release/perfbench
ratchet=target/release/counter-ratchet
sink=target/release/sink_counters
mkdir -p results/counters
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
status=0
for seed in 1 201; do
  for w in plan-quality large-hetero enum-induced sink-walk; do
    pinned=results/counters/$w.seed$seed.txt
    if [[ $w == sink-walk ]]; then
      "$sink" --seed "$seed" > "$fresh"
    else
      "$bin" --workload "$w" --seed "$seed" --seconds 0.2 --trace 1 | grep '^counter' > "$fresh"
    fi
    if [[ $update == 1 ]]; then
      cp "$fresh" "$pinned"
      echo "updated $pinned"
    elif ! "$ratchet" "$pinned" "$fresh"; then
      status=1
    fi
  done
done
exit $status
