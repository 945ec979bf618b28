#!/usr/bin/env bash
# Ratchet the deterministic work counters: regenerate the `^counter` lines
# of a short traced perfbench run for every workload at seed 1 and compare
# them with results/counters/<workload>.seed1.txt. The counters (clusters
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
bin=perfbench/target/release/perfbench
ratchet=target/release/counter-ratchet
mkdir -p results/counters
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
status=0
for w in plan-quality large-hetero enum-induced; do
  pinned=results/counters/$w.seed1.txt
  "$bin" --workload "$w" --seed 1 --seconds 0.2 --trace 1 | grep '^counter' > "$fresh"
  if [[ $update == 1 ]]; then
    cp "$fresh" "$pinned"
    echo "updated $pinned"
  elif ! "$ratchet" "$pinned" "$fresh"; then
    status=1
  fi
done
exit $status
