#!/usr/bin/env bash
# Pin the deterministic work counters: regenerate the `^counter` lines of
# a short traced perfbench run for every workload at seed 1 and compare
# them byte for byte with results/counters/<workload>.seed1.txt. The
# counters (clusters read, DAG edges, recursion nodes, candidates, counts)
# do not depend on the machine, so any difference is a behaviour change
# of the engine: a change that moves them on purpose regenerates the
# files with `scripts/check-counters.sh --update` and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
fi

cargo build -q --release --manifest-path perfbench/Cargo.toml
bin=perfbench/target/release/perfbench
mkdir -p results/counters
status=0
for w in plan-quality large-hetero enum-induced; do
  pinned=results/counters/$w.seed1.txt
  fresh=$("$bin" --workload "$w" --seed 1 --seconds 0.2 --trace 1 | grep '^counter')
  if [[ $update == 1 ]]; then
    printf '%s\n' "$fresh" > "$pinned"
    echo "updated $pinned"
  elif diff -u "$pinned" <(printf '%s\n' "$fresh"); then
    echo "$w: counters match $pinned"
  else
    echo "$w: counters differ from $pinned" >&2
    status=1
  fi
done
exit $status
