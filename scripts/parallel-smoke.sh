#!/usr/bin/env bash
# The work-stealing match engine end to end, through the release CLI
# (`cargo build --release --bin csce` first): a 4-thread run whose JSON
# run report must parse and carry one load-balance slot per worker, and
# the same query on one thread, which must claim chunks through the same
# driver and agree on the count; then both again vertex-induced, where
# every run must consult negation clusters. Every report carries the
# per-step work series, one entry per pattern vertex, merged across the
# workers so that each sums to its run's total.
set -euo pipefail
cd "$(dirname "$0")/.."

csce=$PWD/target/release/csce
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

python3 - <<'EOF'
import random
random.seed(7)
n = 60
edges = {(i, (i + 1) % n) for i in range(n)}
for _ in range(120):
    a, b = random.randrange(n), random.randrange(n)
    if a != b:
        edges.add((min(a, b), max(a, b)))
with open("smoke.csce", "w") as f:
    f.write(f"t {n} {len(edges)}\n")
    for i in range(n):
        f.write(f"v {i} {i % 3}\n")
    for a, b in sorted(edges):
        f.write(f"e {a} {b} - u\n")
EOF

query="(a:0)--(b:1)--(c:2)"
"$csce" match smoke.csce --query "$query" --threads 4 --stats json > smoke4.out
"$csce" match smoke.csce --query "$query" --threads 1 --stats json > smoke1.out
"$csce" match smoke.csce --query "$query" --variant v --threads 4 --stats json > smokev4.out
"$csce" match smoke.csce --query "$query" --variant v --threads 1 --stats json > smokev1.out

python3 - <<'EOF'
import json

def report(path):
    raw = open(path).read()
    return json.loads(raw[raw.index("{"):])

def check_series(path):
    r = report(path)
    for key, total in (("exec.depth_candidates", "exec.candidates_scanned"),
                       ("exec.depth_sce_hits", "exec.sce_cache_hits")):
        steps = r["series"][key]
        assert len(steps) == 3, (path, key, steps)
        assert sum(steps) == int(r["counters"][total]), (path, key, steps, r["counters"])
    assert "exec.intersection_input" in r["counters"], (path, r["counters"])

for path in ("smoke4.out", "smoke1.out", "smokev4.out", "smokev1.out"):
    check_series(path)

r = report("smoke4.out")
assert int(r["meta"]["threads"]) == 4, r["meta"]
assert len(r["series"]["exec.worker_nodes"]) == 4
assert sum(r["series"]["exec.worker_chunks"]) >= 1
assert int(r["meta"]["count"]) == int(r["counters"]["exec.embeddings"])
# One execution mode: a one-thread run is the same scheduled run with one
# worker, which claims its root candidates in chunks.
one = report("smoke1.out")
chunks = one["series"]["exec.worker_chunks"]
assert len(chunks) == 1 and chunks[0] >= 1, chunks
assert int(one["meta"]["count"]) == int(r["meta"]["count"]), (one["meta"], r["meta"])
print("parallel smoke OK:", r["meta"]["count"], "embeddings on 4 and 1 threads")

four, one = report("smokev4.out"), report("smokev1.out")
assert int(four["meta"]["count"]) == int(one["meta"]["count"]), (four["meta"], one["meta"])
assert len(four["series"]["exec.worker_nodes"]) == 4
assert len(one["series"]["exec.worker_nodes"]) == 1
for r in (four, one):
    assert int(r["counters"]["exec.negation_clusters"]) >= 1, r["counters"]
print("vertex-induced smoke OK:", four["meta"]["count"], "embeddings on 4 and 1 threads")
EOF
