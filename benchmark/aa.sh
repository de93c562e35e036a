#!/usr/bin/env bash
# A/A check: runs two sets of runs of the *same* build and compares them.
#
#   benchmark/aa.sh [RUNS_PER_SET] [SECONDS]      (defaults: 5 runs, 20 s)
#
# Run r of either set uses seed 1000 + r, so the two sets measure identical
# inputs and run r differs from run r + 1 the way the driver's runs do. For
# every (end-to-end metric, workload) pair it prints each set's median and
# quartiles and the spread (inter-quartile distance over the median), and it
# fails when
#   * the two sets' medians differ by more than the metric's bound in
#     BENCHMARK.json, or
#   * a spread exceeds the bound (setup_s excepted).
# A spread above a third of the bound is flagged: a bound should be at least
# three times the spread seen here before it is tightened.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
runs="${1:-5}"
seconds="${2:-20}"
out="$here/out/aa"
mkdir -p "$out"
rm -f "$out"/*.jsonl

# Build once, outside the timed runs.
"$here/run.sh" --workload seq_paper --seed 0 --seconds 1 --trace 0 --smoke >/dev/null

for set in 1 2; do
    for workload in seq_paper seq_manyobj par_fanout door_replay; do
        for r in $(seq 1 "$runs"); do
            "$here/run.sh" --workload "$workload" --seed $((1000 + r)) \
                --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$set-$workload.jsonl" || true
        done
    done
done

python3 - "$here/../BENCHMARK.json" "$out" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bad = False
print(f"{'workload':12} {'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    sets = [[json.loads(l) for l in open(f"{out}/{s}-{w}.jsonl")] for s in (1, 2)]
    for rows in sets:
        for row in rows:
            if not row["correct"] or row["failed"]:
                print(f"FAIL {w}: a run reported failed operations")
                bad = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, rows in enumerate(sets, 1):
            values = [row["metrics"][name]["value"] for row in rows]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            medians.append(med)
            note = ""
            if name != "setup_s" and spread > bound:
                note, bad = "  FAIL spread > bound", True
            elif name != "setup_s" and spread > bound / 3:
                note = "  (spread > bound/3)"
            print(f"{w:12} {name:16} {s:>3} {med:12.4f} {q[0]:12.4f} {q[2]:12.4f} {spread:7.3f} {bound:6.2f}{note}")
        first, second = medians
        differ = abs(second - first) / first if first else 0.0
        if differ > bound:
            print(f"FAIL {w} {name}: set medians differ by {differ:.3f} > {bound}")
            bad = True
sys.exit(1 if bad else 0)
PY
