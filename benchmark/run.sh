#!/usr/bin/env bash
# The benchmark's one command. Run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#       Builds the benchmark, runs each of the four workloads in its own
#       child process (so peak_rss_mb is per workload), prints every metric
#       by name with unit and direction, runs the correctness checks, and
#       exits non-zero if any check failed. --trace runs every workload a
#       second time through the instrumented paths and prints the per-layer
#       metrics; --smoke shrinks every workload to <= 2 s (values are then
#       not comparable).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       The form BENCHMARK.json's `command` is called with: one workload,
#       one JSON result object as the last line of standard output.
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/moqo-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

seed=1
seconds=20
trace=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --smoke) extra+=(--smoke); shift ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke]" >&2; exit 2 ;;
    esac
done

failed=0
for workload in seq_paper seq_manyobj par_fanout door_replay; do
    for t in $(seq 0 "$trace"); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$t" --human ${extra[@]+"${extra[@]}"} || failed=1
    done
done
if [ "$failed" -ne 0 ]; then
    echo "benchmark: at least one workload failed its checks" >&2
    exit 1
fi
