#!/usr/bin/env bash
# Build the harness and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload, as BENCHMARK.json's `command` is called.
#       Prints every metric as `name value unit`; the last line is the
#       JSON object the driver reads.
#
#   run.sh [--seed N] [--seconds S] [--out DIR]
#       The four workloads, untraced then traced, each in its own
#       process. Exits 1 if any operation failed. `--out benchmark/baseline`
#       refreshes the committed numbers.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
workloads=(request_path control_plane solver_scaling event_loops)

workload="" seed=1234 seconds="" trace=0 out="$here/out"
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --out) out=$2 ;;
        *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done
if [ -z "$seconds" ]; then
    seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
        "$root/BENCHMARK.json")
fi

target=$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
harness=$target/release/spotweb-benchmark

run_one() { # workload trace
    local traced=()
    case "$2" in
        0) ;;
        1) traced=(--traced) ;;
        *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
    esac
    "$harness" --workload "$1" --seed "$seed" --seconds "$seconds" "${traced[@]}" \
        --out "$out" --manifest "$root/BENCHMARK.json"
}

if [ -n "$workload" ]; then
    run_one "$workload" "$trace"
    exit
fi

for trace in 0 1; do
    for workload in "${workloads[@]}"; do
        echo "== $workload trace=$trace seed=$seed"
        run_one "$workload" "$trace" | sed '$d'
    done
done
if grep -l '"correct":false' "$out"/*.json >&2; then
    echo "run.sh: operations failed in the runs above" >&2
    exit 1
fi
