#!/usr/bin/env bash
# ab.sh — paired A/B of two revisions on the repo's benchmark.
#
#   tools/ab.sh <parent-rev> <change-rev> [--workload W[,W...]] [--pairs 10]
#               [--seeds 1234,S] [--seconds 28] [--ledger "<title>"]
#       Checks both revisions out with `git worktree add` (under a
#       temporary directory, removed on exit; an INT or TERM first stops
#       the build or run going on), builds each offline with
#       its own CARGO_TARGET_DIR, and runs `benchmark/run.sh --workload W
#       --seed S --seconds T --trace 0` of each side in every pair,
#       alternating which side goes first. Workloads run one after the
#       other, each with all its seeds and pairs, so a claimed workload
#       and its guards are measured by one command. The result files are
#       kept under <tmp>/results/{parent,change}/<seed>/<pair>/ and
#       judged as --from-dirs judges them.
#
#   tools/ab.sh --from-dirs A B [--workload W] [--ledger "<title>"]
#       Judges saved result files: every `*.untraced.json` under A (the
#       parent) is paired with the file at the same relative path under
#       B (the change).
#
# Per workload and seed, for every end-to-end metric: both medians, the
# change in the median, the parent's interquartile range, the pairs the
# change won (better by the metric's own `better`; ties are dropped)
# and the exact two-sided sign test p (9 of 10 pairs is p = 0.021).
# Then each side's median `host.off_cpu_frac`, and whether every exact
# metric (the `sim_*` outcomes and exact counts) read the same in every
# run of both sides. --ledger prints EXPERIMENTS.md's A/B-ledger row
# for `wall_s` of the first workload listed (without --workload, the
# first judged): the first seed, then the second in parentheses.
set -euo pipefail

usage() {
    sed -n '3,20p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

workloads="" pairs=10 seeds=1234,7 seconds=28 ledger="" from=()
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload | --pairs | --seeds | --seconds | --ledger)
            [ $# -ge 2 ] || usage
            case "$1" in
                --workload) workloads=$2 ;;
                --pairs) pairs=$2 ;;
                --seeds) seeds=$2 ;;
                --seconds) seconds=$2 ;;
                --ledger) ledger=$2 ;;
            esac
            shift 2 ;;
        --from-dirs)
            [ $# -ge 3 ] || usage
            from=("$2" "$3")
            shift 3 ;;
        -*) usage ;;
        *) revs+=("$1"); shift ;;
    esac
done

judge() { # parent-dir change-dir
    python3 - "$1" "$2" "$ledger" "${workloads%%,*}" <<'PY'
import json, math, statistics, sys
from pathlib import Path

parent_dir, change_dir, ledger = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
ledger_workload = sys.argv[4]
groups = {}  # (workload, seed) -> [(parent run, change run)]
for a in sorted(parent_dir.rglob("*.untraced.json")):
    b = change_dir / a.relative_to(parent_dir)
    if not b.exists():
        sys.exit(f"ab.sh: {b} is missing (every parent run needs its pair)")
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    groups.setdefault((pa["workload"], pa["seed"]), []).append((pa, pb))
if not groups:
    sys.exit(f"ab.sh: no *.untraced.json under {parent_dir}")


def sign_test(wins, n):
    """Exact two-sided p of `wins` successes in `n` fair coin flips."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2**n)


def signed(v):
    return f"{'−' if v < 0 else '+'}{abs(v):.1f}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


rows = {}
for (workload, seed), runs in sorted(groups.items(), key=lambda g: (g[0][0], str(g[0][1]))):
    print(f"== {workload}, seed {seed}: {len(runs)} pairs")
    print(f"{'metric':<16} {'parent':>12} {'change':>12} {'delta':>9}  {'parent IQR':<25} {'won':>7} {'p':>7}")
    for name, meta in runs[0][0]["metrics"].items():
        if meta.get("kind") != "end_to_end" or meta.get("exact") or "better" not in meta:
            continue
        if any(name not in r["metrics"] for pair in runs for r in pair):
            continue
        p = [a["metrics"][name]["value"] for a, _ in runs]
        c = [b["metrics"][name]["value"] for _, b in runs]
        lower = meta["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        n = sum(x != y for x, y in zip(p, c))
        mp, mc = statistics.median(p), statistics.median(c)
        delta = (mc / mp - 1) * 100 if mp else float("nan")
        q1, q3 = quartiles(p)
        pv = sign_test(wins, n)
        rows[(workload, seed, name)] = (mp, mc, delta, q1, q3, wins, n, pv, meta.get("unit", ""))
        iqr = f"{q1:.6g}–{q3:.6g}"
        change = f"{delta:+.1f}%" if mp else "n/a"
        print(f"{name:<16} {mp:>12.6g} {mc:>12.6g} {change:>9}  {iqr:<25} {wins:>3} / {n:<2} {pv:>7.3f}")
    off = [
        statistics.median(r["metrics"].get("host.off_cpu_frac", {}).get("value", float("nan")) for r in side)
        for side in zip(*runs)
    ]
    print(f"host.off_cpu_frac: parent {off[0]:.4f}, change {off[1]:.4f}")
    moved = []
    for name in runs[0][0]["metrics"]:
        if runs[0][0]["metrics"][name].get("exact"):
            values = {r["metrics"].get(name, {}).get("value") for pair in runs for r in pair}
            if len(values) > 1:
                first = runs[0]
                moved.append(f"{name} {first[0]['metrics'][name]['value']} -> {first[1]['metrics'][name]['value']}")
    print("exact metrics: " + ("all matched" if not moved else "MOVED: " + "; ".join(moved)))

if ledger:
    walls = [(k, v) for k, v in rows.items() if k[2] == "wall_s"]
    if ledger_workload:
        walls = [(k, v) for k, v in walls if k[0] == ledger_workload]
    if not walls:
        sys.exit(f"ab.sh: --ledger needs wall_s runs of {ledger_workload or 'a workload'}")
    (workload, seed, _), (mp, mc, delta, q1, q3, wins, n, pv, unit) = walls[0]
    second = ""
    if len(walls) > 1:
        (_, seed2, _), (_, _, delta2, _, _, wins2, n2, _, _) = walls[1]
        second = f" ({seed2}: {signed(delta2)} %, {wins2} / {n2})"
    verdict = "met" if pv <= 0.05 and wins * 2 > n else "not met"
    print(
        f"| {ledger} | sign test p = {pv:.3f}, {verdict} | `{workload}` | `wall_s` | "
        f"{mp:.3g} → {mc:.3g} {unit} ({signed(delta)} %; parent IQR {q1:.3g}–{q3:.3g}) | "
        f"{wins} / {n} | {seed}{second} |"
    )
PY
}

if [ ${#from[@]} -eq 2 ]; then
    judge "${from[0]}" "${from[1]}"
    exit
fi
[ ${#revs[@]} -eq 2 ] || usage

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")

# Each build and benchmark run goes in the background, in a process
# group of its own (job control), and the script waits for it: a
# trapped INT or TERM then interrupts the wait, and the trap stops the
# whole group (cargo, run.sh, spotweb-benchmark) before the EXIT trap
# removes the worktree it runs from.
set -m
child=""
in_child() { # command...
    "$@" &
    child=$!
    wait "$child"
    child=""
}
stop() { # signal number
    if [ -n "$child" ]; then
        kill -TERM -- "-$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
    fi
    exit $((128 + $1))
}
trap 'stop 2' INT
trap 'stop 15' TERM
cleanup() {
    for side in parent change; do
        git -C "$repo" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$repo" worktree prune
    rm -rf "$work/parent" "$work/change" "$work"/target-*
    echo "ab.sh: results kept in $work/results" >&2
}
trap cleanup EXIT

sides=(parent change)
for i in 0 1; do
    side=${sides[$i]}
    git -C "$repo" worktree add --detach --quiet "$work/$side" "${revs[$i]}"
    echo "ab.sh: building $side (${revs[$i]})" >&2
    in_child env CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline \
        --quiet --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

run_side() { # side workload seed pair
    local out=$work/results/$1/$3/$4
    mkdir -p "$out"
    CARGO_TARGET_DIR=$work/target-$1 bash "$work/$1/benchmark/run.sh" --workload "$2" \
        --seed "$3" --seconds "$seconds" --trace 0 --out "$out" >/dev/null
}

IFS=, read -r -a workload_list <<<"${workloads:-control_plane}"
IFS=, read -r -a seed_list <<<"$seeds"
for workload in "${workload_list[@]}"; do
    for seed in "${seed_list[@]}"; do
        for pair in $(seq -w 1 "$pairs"); do
            echo "ab.sh: $workload seed $seed pair $pair" >&2
            if [ $((10#$pair % 2)) -eq 1 ]; then
                in_child run_side parent "$workload" "$seed" "$pair"
                in_child run_side change "$workload" "$seed" "$pair"
            else
                in_child run_side change "$workload" "$seed" "$pair"
                in_child run_side parent "$workload" "$seed" "$pair"
            fi
        done
    done
done
judge "$work/results/parent" "$work/results/change"
