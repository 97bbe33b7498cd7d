#!/usr/bin/env bash
# compare.sh A B — judge the runs in B against the runs in A.
#
# A and B are result files written by run.sh (`*.untraced.json`,
# `*.traced.json`) or directories searched for them; several runs of
# one workload on a side (other seeds, repeats) are pooled, each
# measured against A's median at its own seed. For every (workload,
# end-to-end metric) the medians are compared under the bound the
# result file carries:
#
#   ok          B's median is no worse than A's by more than the bound
#   regressed   it is worse by more than the bound
#   unresolved  the run-to-run quartile spread on either side exceeds
#               the bound (unless every run of B beats every run of A)
#   changed     a simulated outcome or exact count differs at all; it
#               must be bit-identical unless the change is a blessed
#               behaviour change (compared per seed)
#
# Per-layer metrics carry no bound: exact ones are checked for
# identity, the rest are listed with -v. Exits 1 on any `regressed`.
set -euo pipefail

exec python3 - "$@" <<'PY'
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

args = [a for a in sys.argv[1:] if a != "-v"]
verbose = "-v" in sys.argv[1:]
if len(args) != 2:
    sys.exit("usage: compare.sh [-v] A B   (result files or directories)")


def load(side):
    path = Path(side)
    files = sorted(path.rglob("*traced.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        sys.exit(f"compare.sh: no result files in {side}")
    return runs


def pooled(runs):
    """(workload, metric) -> {"def": metric entry, "by_seed": {seed: [values]}}"""
    table = defaultdict(lambda: {"def": None, "by_seed": defaultdict(list)})
    for run in runs:
        for name, metric in run["metrics"].items():
            cell = table[(run["workload"], name)]
            cell["def"] = metric
            cell["by_seed"][run["seed"]].append(metric["value"])
    return table


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(a, b):
    d = a["def"]
    shared = sorted(set(a["by_seed"]) & set(b["by_seed"]))
    # Exact metrics compare seed by seed; without a shared seed they are
    # judged like any other number.
    exact = d["exact"] and bool(shared)
    if exact and all(set(a["by_seed"][s]) == set(b["by_seed"][s]) for s in shared):
        return "ok", "identical"
    va = [v for vs in a["by_seed"].values() for v in vs]
    vb = [v for vs in b["by_seed"].values() for v in vs]
    ma, mb = statistics.median(va), statistics.median(vb)
    moved = f"{ma:.6g} -> {mb:.6g}"
    if d["kind"] != "end_to_end":
        return ("changed" if exact else "info"), moved
    rel = d["bound_kind"] == "rel"
    if shared:
        # Many numbers depend on the seed (peak RSS by ±5 %). Measure
        # every run against A's median at its own seed, so that only
        # run-to-run noise is left in the spread.
        base = {s: statistics.median(a["by_seed"][s]) for s in shared}
        against = lambda side: [
            v / base[s] - 1.0 if rel else v - base[s] for s in shared for v in side["by_seed"][s]
        ]
        va, vb = against(a), against(b)
    elif rel:
        va, vb = [v / ma - 1.0 for v in va], [v / ma - 1.0 for v in vb]
    sign = 1.0 if d["better"] == "lower" else -1.0
    worse = sign * (statistics.median(vb) - statistics.median(va))
    wide = max(iqr(va), iqr(vb))
    if len(va) == 1 and "q3" in d:
        # One run a side: all there is is the spread of its own samples.
        wide = (d["q3"] - d["q1"]) / (d["value"] if rel else 1.0)
    detail = f"{moved} ({worse:+.4f} vs bound {d['bound']}, spread {wide:.4f})"
    if exact:
        return ("regressed" if worse > d["bound"] else "changed"), detail
    b_wins = max(sign * v for v in vb) < min(sign * v for v in va)
    if wide > d["bound"] and not b_wins:
        return "unresolved", detail
    return ("regressed" if worse > d["bound"] else "ok"), detail


a, b = pooled(load(args[0])), pooled(load(args[1]))
verdicts = defaultdict(int)
for key in sorted(a.keys() | b.keys()):
    workload, name = key
    if key not in a or key not in b:
        verdict, detail = "missing", "only in " + ("A" if key in a else "B")
    else:
        verdict, detail = judge(a[key], b[key])
    verdicts[verdict] += 1
    if verdict != "info" or verbose:
        print(f"{verdict:<10} {workload:<15} {name:<45} {detail}")
print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())))
sys.exit(1 if verdicts["regressed"] else 0)
PY
