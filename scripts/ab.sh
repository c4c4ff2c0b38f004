#!/usr/bin/env bash
# Paired A/B run of the repository benchmark between two revisions.
#
#   scripts/ab.sh <parent-rev> <change-rev> [pairs] [seconds] [workloads]
#
# Exports each revision with `git archive` into a temporary directory and
# runs that tree's own perfbench/run.py, which builds the tree on first
# use. Pair i runs seed i on both sides; odd pairs run the parent first,
# even pairs the change. pairs defaults to 10, seconds to BENCHMARK.json's
# run_seconds, workloads (comma-separated) to the workloads BENCHMARK.json
# declares.
#
# For each workload and end-to-end metric it prints both sides' medians
# and quartiles, the median paired ratio change/parent, how many pairs the
# change won (ties count for neither) and a verdict against the metric's
# bound in BENCHMARK.json:
#   unresolved  the parent's spread (q3 - q1) / median exceeds the bound,
#               unless every change run beats every parent run
#   worse       the change's median is worse than the parent's by more
#               than the bound
#   better      the change wins at least 9 in 10 pairs and the medians
#               differ by more than the parent's q3 - q1
#   within      every other case
# Each run's failed-operation count and host steal are listed too.
#
# Writes nothing in this checkout. Exits non-zero when a build or run
# fails or any run reports an incorrect output.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <parent-rev> <change-rev> [pairs] [seconds] [workloads]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
WORK="$(mktemp -d "${TMPDIR:-/tmp}/spkadd-ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/parent" "$WORK/change"
git archive "$1" | tar -x -C "$WORK/parent"
git archive "$2" | tar -x -C "$WORK/change"

python3 - "$WORK" "$@" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

work, parent_rev, change_rev = sys.argv[1:4]
spec = json.load(open(os.path.join(work, "parent", "BENCHMARK.json")))
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seconds = int(sys.argv[5]) if len(sys.argv) > 5 else spec["run_seconds"]
workloads = (sys.argv[6].split(",") if len(sys.argv) > 6
             else [w["name"] for w in spec["workloads"]])
if pairs < 2:
    sys.exit("ab.sh: need at least 2 pairs for quartiles")


def run(side, workload, seed):
    tree = os.path.join(work, side)
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab.sh: {side} {workload} seed {seed}: "
                 f"exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"ab.sh: {side} {workload} seed {seed}: incorrect output "
                 f"or {result['failed']} failed operations")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["failed"] = result["failed"]
    values["steal_pct"] = float("nan")
    for line in lines:
        if line.startswith('{"detail"'):
            values["steal_pct"] = json.loads(line)["detail"]["steal_pct"]
    return values


def verdict(parent, change, better, bound):
    """The verdict of one metric; `better` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_beat = all(sign * (c - p) > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(med_p) and not all_beat:
        return "unresolved", wins
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse", wins
    if 10 * wins >= 9 * len(parent) and sign * (med_c - med_p) > q3 - q1:
        return "better", wins
    return "within", wins


runs = {(w, s): [] for w in workloads for s in ("parent", "change")}
for w in workloads:
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[(w, side)].append(run(side, w, i))
        print(f"pair {i}/{pairs} {w} done", file=sys.stderr, flush=True)

print(f"ab.sh: parent {parent_rev}, change {change_rev}, {pairs} pairs of "
      f"{seconds} s runs")
print(f"{'workload':<13} {'metric':<15} {'side':<6} {'median':>11} "
      f"{'q1':>11} {'q3':>11} {'ratio':>7} {'won':>5} {'bound':>5} verdict")
for w in workloads:
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in runs[(w, "parent")] if name in r]
        change = [r[name] for r in runs[(w, "change")] if name in r]
        if len(parent) != pairs or len(change) != pairs:
            continue  # the workload does not report this metric
        result, wins = verdict(parent, change, m["better"], m["bound"])
        ratios = [c / p for p, c in zip(parent, change) if p]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        for side, vals in (("parent", parent), ("change", change)):
            q1, _, q3 = statistics.quantiles(vals, n=4)
            tail = (f"{ratio:>7} {wins:>2}/{pairs:<2} {m['bound']:>5.2f} "
                    f"{result}") if side == "change" else ""
            print(f"{w:<13} {name:<15} {side:<6} "
                  f"{statistics.median(vals):>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {tail}")
    for side in ("parent", "change"):
        rs = runs[(w, side)]
        print(f"{w:<13} {'failed':<15} {side:<6} "
              + " ".join(str(r["failed"]) for r in rs))
        print(f"{w:<13} {'steal_pct':<15} {side:<6} "
              + " ".join(f"{r['steal_pct']:.2g}" for r in rs))
EOF
