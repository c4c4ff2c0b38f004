#!/usr/bin/env python3
"""Check that the benchmark is steady: two interleaved sets of runs agree.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds S]
                                    [--workloads a,b] [--json out.json]

Run from the repository root. Workload by workload, for every run i it
runs set A and then set B (each with its own seed): both sets see the same
drift of the machine, and each workload's runs stay within a few minutes
(on shared hosts the speed of the machine changes over tens of minutes).
For each end-to-end metric of
BENCHMARK.json it prints, per set, the median and quartiles of the runs,
the spread (q3 - q1) / median, and how far set B's median is from set A's
in the metric's "worse" direction, against the metric's bound:

  spread  ok when below bound / 3 (setup_s is exempt)
  drift   ok when set B is not worse than set A by more than the bound

Exit status is 1 when a run fails or a check does not hold.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith('{"detail"'):
            values["steal_pct"] = json.loads(line)["detail"]["steal_pct"]
    return values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    sets = "AB"[:args.sets]

    values = {(w, s): [] for w in workloads for s in sets}
    for w in workloads:
        for i in range(args.runs):
            for k, s in enumerate(sets):
                seed = 1 + i + 1000 * k
                values[(w, s)].append(run_once(w, seed, args.seconds))
                print(f"run {i + 1}/{args.runs} {w} set {s} seed {seed}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<13} {'metric':<15} {'set':<3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'check':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = {}
            for s in sets:
                r = summary([v[name] for v in values[(w, s)]])
                rows[s] = r
                check = "-" if name == "setup_s" else (
                    "ok" if r["spread"] < bound / 3 else "WIDE")
                ok &= check != "WIDE"
                print(f"{w:<13} {name:<15} {s:<3} {r['median']:>12.6g} "
                      f"{r['q1']:>12.6g} {r['q3']:>12.6g} "
                      f"{r['spread']:>7.2%} {bound:>6.2f} {check:>6}")
            if len(sets) == 2:
                a, b = rows["A"]["median"], rows["B"]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                check = "ok" if worse <= bound else "WORSE"
                ok &= check == "ok"
                print(f"{w:<13} {name:<15} B-A {'':>12} {'':>12} {'':>12} "
                      f"{worse:>+7.2%} {bound:>6.2f} {check:>6}")
        for s in sets:
            steal = [v["steal_pct"] for v in values[(w, s)]]
            print(f"{w:<13} {'host steal %':<15} {s:<3} "
                  f"{statistics.median(steal):>12.3g} {min(steal):>12.3g} "
                  f"{max(steal):>12.3g}   (median, min, max; diagnostic)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({f"{w}/{s}": v for (w, s), v in values.items()}, f,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"steadiness.py: {e}", file=sys.stderr)
        sys.exit(1)
