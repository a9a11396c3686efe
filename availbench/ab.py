#!/usr/bin/env python3
"""A/B runner: compares two checkouts on the benchmark, the way a claimed
gain is judged.

    python3 availbench/ab.py <parent checkout> <change checkout>
        [--pairs 10] [--seconds <s>] [--seed 1] [--workload <name> ...]

Runs both sides in alternating pairs (the parent first in even pairs, the
change first in odd ones), each pair on its own seed, with identical
benchmark settings. Each side runs its own copy of availbench/run.py from
its checkout root, so it builds and measures its own code. For every
workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither), the
gap between the medians and whether that gap exceeds the parent's
interquartile range. A gain may be claimed only when the change wins at
least 9 in 10 pairs and the gap exceeds the parent's IQR. A median worse
by more than the metric's bound in BENCHMARK.json is flagged as a
regression; where the parent's own spread is wider than the bound the
metric is reported as unresolved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "availbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed its "
                         "checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--workload", action="append",
                    help="workload to compare (default: all)")
    args = ap.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    for workload in workloads:
        samples = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                samples[side].append(run(sides[side], workload,
                                         args.seed + i, seconds))
            print(f"[{workload}] pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)

        print(f"\n{workload} ({args.pairs} pairs, --seconds {seconds})")
        print(f"  {'metric':<14} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5} {'gap':>9} "
              f"{'>IQR':>5}  verdict")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [s[name] for s in samples["parent"]]
            b = [s[name] for s in samples["change"]]
            qa, qb = quartiles(a), quartiles(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            gap = qb[1] - qa[1]
            beyond_iqr = abs(gap) > qa[2] - qa[0]
            worse = gap if lower else -gap
            every_run_better = max(b) < min(a) if lower else min(b) > max(a)
            if wins >= 0.9 * args.pairs and beyond_iqr and worse < 0:
                verdict = "gain"
            elif worse > m["bound"] * abs(qa[1]):
                verdict = f"REGRESSION (worse by more than {m['bound']})"
            elif (qa[2] - qa[0]) > m["bound"] * abs(qa[1]) \
                    and not every_run_better:
                verdict = "unresolved (parent spread exceeds the bound)"
            else:
                verdict = "no regression beyond the bound"
            print(f"  {name:<14} "
                  f"{qa[0]:>10.4g} {qa[1]:>10.4g} {qa[2]:>10.4g} "
                  f"{qb[0]:>10.4g} {qb[1]:>10.4g} {qb[2]:>10.4g} "
                  f"{wins / args.pairs:>5.0%} {gap:>+9.4g} "
                  f"{'yes' if beyond_iqr else 'no':>5}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
