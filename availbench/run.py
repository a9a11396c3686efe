#!/usr/bin/env python3
"""availsim benchmark: builds the simulator and its benchmark program from
the checkout's sources and runs one workload.

    python3 availbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 availbench/run.py --self-check [--seconds <s>]

--trace 0 runs the untraced timed run and prints the end-to-end metrics.
--trace 1 runs the untraced run once more, then a traced run on the same
seed, checks that both simulated the same thing, and prints the per-layer
metrics. The last line of stdout is the result object; everything else
(build output, failure reasons) goes to stderr. See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "availbench"
BINARY = BUILD / "availbench"
SPANS = ROOT / ".bench_build" / "spans"

# Set-ups per timed run; setup_s is their median.
TIMED_SETUPS = 3
# Every run must end within 180 s; leave room for Python and the exit.
# The self-check allows that much per simulator process instead.
RUN_LIMIT_S = 170.0
deadline = time.monotonic() + RUN_LIMIT_S

# Fields that must agree between the untraced and the traced run of a seed.
SAME_SIMULATION = ("digest", "events", "offered", "availability",
                   "alloc_calls", "alloc_bytes", "injections")


def log(msg):
    print(f"availbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(2, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, setups=1, traced=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setups", str(setups)]
    if traced:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--spans",
                str(SPANS / f"{workload}-s{seed}.jsonl")]
    # The testbed's own audit/trace switches would attach a second tracer.
    env = {k: v for k, v in os.environ.items()
           if k not in ("AVAILSIM_AUDIT", "AVAILSIM_TRACE_DIR")}
    left = deadline - time.monotonic() if deadline else RUN_LIMIT_S
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(left, 1.0), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result(correct, run, metrics):
    attempted = max(int(run.get("offered", 0)), 1)
    # A simulated request that is refused or times out is the modelled
    # outcome (it is what `availability` measures), not a benchmark
    # failure. A request fails when the run cannot account for it, and
    # every request of a run that fails its checks counts as failed.
    failed = int(run.get("unaccounted", 0)) if correct else attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def timed(workload, seed, seconds, setups=TIMED_SETUPS):
    run = run_binary(workload, seed, seconds, setups=setups)
    if not run["correct"]:
        log(f"{workload} seed {seed}: run failed: {run['reason']}")
    return result(run["correct"], run, run.get("metrics", {})), run


def traced(workload, seed, seconds):
    plain = run_binary(workload, seed, seconds)
    trace = run_binary(workload, seed, seconds, traced=True)
    reasons = [f"{name} run failed: {r['reason']}"
               for name, r in (("untraced", plain), ("traced", trace))
               if not r["correct"]]
    if not reasons:
        reasons = [f"{k} differs between the untraced ({plain[k]}) and the "
                   f"traced ({trace[k]}) run"
                   for k in SAME_SIMULATION if plain[k] != trace[k]]
    for r in reasons:
        log(f"{workload} seed {seed}: {r}")
    metrics = dict(trace.get("metrics", {}))
    if plain.get("wall_s") and trace.get("wall_s"):
        metrics["trace.overhead_ratio"] = {
            "value": trace["wall_s"] / plain["wall_s"], "unit": "ratio"}
    return result(not reasons, trace, metrics), (plain, trace)


def self_check(seconds):
    """Runs every workload the binary knows at a tiny length, prints every
    metric and checks the benchmark's contract: metric names and units,
    same-seed determinism, seed sensitivity and the fault script's
    length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = subprocess.run([str(BINARY), "--list"], stdout=subprocess.PIPE,
                           text=True, check=True).stdout.split()
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        log(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in names:
        log(f"self-check {name} at --seconds {seconds}")
        e2e, run1 = timed(name, 1, seconds, setups=1)
        layer, (plain, trace) = traced(name, 1, seconds)
        other = run_binary(name, 2, seconds)
        print(json.dumps({"workload": name, "trace": 0, **e2e}))
        print(json.dumps({"workload": name, "trace": 1, **layer}))
        got_e2e = {k: v["unit"] for k, v in e2e["metrics"].items()}
        got_layer = {k: v["unit"] for k, v in layer["metrics"].items()}
        check(e2e["correct"] and layer["correct"], f"{name}: runs correct")
        check(got_e2e == want_e2e,
              f"{name}: end-to-end names and units "
              f"{sorted(set(got_e2e.items()) ^ set(want_e2e.items()))}")
        check(got_layer == want_layer,
              f"{name}: per-layer names and units "
              f"{sorted(set(got_layer.items()) ^ set(want_layer.items()))}")
        check(run1["digest"] == plain["digest"] == trace["digest"],
              f"{name}: seed 1 digest repeats "
              f"({run1['digest']} {plain['digest']} {trace['digest']})")
        check(run1["alloc_calls"] == plain["alloc_calls"],
              f"{name}: seed 1 allocation count repeats")
        check(other["digest"] != run1["digest"],
              f"{name}: seed 2 changes the digest")
        check(layer["metrics"]["fault.injections"]["value"]
              == run1["faults_scripted"],
              f"{name}: fault.injections equals the script length "
              f"({run1['faults_scripted']})")
    log("self-check " + ("passed" if not failures else
                         f"FAILED: {len(failures)} check(s)"))
    return 0 if not failures else 1


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_check:
        deadline = None
        return self_check(args.seconds or 1)
    if not args.workload or args.seconds is None:
        ap.error("--workload and --seconds are required")
    try:
        if args.trace:
            out, _ = traced(args.workload, args.seed, args.seconds)
        else:
            out, _ = timed(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as e:
        log(f"run failed: {e}")
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
