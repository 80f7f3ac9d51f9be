#!/usr/bin/env python3
"""stencilcl benchmark: build, run and summarise (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 20 --trace 0
      one run of one workload; the last stdout line is the result object
      (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
  python3 perfbench/run.py [--seed 1] [--seconds 20] [--trace 0]
      every workload, each in its own process
  python3 perfbench/run.py --steady 10 [--trace 0]
      steadiness: two sets of rounds of every workload in turn
      (A B C A B C ...); per metric the median, quartiles and relative IQR
      of each set, the median difference between the sets, and an
      exact-repeat check of the deterministic metrics

The benchmark builds itself from ../src with CMake into .bench_build/.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["cold_paper", "cold_small", "serve_warm"]
RUN_TIMEOUT_S = 175
STEADY_SETS = 2

# Metrics that are pure functions of the seeded work: any difference
# between runs is nondeterminism, not noise.
EXACT = {
    "design_cycles_geomean", "model_error_pct", "code_kb_mean",
    "dse.candidates_evaluated", "dse.candidates_pruned",
    "dse.evaluated_share", "dse.cache_hit_rate", "verify.ir_kernels",
    "verify.ir_pipes", "sim.region_executions", "design.redundancy_ratio",
    "design.stall_share", "codegen.kb", "serve.artifact_kb",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; returns the binary path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        ]
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build step failed: " + " ".join(step))
                return None
    return os.path.join(BUILD_DIR, target)


def run_one(binary, workload, seed, seconds, capture):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
            stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, ""
    return done.returncode, done.stdout or ""


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def steady(args, binary):
    sets = [{w: [] for w in WORKLOADS} for _ in range(STEADY_SETS)]
    ok = True
    for s in range(STEADY_SETS):
        for r in range(args.steady):
            for w in WORKLOADS:
                seed = args.seed + s * args.steady + r
                code, out = run_one(binary, w, seed, args.seconds, True)
                result = result_of(out)
                if code != 0 or result is None or not result["correct"]:
                    log("perfbench: set %d round %d %s failed"
                        % (s + 1, r + 1, w))
                    ok = False
                    continue
                sets[s][w].append(result["metrics"])
                log("perfbench: set %d round %d %s seed %d: %s"
                    % (s + 1, r + 1, w, seed, json.dumps(result)))
    for w in WORKLOADS:
        runs = [run for runs in (st[w] for st in sets) for run in runs]
        if not runs:
            continue
        print("== %s" % w)
        header = "  ".join("set%d: median [q1, q3] rel_iqr" % (s + 1)
                           for s in range(STEADY_SETS)) + "  median_diff"
        print("%-26s %-6s %s" % ("metric", "unit", header))
        for metric in runs[0]:
            cells = []
            medians = []
            for s in range(STEADY_SETS):
                values = [m[metric]["value"] for m in sets[s][w]]
                if not values:
                    continue
                med, q1, q3, spread = summarise(values)
                medians.append(med)
                cells.append("%.6g [%.6g, %.6g] %.4f" % (med, q1, q3, spread))
            diff = ""
            if len(medians) > 1 and medians[0]:
                diff = "  %+.4f" % (medians[-1] / medians[0] - 1.0)
            print("%-26s %-6s %s%s" % (metric, runs[0][metric]["unit"],
                                       "  ".join(cells), diff))
            if metric in EXACT:
                distinct = {repr(m[metric]["value"]) for m in runs}
                if len(distinct) > 1:
                    print("NONDETERMINISM: %s/%s took %d values: %s"
                          % (w, metric, len(distinct), sorted(distinct)))
                    ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="ROUNDS")
    args = parser.parse_args()

    binary = build("perfbench_trace" if args.trace else "perfbench_e2e")
    if binary is None:
        return 1
    if args.steady > 0:
        return steady(args, binary)
    if args.workload:
        code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                          False)
        return code
    status = 0
    for w in WORKLOADS:
        code, out = run_one(binary, w, args.seed, args.seconds, True)
        sys.stdout.write("\n".join(line for line in out.splitlines()
                                   if not line.startswith("{")) + "\n")
        result = result_of(out)
        if code != 0 or result is None or not result["correct"]:
            print("workload %s FAILED (exit code %d)" % (w, code))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
