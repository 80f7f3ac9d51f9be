#!/usr/bin/env python3
"""CI performance-regression gate over the BENCH_*.json baselines.

Compares the JSONL rows a fresh bench run produced against the committed
baseline rows and fails when a tracked metric regressed. Tracked
metrics:

  bench=dse      key (kernel, family[, device])
                   searches_per_sec  1 / wall_seconds of the whole search
                                     (bounding, seeding and evaluation),
                                     gated against the threshold — a
                                     search that evaluates fewer
                                     candidates in less time is faster,
                                     however few candidates it walks
                   candidates        the evaluated-candidate count under
                                     the same key + "/candidates". It is
                                     deterministic (the same on any
                                     host), so it is gated exactly: any
                                     growth fails until the baseline is
                                     refreshed
                   bounded           the count of computed lower bounds
                                     under the same key + "/bounded",
                                     gated exactly like candidates
  bench=service  key (threads[, mode])
                   runs_per_sec      1 / the per-request time (pass wall
                                     time / jobs) of the cold pass under
                                     key + "/cold" and of the best warm
                                     replay under key + "/warm", each
                                     gated against the threshold on its
                                     own; the floor applies to the
                                     per-request time
                   jobs, overload_shed
                                     the suite size and the requests the
                                     depth-2 admission bound shed, under
                                     the same key + "/<counter>", gated
                                     for equality: any change fails
  bench=verify   key (kernel, device, layer)
                   runs_per_sec      1 / cpu_seconds, the min-of-5
                                     thread-CPU time of one verification
                                     layer (lower, dataflow, design),
                                     gated against the threshold; the
                                     floor applies to cpu_seconds
                   environments, walks, expressions
                                     the dataflow layer's deterministic
                                     work counters under the same key +
                                     "/<counter>", gated exactly like
                                     dse candidates
  bench=sim      key (kernel, device, family)
                   runs_per_sec      1 / cpu_seconds, the min-of-5
                                     thread-CPU time of one timing-only
                                     simulation (baseline, heterogeneous,
                                     temporal; "all" sums them), gated
                                     like verify rows
                   regions, tile_tasks, steps, pipe_writes
                                     sim::SimStats work counters under
                                     the same key + "/<counter>", gated
                                     exactly

Verify and sim rows are keyed by device, so like the HBM dse legs a
vanished row fails the gate whatever its time.

Pipe-tiling dse rows (and rows predating the design-family split, which
were all pipe-tiling) keep the historical key, temporal-shift rows
append "/temporal-shift". Service batch rows carry no mode and keep
their historical key, daemon-over-the-wire rows append "/daemon".

Rows carrying a "device" field (the HBM device-matrix legs bench_dse
emits for multi-bank parts) append "/<device>" to the key and are
DEVICE-PINNED: a baseline row with a device suffix that is missing from
the current run fails the gate unconditionally — even when its baseline
wall time sits below the noise floor — because a vanished device leg
means a supported part silently dropped out of the matrix, which is a
coverage regression rather than a timing artifact. Rows without the
field keep their historical keys, so pre-HBM baselines gate new runs
unchanged.

Timed metrics are higher-is-better; a row counts as a regression when

  current < baseline * (1 - threshold)

Rows whose wall_seconds (cpu_seconds for verify and sim rows, the
per-request time for service rows; on either side) falls below
--min-wall (default 0.02 s) are reported but never gated on timed
metrics: at sub-floor times the metric is timer noise, not speed. Exact
(counter) metrics ignore both the threshold and the floor: they regress
when

  current > baseline

except the service counters, which regress when current != baseline.

Rows are JSONL (one object per line, '#' comments and blank lines
ignored); when a key appears more than once the LAST occurrence wins,
matching the append-mode trajectory files bench_dse writes by default.
A key present in the baseline but missing from the current run fails
the gate (a silently-skipped benchmark must not pass) unless its
baseline wall was sub-floor and the metric is timed; keys only present
in the current run are reported but never fail.

Usage:
  perf_gate.py [--threshold 0.25] [--min-wall 0.02] \\
      --pair <baseline.json> <current.json> ...

The delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, to
the job summary as well. Exit status: 0 pass, 1 regression/missing key,
2 usage or unreadable input.
"""

import argparse
import json
import os
import sys


def read_rows(path):
    """Parses a JSONL file into a list of row dicts."""
    rows = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as error:
                    raise SystemExit(
                        f"error: {path}:{number}: bad JSON row: {error}")
                if isinstance(row, dict):
                    rows.append(row)
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    return rows


def keyed_metrics(rows):
    """Maps (display key) -> (metric name, value, wall_seconds or None,
    device_pinned, rule); last occurrence wins. The rule is "timed"
    (threshold and floor), "max" (any growth fails) or "equal" (any
    change fails)."""
    metrics = {}
    for row in rows:
        bench = row.get("bench")
        wall = row.get("wall_seconds")
        wall = float(wall) if wall is not None else None
        if bench == "dse":
            key = f"dse/{row.get('kernel')}"
            # Rows without a family predate the design-family split and
            # were all pipe-tiling; same unsuffixed-key compatibility.
            family = row.get("family", "pipe-tiling")
            if family != "pipe-tiling":
                key = f"{key}/{family}"
            # Device-matrix rows: the suffix keys each part's leg, and
            # the pin makes its absence a hard failure (a device that
            # dropped out of the matrix, not timer noise).
            device = row.get("device")
            pinned = bool(device)
            if device:
                key = f"{key}/{device}"
            if wall is not None and wall > 0.0:
                metrics[key] = (
                    "searches_per_sec", 1.0 / wall, wall, pinned, "timed")
            for counter in ("candidates", "bounded"):
                value = row.get(counter)
                if value is not None:
                    metrics[f"{key}/{counter}"] = (
                        counter, float(value), wall, pinned, "max")
        elif bench == "verify":
            key = (f"verify/{row.get('kernel')}/{row.get('device')}/"
                   f"{row.get('layer')}")
            cpu = row.get("cpu_seconds")
            cpu = float(cpu) if cpu is not None else None
            if cpu is not None and cpu > 0.0:
                metrics[key] = (
                    "runs_per_sec", 1.0 / cpu, cpu, True, "timed")
            for counter in ("environments", "walks", "expressions"):
                value = row.get(counter)
                if value is not None:
                    metrics[f"{key}/{counter}"] = (
                        counter, float(value), cpu, True, "max")
        elif bench == "sim":
            key = (f"sim/{row.get('kernel')}/{row.get('device')}/"
                   f"{row.get('family')}")
            cpu = row.get("cpu_seconds")
            cpu = float(cpu) if cpu is not None else None
            if cpu is not None and cpu > 0.0:
                metrics[key] = (
                    "runs_per_sec", 1.0 / cpu, cpu, True, "timed")
            for counter in ("regions", "tile_tasks", "steps", "pipe_writes"):
                value = row.get(counter)
                if value is not None:
                    metrics[f"{key}/{counter}"] = (
                        counter, float(value), cpu, True, "max")
        elif bench == "service":
            key = f"service/t{row.get('threads')}"
            # Batch rows predate the daemon split and carry no mode;
            # their key stays unsuffixed so old baselines gate new runs.
            mode = row.get("mode")
            if mode:
                key = f"{key}/{mode}"
            # Cold and warm are timed on their own: a ratio of the two
            # falls whenever cold synthesis gets faster.
            jobs = row.get("jobs")
            for side in ("cold", "warm"):
                pass_ms = row.get(f"{side}_ms")
                if jobs and pass_ms:
                    per_request = float(pass_ms) / 1e3 / float(jobs)
                    metrics[f"{key}/{side}"] = (
                        "runs_per_sec", 1.0 / per_request, per_request,
                        False, "timed")
            for counter in ("jobs", "overload_shed"):
                value = row.get(counter)
                if value is not None:
                    metrics[f"{key}/{counter}"] = (
                        counter, float(value), None, False, "equal")
    return metrics


def format_value(value):
    return f"{value:,.1f}" if value >= 100 else f"{value:.3f}"


def gate(pairs, threshold, min_wall):
    lines = [
        "| benchmark | metric | baseline | current | delta | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    failures = []
    for baseline_path, current_path in pairs:
        baseline = keyed_metrics(read_rows(baseline_path))
        current = keyed_metrics(read_rows(current_path))
        if not baseline:
            raise SystemExit(
                f"error: {baseline_path} holds no gated bench rows")
        for key in sorted(baseline):
            metric, base_value, base_wall, pinned, rule = baseline[key]
            base_subfloor = base_wall is not None and base_wall < min_wall
            if key not in current:
                # Device-pinned rows never get the sub-floor pass: a
                # missing device leg is a coverage hole, not noise.
                if base_subfloor and not pinned and rule == "timed":
                    lines.append(
                        f"| {key} | {metric} | {format_value(base_value)} "
                        f"| *missing* | — | skip (wall < floor) |")
                    continue
                reason = " (device leg dropped)" if pinned else ""
                failures.append(
                    f"{key}: missing from {current_path}{reason}")
                lines.append(
                    f"| {key} | {metric} | {format_value(base_value)} "
                    f"| *missing* | — | FAIL |")
                continue
            _, cur_value, cur_wall, _, _ = current[key]
            delta = ((cur_value - base_value) / base_value
                     if base_value != 0 else 0.0)
            if rule == "max":
                regressed = cur_value > base_value
            elif rule == "equal":
                regressed = cur_value != base_value
            elif (base_subfloor
                    or (cur_wall is not None and cur_wall < min_wall)):
                lines.append(
                    f"| {key} | {metric} | {format_value(base_value)} "
                    f"| {format_value(cur_value)} | {delta:+.1%} "
                    f"| skip (wall < floor) |")
                continue
            else:
                regressed = cur_value < base_value * (1.0 - threshold)
            status = "FAIL" if regressed else "ok"
            if regressed:
                failures.append(
                    f"{key}: {metric} {format_value(cur_value)} vs baseline "
                    f"{format_value(base_value)} ({delta:+.1%})")
            lines.append(
                f"| {key} | {metric} | {format_value(base_value)} "
                f"| {format_value(cur_value)} | {delta:+.1%} | {status} |")
        for key in sorted(set(current) - set(baseline)):
            metric, cur_value, _, _, _ = current[key]
            lines.append(
                f"| {key} | {metric} | *new* "
                f"| {format_value(cur_value)} | — | ok |")
    return lines, failures


def main():
    parser = argparse.ArgumentParser(
        description="fail CI when bench metrics regress past the threshold "
                    "or deterministic counters grow")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed fractional regression of timed metrics "
             "(default 0.25 = 25%%)")
    parser.add_argument(
        "--min-wall", type=float, default=0.02,
        help="wall-seconds floor below which a row is timer noise and "
             "is reported but not gated (default 0.02 s)")
    parser.add_argument(
        "--pair", nargs=2, action="append", required=True,
        metavar=("BASELINE", "CURRENT"),
        help="baseline JSONL and the fresh run to compare against it")
    args = parser.parse_args()
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    if args.min_wall < 0.0:
        parser.error("--min-wall must be >= 0")

    lines, failures = gate(args.pair, args.threshold, args.min_wall)

    title = (f"## Performance gate "
             f"(threshold {args.threshold:.0%} regression)")
    report = "\n".join([title, ""] + lines) + "\n"
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(report)

    if failures:
        print("performance gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("performance gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
