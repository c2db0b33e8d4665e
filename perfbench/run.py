#!/usr/bin/env python3
"""Build and run the distbc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ba-2node --seed 1 --seconds 20 --trace 0

The first run configures and compiles perfbench/ (which compiles the library
from src/) into .bench_build/; later runs reuse that build. A run starts the
perfbench worker PARTS times in a row, each for an equal share of --seconds
and with its own sampler streams, and pools what the parts measured: the
program's speed shifts by several percent from one process to the next, and
pooling parts keeps that out of a run's medians. It prints the input
identity and each part's operation count, then one JSON object with the
metrics as the last line of standard output. With --trace 1 every part
writes its spans to .bench_build/traces/<workload>-seed<n>-part<k>.json.
README.md in this directory documents workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REF_CACHE = os.path.join(".bench_build", "references")
TRACES = os.path.join(".bench_build", "traces")
PARTS = 4
RUN_TIMEOUT_S = 170

END_TO_END = [("setup_s", "s"), ("first_query_s", "s"), ("query_s", "s"),
              ("qps", "1/s"), ("peak_rss_mb", "MB")]

# Per-layer metrics read from the spans: the median (or mean) of every value
# recorded under the name; 0 where the workload never reaches the layer.
LAYER_METRICS = [
    ("graph.ifub_bfs", "count", "median"),
    ("graph.diameter_s", "s", "median"),
    ("graph.bibfs_us", "us", "median"),
    ("graph.bibfs_touched", "count", "median"),
    ("bc.diameter_s", "s", "median"),
    ("bc.calibration_s", "s", "median"),
    ("bc.sampling_s", "s", "median"),
    ("bc.samples", "count", "median"),
    ("bc.epochs", "count", "median"),
    ("bc.samples_per_s", "1/s", "median"),
    ("engine.barrier_s", "s", "median"),
    ("engine.reduction_s", "s", "median"),
    ("engine.stop_check_s", "s", "median"),
    ("comm.bytes", "B", "median"),
    ("comm.modeled_s", "s", "median"),
    ("api.session_new_s", "s", "median"),
    ("api.unattributed_s", "s", "median"),
    ("dynamic.apply_s", "s", "median"),
    ("dynamic.dirty", "count", "median"),
    ("dynamic.retained_frac", "ratio", "median"),
    ("dynamic.resampled", "count", "median"),
    ("dynamic.recalibrations", "count", "median"),
    ("service.queue_s", "s", "median"),
    ("service.run_s", "s", "median"),
    ("service.calibration_reuse_frac", "ratio", "mean"),
    ("adaptive.closeness_s", "s", "median"),
    ("adaptive.mean_distance_s", "s", "median"),
    ("adaptive.samples", "count", "median"),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("src/api/session.hpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            fail(required + " not found; run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD_DIR,
                  "-j", str(min(4, os.cpu_count() or 1))]]
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode:
                fail("build failed: " + " ".join(step))


def run_part(args, part, deadline):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--part", str(part), "--seconds", str(args.seconds / PARTS),
               "--trace", str(args.trace), "--ref-cache", REF_CACHE]
    if args.trace:
        command += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}-part{part}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} part {part} exited with code {run.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last worker output line is not JSON: " + lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def op_seconds(parts, traced, kind=None):
    return [s for p in parts for s, t, k in p["ops"]
            if t == traced and (kind is None or k == kind)]


def end_to_end(parts):
    ops = sum(len(p["ops"]) for p in parts)
    busy = sum(p["busy_s"] for p in parts)
    return {
        "setup_s": median([s for p in parts for s in p["setup_s"]]),
        "first_query_s": median([s for p in parts for s in p["first_query_s"]]),
        "query_s": median(op_seconds(parts, 0)),
        "qps": ops / busy if busy > 0 else 0.0,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }


def tracing_overhead(parts):
    """Traced over untraced median operation time, minus one, averaged over
    the operation kinds that ran both ways."""
    ratios = []
    for kind in sorted({k for p in parts for _, _, k in p["ops"]}):
        traced = median(op_seconds(parts, 1, kind))
        untraced = median(op_seconds(parts, 0, kind))
        if traced > 0 and untraced > 0:
            ratios.append(traced / untraced - 1.0)
    return mean(ratios)


def per_layer(parts):
    values = {}
    for p in parts:
        for name, vals in p["values"].items():
            values.setdefault(name, []).extend(vals)
    metrics = {}
    for name, unit, reduce in LAYER_METRICS:
        vals = values.get(name, [])
        metrics[name] = (mean(vals) if reduce == "mean" else median(vals), unit)
    metrics["bc.err_over_eps"] = (
        max(p["worst_err_over_eps"] for p in parts), "ratio")
    metrics["trace.query_s"] = (median(op_seconds(parts, 1)), "s")
    metrics["trace.overhead_frac"] = (tracing_overhead(parts), "ratio")
    metrics["trace.spans"] = (sum(p["spans"] for p in parts), "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(REF_CACHE, exist_ok=True)
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for part in range(PARTS):
        lines, record = run_part(args, part, deadline)
        for line in lines:
            if line.startswith("input "):
                if part == 0:
                    print(line)
            else:
                print(f"part {part}/{PARTS}: {line}")
        parts.append(record)

    if args.trace:
        metrics = per_layer(parts)
    else:
        units = dict(END_TO_END)
        metrics = {name: (value, units[name])
                   for name, value in end_to_end(parts).items()}
    print(json.dumps({
        "correct": all(p["well_formed"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
