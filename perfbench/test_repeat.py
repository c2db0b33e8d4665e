#!/usr/bin/env python3
"""Repeat checks of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_repeat.py

For every workload it makes two traced runs at one seed, one traced run at a
second seed and one untraced run, each one second long, and checks that

  * the input identity lines (|V|, |E|, fingerprint) repeat at one seed; the
    second seed changes hub-churn's churned snapshot and leaves the fixed
    structures of the other workloads alone;
  * graph.ifub_bfs, warm-road's bc.samples and hub-churn's sequence of dirty
    samples per batch repeat exactly;
  * the failure count repeats at one seed, and so does the attempted count
    of the fixed-work workloads (hub-churn, pool-mixed);
  * every metric named in BENCHMARK.json appears, with its unit.

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys

SEED, OTHER_SEED = 7, 8
# Graph structures are fixed (README.md, "Seeds"); only hub-churn's churned
# edges, and with them its snapshot fingerprints, follow the seed.
SEEDED_GRAPHS = {"hub-churn"}
# Workloads whose parts do a fixed amount of work rather than run out a time.
FIXED_WORK = {"hub-churn", "pool-mixed"}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def inputs(lines):
    return [line for line in lines if line.startswith("input ")]


def fingerprints(lines):
    return [word for line in inputs(lines) for word in line.split()
            if word.startswith("fingerprint=")]


def dirty_sequence(lines):
    """The dirty counts of the run's first part."""
    marker = "hub-churn: dirty samples per batch:"
    for line in lines:
        if marker in line:
            return [int(x) for x in line.split(marker, 1)[1].split()]
    return None


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def expect_metrics(workload, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{workload}: metrics and units match BENCHMARK.json")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        lines_a, traced_a = run(workload, SEED, 1)
        lines_b, traced_b = run(workload, SEED, 1)
        lines_c, _ = run(workload, OTHER_SEED, 1)
        _, untraced = run(workload, SEED, 0)

        expect_metrics(workload, traced_a, bench["per_layer"])
        expect_metrics(workload, untraced, bench["end_to_end"])
        check(traced_a["correct"] and untraced["correct"],
              f"{workload}: every operation returned well-formed output")
        check(inputs(lines_a) == inputs(lines_b) and inputs(lines_a),
              f"{workload}: input identity repeats at seed {SEED}")
        if workload in SEEDED_GRAPHS:
            check(fingerprints(lines_a) != fingerprints(lines_c),
                  f"{workload}: seed {OTHER_SEED} changes the fingerprint")
        else:
            check(fingerprints(lines_a) == fingerprints(lines_c),
                  f"{workload}: seed {OTHER_SEED} keeps the fixed structure")
        check(traced_a["failed"] == traced_b["failed"],
              f"{workload}: failed repeats ({traced_a['failed']})")
        if workload in FIXED_WORK:
            check(traced_a["attempted"] == traced_b["attempted"],
                  f"{workload}: attempted repeats ({traced_a['attempted']})")
        ifub = [r["metrics"]["graph.ifub_bfs"]["value"]
                for r in (traced_a, traced_b)]
        check(ifub[0] == ifub[1] and ifub[0] > 0,
              f"{workload}: graph.ifub_bfs repeats ({ifub[0]:g})")
        if workload == "warm-road":
            samples = [r["metrics"]["bc.samples"]["value"]
                       for r in (traced_a, traced_b)]
            check(samples[0] == samples[1] and samples[0] > 0,
                  f"warm-road: bc.samples repeats ({samples[0]:g})")
        if workload == "hub-churn":
            a, b = dirty_sequence(lines_a), dirty_sequence(lines_b)
            common = min(len(a), len(b))
            check(common >= 3 and a[:common] == b[:common],
                  f"hub-churn: dirty sequence repeats ({a[:common]})")
    print("all repeat checks passed")


if __name__ == "__main__":
    main()
