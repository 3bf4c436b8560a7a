"""Steadiness check: run every workload N times and report each metric's spread.

Run from the repository root::

    python3 perfbench/steady.py --runs 20

Each run is ``BENCHMARK.json``'s command with ``--trace 0`` and its
``run_seconds``; run ``i`` uses seed ``first_seed + i`` and the workload
order alternates between runs.  The runs form two sets, the first half
and the second half, so ``--runs 20`` gives two sets of ten.  For every
end-to-end metric the report gives each set's median and spread, which
is the inter-quartile distance (``statistics.quantiles(n=4)``) as a
share of the median, and the drift between the two medians as a share
of the first, next to the metric's bound.  ``--runs 1`` runs every
workload once, which is the quickest full end-to-end pass.  Exits 1
when a run is incorrect, a workload's failed share differs between
runs, or a spread or the drift reaches its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    """One untraced benchmark run as a child process; returns its result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench:"):
            print(f"  [{workload} seed {seed}] {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """(median, (q3 - q1) / median) of a list of measurements."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            result = run_once(spec["command"], workload, args.first_seed + i,
                              spec["run_seconds"])
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"run {i} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{values}", flush=True)

    status = 0
    print(f"\n{'workload':10s} {'metric':12s} {'set 1':>12s} {'spread':>8s} "
          f"{'set 2':>12s} {'spread':>8s} {'drift':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) > 1:
            status = 1
            print(f"{workload}: incorrect run or failed share differs "
                  f"between runs: {sorted(shares)}")
        if len(runs) < 4:
            for name, m in runs[0]["metrics"].items():
                print(f"{workload:10s} {name:12s} {m['value']:12.4f} {m['unit']}")
            continue
        half = len(runs) // 2
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            first, first_spread = spread(values[:half])
            second, second_spread = spread(values[half:])
            drift = abs(second - first) / first
            worst = max(first_spread, second_spread, drift)
            flag = ""
            if worst >= bound:
                flag, status = "  OVER BOUND", 1
            elif worst >= bound / 3:
                flag = "  over a third of bound"
            print(f"{workload:10s} {name:12s} {first:12.4f} {first_spread:8.2%} "
                  f"{second:12.4f} {second_spread:8.2%} {drift:8.2%} "
                  f"{bound:6.2f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
