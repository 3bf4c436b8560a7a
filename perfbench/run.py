"""Host-time benchmark of the simulator and its execution stack.

Run from the repository root::

    python3 perfbench/run.py --workload portfolio --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced timed phase.
Its ``setup_s`` is the median of three cold set-ups, each timed from the
start of a fresh interpreter to where its first timed operation begins:
this run's own and two ``--setup-only`` children started afterwards.
``--trace 1`` runs the same untraced phase, then a traced phase of the
same length, writes its Chrome trace to ``perfbench/.work/`` and prints
the per-layer metrics derived from that trace plus the probes.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402 - the clock above starts set-up time
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from checks import check_figure8, check_launch_geometry  # noqa: E402
from layers import UNITS, cycle_s, from_trace, median, probes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Set-ups per untraced run, each in a fresh interpreter; ``setup_s`` is
#: their median.  The first is the run's own, the others are children
#: started with ``--setup-only`` after the timed phase.
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("portfolio", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and problems as "
                             "JSON and exit")
    return parser.parse_args(argv)


def cold_setup(args):
    """One set-up in a fresh interpreter: (seconds, problems)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up child exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result["setup_s"], result["problems"]


def timed_phase(workload, rng, seconds, rec):
    """Whole passes until ``seconds`` have elapsed; returns the pass count."""
    start = time.monotonic()
    passes = 0
    while True:
        workload.run_pass(rng, rec)
        passes += 1
        if time.monotonic() - start >= seconds:
            break
    workload.drain(rec)
    return passes


def end_to_end(workload, rec):
    done = [op.dur_s for op in rec.ops if not op.failed]
    return {
        "runs_per_s": (median(workload.rates(rec)), "1/s"),
        "run_ms_p50": (median(done) * 1e3, "ms"),
        "cycle_s": (cycle_s(rec.ops, workload.kinds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.trace as trace
    from repro.harness.figures import figure8_relations
    from workloads import WORKLOADS, Recorder

    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    rng = random.Random(args.seed)
    workload = None
    try:
        workload = WORKLOADS[args.workload]()
        problems = workload.setup(work_dir)
        setup_times = [time.monotonic() - START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0], "problems": problems}))
            return 0

        rec = Recorder()
        timed_phase(workload, rng, args.seconds, rec)
        recs = [rec]
        if args.trace == 0:
            metrics = end_to_end(workload, rec)
        else:
            untraced_cycle = cycle_s(rec.ops, workload.kinds)
            tracer = trace.enable()
            try:
                traced = Recorder(tracer)
                passes = timed_phase(workload, rng, args.seconds, traced)
            finally:
                trace.disable()
            recs.append(traced)
            path = tracer.export_chrome(
                os.path.join(WORK, f"trace-{args.workload}.json"))
            events = trace.validate_chrome_trace(path)
            problems += check_launch_geometry(events)
            values = from_trace(events, passes)
            values["trace.overhead_pct"] = (
                cycle_s(traced.ops, workload.kinds) / untraced_cycle - 1.0) * 100.0
            probed, found = probes(work_dir)
            values.update(probed)
            problems += found
            metrics = {name: (value, UNITS[name]) for name, value in values.items()}
        problems += workload.final_checks()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            seconds, found = cold_setup(args)
            setup_times.append(seconds)
            problems += found
        metrics["setup_s"] = (median(setup_times), "s")
    problems += check_figure8(figure8_relations())

    ops = [op for r in recs for op in r.ops]
    wrong = problems + [w for r in recs for w in r.wrong]
    for line in wrong + [e for r in recs for e in r.errors]:
        print(f"perfbench: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:36s} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
