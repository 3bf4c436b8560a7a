"""Per-layer metrics: derived from a traced run's Chrome trace, plus probes.

``PER_LAYER`` is the canonical list (name, unit, better) that
``BENCHMARK.json`` mirrors; every traced run reports all of them, with 0
for a layer the workload does not exercise (``serve.samples`` on
``portfolio`` is 0 by design, and that is the prediction worth checking).

Trace-derived metrics read only the exported events: the benchmark's own
``bench`` spans (one per operation, with its request id) and the spans
and counters ``repro.trace`` records inside the program.  Probes time
public functions from outside with tracing off; the ladder probe is one
of them.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

ENGINES = ("vector", "wave", "map", "block-thread")
VARIANTS = ("ompx", "omp", "native-llvm")
PORTFOLIO_SLUGS = ("xsbench", "rsbench", "su3", "aidw", "adam", "stencil1d",
                   "mlpstep", "su3et")
RUNG_NAMES = ("single", "devices2", "resilient", "ckpt_write", "ckpt_resume")
TENANT_NAMES = ("t0", "t1", "t2")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"apps.{s}.{v}.run_ms", "ms", "lower")
      for s in PORTFOLIO_SLUGS for v in VARIANTS),
    *((f"gpu.{e}.threads_per_s", "1/s", "higher") for e in ENGINES),
    *((f"gpu.{e}.busy_ms", "ms", "lower") for e in ENGINES),
    ("gpu.launches", "count", "lower"),
    ("openmp.region.busy_ms", "ms", "lower"),
    ("ompx.vendor.calls", "count", "lower"),
    ("ompx.vendor.busy_ms", "ms", "lower"),
    ("apps.unattributed_ms", "ms", "lower"),
    *((f"ladder.{r}.run_ms", "ms", "lower") for r in RUNG_NAMES),
    ("sched.layer_ms", "ms", "lower"),
    ("resilience.layer_ms", "ms", "lower"),
    ("ckpt.layer_ms", "ms", "lower"),
    ("sched.submit_call_us", "us", "lower"),
    ("ckpt.write_snapshot_ms", "ms", "lower"),
    ("ckpt.read_snapshot_ms", "ms", "lower"),
    ("ckpt.snapshot_bytes", "B", "lower"),
    ("ckpt.journal_append_us", "us", "lower"),
    ("serve.run_ms_p90", "ms", "lower"),
    ("serve.run_ms_p99", "ms", "lower"),
    ("serve.samples", "count", "higher"),
    ("serve.executions_per_submission", "ratio", "lower"),
    *((f"serve.{t}.run_ms_p50", "ms", "lower") for t in TENANT_NAMES),
    ("trace.overhead_pct", "%", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


# --- small statistics helpers -------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cycle_s(ops, kinds: Iterable[str]) -> float:
    """Sum over ``kinds`` of each kind's median latency: one pass of the mix."""
    by_kind: Dict[str, List[float]] = {}
    for op in ops:
        if not op.failed:
            by_kind.setdefault(op.kind, []).append(op.dur_s)
    return sum(median(by_kind.get(kind, [])) for kind in kinds)


def merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of half-open intervals as a sorted disjoint list."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def covered(merged: List[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in merged)


def overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# --- trace-derived metrics ----------------------------------------------------

def from_trace(events: List[Mapping], passes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced phase of ``passes`` whole rounds."""
    spans = [ev for ev in events if ev.get("ph") == "X"]
    counters = {ev["name"]: ev["args"]["value"]
                for ev in events if ev.get("ph") == "C"}
    ops = [ev for ev in spans if ev["cat"] == "bench"]
    metrics: Dict[str, float] = {}

    by_app: Dict[str, List[float]] = {}
    by_tenant: Dict[str, List[float]] = {}
    serve_ms: List[float] = []
    for ev in ops:
        kind, group, ms = ev["args"]["kind"], ev["args"]["group"], ev["dur"] / 1e3
        by_app.setdefault(kind, []).append(ms)
        if group in TENANT_NAMES:
            by_tenant.setdefault(group, []).append(ms)
            serve_ms.append(ms)
    for s in PORTFOLIO_SLUGS:
        for v in VARIANTS:
            metrics[f"apps.{s}.{v}.run_ms"] = median(by_app.get(f"{s}.{v}", []))

    per_pass = 1.0 / max(passes, 1)
    for engine in ENGINES:
        kernels = [ev for ev in spans
                   if ev["cat"] == "kernel" and ev["args"].get("engine") == engine]
        busy_us = sum(ev["dur"] for ev in kernels)
        threads = sum(ev["args"].get("threads_run", 0) for ev in kernels)
        metrics[f"gpu.{engine}.threads_per_s"] = threads / (busy_us / 1e6) if busy_us else 0.0
        metrics[f"gpu.{engine}.busy_ms"] = busy_us / 1e3 * per_pass
    metrics["gpu.launches"] = counters.get("launches", 0.0) * per_pass
    metrics["openmp.region.busy_ms"] = sum(
        ev["dur"] for ev in spans if ev["cat"] == "region") / 1e3 * per_pass
    metrics["ompx.vendor.calls"] = counters.get("vendor_calls", 0.0) * per_pass
    metrics["ompx.vendor.busy_ms"] = sum(
        ev["dur"] for ev in spans if ev["cat"] == "vendor") / 1e3 * per_pass

    # Host time outside any kernel, region or vendor span while an
    # operation was open: input build, upload, download, pool and service.
    op_time = merge((ev["ts"], ev["ts"] + ev["dur"]) for ev in ops)
    device_time = merge((ev["ts"], ev["ts"] + ev["dur"]) for ev in spans
                        if ev["cat"] in ("kernel", "region", "vendor"))
    metrics["apps.unattributed_ms"] = (
        covered(op_time) - overlap(op_time, device_time)) / 1e3 * per_pass

    metrics["serve.run_ms_p90"] = percentile(serve_ms, 90)
    metrics["serve.run_ms_p99"] = percentile(serve_ms, 99)
    metrics["serve.samples"] = float(len(serve_ms))
    submitted = counters.get("serve_submitted", 0.0)
    metrics["serve.executions_per_submission"] = (
        counters.get("serve_executions", 0.0) / submitted if submitted else 0.0)
    for tenant in TENANT_NAMES:
        metrics[f"serve.{tenant}.run_ms_p50"] = median(by_tenant.get(tenant, []))
    return metrics


# --- probes ---------------------------------------------------------------------

def _noop(device) -> None:
    return None


def probe_submit_call(calls: int = 1000) -> float:
    """Median microseconds of one no-op ``DevicePool(2).submit_call`` round trip."""
    from repro.sched import DevicePool

    times = []
    with DevicePool(2) as pool:
        for _ in range(50):
            pool.submit_call(_noop).result()
        for _ in range(calls):
            start = time.perf_counter()
            pool.submit_call(_noop).result()
            times.append(time.perf_counter() - start)
    return median(times) * 1e6


def probe_snapshots(work_dir: str, apps, rounds: int = 10) -> Dict[str, float]:
    """Snapshot write/read times at the ladder's payload sizes.

    The payloads are the terminal snapshots of real ladder chains (one
    per ladder app, ``devices=2``), read back through ``read_snapshot``.
    """
    from repro.apps import run
    from repro.ckpt import list_snapshots, read_snapshot, write_snapshot

    payloads = []
    for app in apps:
        chain = tempfile.mkdtemp(prefix="probe-chain-", dir=work_dir)
        run(app, devices=2, checkpoint_dir=chain)
        payloads.append(read_snapshot(list_snapshots(chain)[-1][1])[1])
        shutil.rmtree(chain, ignore_errors=True)
    target = tempfile.mkdtemp(prefix="probe-ckpt-", dir=work_dir)
    writes, reads, sizes = [], [], []
    try:
        for step in range(rounds * len(payloads)):
            payload = payloads[step % len(payloads)]
            start = time.perf_counter()
            path = write_snapshot(target, step, payload)
            writes.append(time.perf_counter() - start)
            start = time.perf_counter()
            read_snapshot(path)
            reads.append(time.perf_counter() - start)
            sizes.append(os.path.getsize(path))
            os.unlink(path)
    finally:
        shutil.rmtree(target, ignore_errors=True)
    return {
        "ckpt.write_snapshot_ms": median(writes) * 1e3,
        "ckpt.read_snapshot_ms": median(reads) * 1e3,
        "ckpt.snapshot_bytes": float(median(sizes)),
    }


def probe_journal(work_dir: str, pairs: int = 2000) -> float:
    """Median microseconds of one ``record_accepted`` + ``record_done`` pair."""
    from repro.ckpt import SubmissionJournal

    directory = tempfile.mkdtemp(prefix="probe-journal-", dir=work_dir)
    journal = SubmissionJournal(directory)
    descriptor = {"tenant": "t0", "app": ["repro.apps.xsbench", "XSBench"],
                  "variant": "ompx", "params": None, "key": None}
    times = []
    try:
        for _ in range(pairs):
            start = time.perf_counter()
            entry = journal.record_accepted(descriptor)
            journal.record_done(entry)
            times.append(time.perf_counter() - start)
    finally:
        journal.close()
        shutil.rmtree(directory, ignore_errors=True)
    return median(times) * 1e6


#: Climbs of every ladder app per ladder probe.
LADDER_PASSES = 20


def probe_ladder(work_dir: str) -> Tuple[Dict[str, float], List[str]]:
    """Rung times of the ladder apps, and the problems its checks found.

    ``ladder.<rung>.run_ms`` is the sum over the ladder apps of each
    app's median time on that rung; the layer deltas are differences of
    consecutive rungs.
    """
    from workloads import Ladder, Recorder

    ladder = Ladder()
    problems = ladder.setup(work_dir)
    rec = Recorder()
    rng = random.Random(0)
    for _ in range(LADDER_PASSES):
        ladder.run_pass(rng, rec)
    by_kind: Dict[str, List[float]] = {}
    for op in rec.ops:
        if not op.failed:
            by_kind.setdefault(op.kind, []).append(op.dur_s * 1e3)
    rung_ms = {rung: sum(median(by_kind.get(kind, []))
                         for kind in ladder.kinds if kind.endswith(f".{rung}"))
               for rung in RUNG_NAMES}
    metrics = {f"ladder.{rung}.run_ms": rung_ms[rung] for rung in RUNG_NAMES}
    metrics["sched.layer_ms"] = rung_ms["devices2"] - rung_ms["single"]
    metrics["resilience.layer_ms"] = rung_ms["resilient"] - rung_ms["devices2"]
    metrics["ckpt.layer_ms"] = rung_ms["ckpt_write"] - rung_ms["resilient"]
    return metrics, problems + rec.errors + rec.wrong


def probes(work_dir: str) -> Tuple[Dict[str, float], List[str]]:
    """Every probe metric, and the problems the ladder's checks found.

    Run with tracing off.
    """
    from workloads import LADDER_APPS

    metrics, problems = probe_ladder(work_dir)
    metrics["sched.submit_call_us"] = probe_submit_call()
    metrics.update(probe_snapshots(work_dir, [cls() for cls in LADDER_APPS]))
    metrics["ckpt.journal_append_us"] = probe_journal(work_dir)
    return metrics, problems
