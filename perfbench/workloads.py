"""The benchmark workloads ``portfolio`` and ``serve``, and the ``ladder``.

The ladder is not a workload of its own: every traced run climbs it in
its ladder probe (``layers.probe_ladder``).  Each of the three objects
has the same life cycle, driven by ``run.py`` or by that probe:

* ``setup(work_dir)`` builds inputs and NumPy references, starts its
  pool or service and runs one warm-up pass of every kind;
* ``run_pass(rng, rec)`` attempts one whole round of its operations,
  timing each call into the program and recording it on ``rec``;
* ``drain(rec)`` completes work still in flight (only ``serve`` has any);
* ``final_checks()`` returns the problems found by whole-run checks;
* ``close()`` stops what ``setup`` started.

All loops are closed: the single client thread issues its next call
only after the previous one returned (``serve`` keeps a fixed window of
submissions in flight instead).  ``--seed`` only orders the operations;
app data comes from each app's own fixed generator.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from checks import (
    check_ckpt_write,
    check_identical,
    check_reference,
    check_resume,
    check_serve_accounting,
)

from repro.apps import (
    PORTFOLIO_APPS,
    MLPStep,
    Adam,
    SU3ET,
    Stencil1D,
    XSBench,
    run,
)


def slug(app) -> str:
    """Short app name used in kind and metric names (``stencil1d``)."""
    return type(app).__module__.rsplit(".", 1)[-1]


@dataclass
class Op:
    """One timed call into the program."""

    rid: int
    kind: str
    group: str
    start_s: float
    dur_s: float
    failed: bool


@dataclass
class Recorder:
    """Collects timed operations; mirrors each as a span when tracing.

    Spans go onto the process tracer's ``bench:client`` track with the
    operation's request id, beside the spans the program records itself.
    An operation fails when its call raised (``errors``) or its output
    failed a check (``wrong``).
    """

    tracer: Optional[object] = None
    ops: List[Op] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    _rids: object = field(default_factory=lambda: itertools.count(1))

    def add(self, kind: str, group: str, start_s: float, end_s: float, *,
            error: Optional[str] = None, wrong: Optional[str] = None) -> Op:
        """Record one operation."""
        op = Op(next(self._rids), kind, group, start_s, end_s - start_s,
                failed=error is not None or wrong is not None)
        self.ops.append(op)
        if error is not None:
            self.errors.append(f"{kind} [{group}] op {op.rid}: {error}")
        if wrong is not None:
            self.mark_wrong(op, wrong)
        if self.tracer is not None:
            offset_us = self.tracer.now_us() - time.monotonic() * 1e6
            self.tracer.add_span(
                f"op:{kind}", "bench", "bench:client",
                start_s * 1e6 + offset_us, (end_s - start_s) * 1e6,
                {"rid": op.rid, "kind": kind, "group": group},
            )
        return op

    def mark_wrong(self, op: Op, problem: str) -> None:
        """Fail ``op`` because a check rejected its output."""
        op.failed = True
        self.wrong.append(f"{op.kind} [{op.group}] op {op.rid}: {problem}")


def _call(fn):
    """Time ``fn()``; returns ``(start, end, value, error)``."""
    start = time.monotonic()
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return start, time.monotonic(), None, f"{type(exc).__name__}: {exc}"
    return start, time.monotonic(), value, None


class _Workload:
    """Defaults for the closed-loop workloads that keep nothing in flight."""

    def drain(self, rec: Recorder) -> None:
        """Complete work still in flight; nothing is, between calls."""

    def rates(self, rec: Recorder) -> List[float]:
        """Completed operations per second of call time, one value per pass.

        Every pass records one operation per kind, in order; time spent
        on checks between calls is not counted.
        """
        n = len(self.kinds)
        passes = [rec.ops[i:i + n] for i in range(0, len(rec.ops), n)]
        return [sum(not op.failed for op in ops) / sum(op.dur_s for op in ops)
                for ops in passes]

    def final_checks(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


# --- portfolio ----------------------------------------------------------------
#: One fixed enlarged problem per kind, so that every operation takes
#: tens of ms on a 2-core host (functional scale ranges from 0.5 ms to
#: 40 ms).  Keys are (app slug, variant); values override the app's
#: ``functional_params()``.
PORTFOLIO_SCALE: Dict[Tuple[str, str], Dict[str, int]] = {
    ("xsbench", "ompx"): {"lookups": 8000},
    ("xsbench", "omp"): {"lookups": 800},
    ("xsbench", "native-llvm"): {"lookups": 8000},
    ("rsbench", "ompx"): {"lookups": 240},
    ("rsbench", "omp"): {"lookups": 800},
    ("rsbench", "native-llvm"): {"lookups": 240},
    ("su3", "ompx"): {"sites": 320},
    ("su3", "omp"): {"sites": 6400},
    ("su3", "native-llvm"): {"sites": 320},
    ("aidw", "ompx"): {},
    ("aidw", "omp"): {"dnum": 1920, "inum": 1600},
    ("aidw", "native-llvm"): {},
    ("adam", "ompx"): {"n": 120000},
    ("adam", "omp"): {"n": 6000},
    ("adam", "native-llvm"): {"n": 120000},
    ("stencil1d", "ompx"): {"n": 4000},
    ("stencil1d", "omp"): {"n": 20000},
    ("stencil1d", "native-llvm"): {"n": 4000},
    ("mlpstep", "ompx"): {"models": 1200, "steps": 4},
    ("mlpstep", "omp"): {"models": 300},
    ("mlpstep", "native-llvm"): {"models": 1200, "steps": 4},
    ("su3et", "ompx"): {"sites": 9600},
    ("su3et", "omp"): {"sites": 6400},
    ("su3et", "native-llvm"): {"sites": 480},
}


class Portfolio(_Workload):
    """Every portfolio app x functional variant on one device."""

    name = "portfolio"

    def __init__(self) -> None:
        self.entries = []
        for cls in PORTFOLIO_APPS:
            app = cls()
            for variant in app.functional_variants:
                params = dict(app.functional_params())
                params.update(PORTFOLIO_SCALE[(slug(app), variant)])
                self.entries.append((f"{slug(app)}.{variant}", app, variant, params))
        self.kinds = [kind for kind, *_ in self.entries]
        self.expected: Dict[str, object] = {}

    def setup(self, work_dir: str) -> List[str]:
        self.expected = {kind: app.reference(params)
                         for kind, app, _, params in self.entries}
        warm = Recorder()
        for entry in self.entries:
            self._one(entry, warm)
        return warm.errors + warm.wrong

    def _one(self, entry, rec: Recorder) -> None:
        kind, app, variant, params = entry
        start, end, result, error = _call(
            lambda: run(app, variant=variant, params=params))
        wrong = None if error else check_reference(result.output,
                                                   self.expected[kind])
        rec.add(kind, "run", start, end, error=error, wrong=wrong)

    def run_pass(self, rng, rec: Recorder) -> None:
        order = list(self.entries)
        rng.shuffle(order)
        for entry in order:
            self._one(entry, rec)


# --- ladder -------------------------------------------------------------------

#: Apps whose ompx kernels run on the vector, wave and vendor paths, so
#: that engine time is small and the execution plumbing dominates.
LADDER_APPS = (XSBench, Adam, Stencil1D, MLPStep, SU3ET)

#: Rungs in execution order; each adds one layer to the one before.  The
#: checkpoint rungs also get a fresh ``checkpoint_dir``; ``ckpt_resume``
#: reads the chain ``ckpt_write`` just wrote.
RUNGS = (
    ("single", {}),
    ("devices2", {"devices": 2}),
    ("resilient", {"devices": 2, "resilient": True}),
    ("ckpt_write", {"devices": 2, "resilient": True}),
    ("ckpt_resume", {"devices": 2, "resilient": True, "resume": True}),
)


class Ladder(_Workload):
    """Each ladder app through single -> devices=2 -> resilient -> checkpoint -> resume."""

    def __init__(self) -> None:
        self.apps = [cls() for cls in LADDER_APPS]
        self.kinds = [f"{slug(app)}.ompx.{rung}"
                      for app in self.apps for rung, _ in RUNGS]
        self.expected: Dict[str, object] = {}
        self.nshards: Dict[str, int] = {}
        self.work_dir = ""

    def setup(self, work_dir: str) -> List[str]:
        self.work_dir = work_dir
        problems = []
        for app in self.apps:
            params = app.functional_params()
            single = run(app)
            problem = check_reference(single.output, app.reference(params))
            if problem:
                problems.append(f"{slug(app)} single-device run: {problem}")
            self.expected[slug(app)] = single.output
            # run_checkpointed shards into max(devices, 4) = 4 waves.
            self.nshards[slug(app)] = len(app.shard_functional_params(params, 4))
        warm = Recorder()
        for app in self.apps:
            self._climb(app, warm)
        return problems + warm.errors + warm.wrong

    def _climb(self, app, rec: Recorder) -> None:
        name = slug(app)
        ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
        try:
            for rung, config in RUNGS:
                config = dict(config)
                if rung.startswith("ckpt"):
                    config["checkpoint_dir"] = ckpt_dir
                start, end, result, error = _call(lambda: run(app, **config))
                wrong = None
                if error is None:
                    wrong = check_identical(result.output, self.expected[name])
                if wrong is None and rung == "ckpt_write":
                    wrong = check_ckpt_write(result.checkpoint.stats,
                                             self.nshards[name])
                if wrong is None and rung == "ckpt_resume":
                    wrong = check_resume(result.checkpoint.stats,
                                         self.nshards[name])
                rec.add(f"{name}.ompx.{rung}", rung, start, end,
                        error=error, wrong=wrong)
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    def run_pass(self, rng, rec: Recorder) -> None:
        order = list(self.apps)
        rng.shuffle(order)
        for app in order:
            self._climb(app, rec)


# --- serve --------------------------------------------------------------------

#: The serve mix: Stencil-1D stays out because every sharded run after
#: the first on a long-lived pool fails (``enable_peer_access`` is called
#: unconditionally; see README).
SERVE_APPS = (XSBench, Adam, MLPStep, SU3ET)
SERVE_VARIANTS = ("ompx", "native-llvm")
#: (tenant, fair-share weight); submissions are split in the same ratio.
TENANTS = (("t0", 1), ("t1", 2), ("t2", 3))
#: Submissions the client keeps in flight.
WINDOW = 8
#: Submissions per round, and how many of them repeat the previous one.
ROUND = 48
REPEATS = 8


@dataclass(frozen=True)
class Slot:
    """One scheduled submission."""

    tenant: str
    kind: int
    coalesce: bool
    repeat: bool


def serve_schedule(rng, kinds: int = 8) -> List[Slot]:
    """One round: ``ROUND`` submissions, ``REPEATS`` of them repeats.

    Tenants get submissions in their weight ratio (8/16/24).  A repeat
    re-submits the previous slot's kind from another tenant; both carry
    ``coalesce=True`` and every other slot ``coalesce=False``, so exactly
    ``REPEATS`` submissions per round coalesce.  Each kind leads exactly
    one pair per round and pairs sit at least ``WINDOW / 2`` slots from
    the round's ends, so two pairs of one kind are never in flight
    together.
    """
    total = sum(w for _, w in TENANTS)
    tenants = [name for name, w in TENANTS for _ in range(ROUND * w // total)]
    rng.shuffle(tenants)
    # Leaders: REPEATS non-adjacent positions away from the round's ends,
    # each followed by a slot of another tenant.
    while True:
        lo, hi = WINDOW // 2, ROUND - WINDOW // 2 - 1
        leaders = sorted(rng.sample(range(lo, hi), REPEATS))
        if all(b - a >= 2 for a, b in zip(leaders, leaders[1:])) and all(
                tenants[p] != tenants[p + 1] for p in leaders):
            break
    pair_kinds = list(range(kinds))
    rng.shuffle(pair_kinds)
    others = [k for k in range(kinds)
              for _ in range((ROUND - 2 * REPEATS) // kinds)]
    rng.shuffle(others)
    lead_kind = dict(zip(leaders, pair_kinds))
    slots = []
    for pos in range(ROUND):
        if pos in lead_kind:
            slots.append(Slot(tenants[pos], lead_kind[pos], True, False))
        elif pos - 1 in lead_kind:
            slots.append(Slot(tenants[pos], lead_kind[pos - 1], True, True))
        else:
            slots.append(Slot(tenants[pos], others.pop(), False, False))
    return slots


class Serve(_Workload):
    """One client keeping ``WINDOW`` app submissions in flight on a service."""

    name = "serve"

    def __init__(self) -> None:
        self.entries = [(f"{slug(app)}.{variant}", app, variant)
                        for app in (cls() for cls in SERVE_APPS)
                        for variant in SERVE_VARIANTS]
        self.kinds = [kind for kind, *_ in self.entries]
        self.expected: Dict[str, object] = {}
        self.service = None
        self.sessions: Dict[str, object] = {}
        self.inflight: deque = deque()
        self.repeats = 0

    def setup(self, work_dir: str) -> List[str]:
        from repro.serve import KernelService, TenantQuota

        problems = []
        for kind, app, variant in self.entries:
            single = run(app, variant=variant)
            problem = check_reference(single.output,
                                      app.reference(app.functional_params()))
            if problem:
                problems.append(f"{kind} single-device run: {problem}")
            self.expected[kind] = single.output
        self.service = KernelService(
            devices=2, journal_dir=tempfile.mkdtemp(prefix="journal-",
                                                    dir=work_dir))
        self.sessions = {
            name: self.service.session(name, quota=TenantQuota(weight=weight))
            for name, weight in TENANTS
        }
        self.repeats = 0
        warm = Recorder()
        for index in range(len(self.entries)):
            self._submit(Slot(TENANTS[index % 3][0], index, False, False))
        self.drain(warm)
        return problems + warm.errors + warm.wrong

    def _submit(self, slot: Slot) -> None:
        kind, app, variant = self.entries[slot.kind]
        future = self.sessions[slot.tenant].submit_app(
            app, variant=variant, coalesce=slot.coalesce)
        self.repeats += slot.repeat
        self.inflight.append((kind, slot.tenant, future))

    def _retire(self, rec: Recorder) -> None:
        kind, tenant, future = self.inflight.popleft()
        error = None
        if not future.wait(timeout=120.0):
            error = "no result within 120 s"
        elif (exc := future.exception()) is not None:
            error = f"{type(exc).__name__}: {exc}"
        end = future.done_s if future.done_s is not None else time.monotonic()
        op = rec.add(kind, tenant, future.submitted_s, end, error=error)
        if error is None:
            # The latency is already fixed by the future's own timestamps,
            # so checking here adds nothing to it.
            wrong = check_identical(future.result().output, self.expected[kind])
            if wrong is not None:
                rec.mark_wrong(op, wrong)


    def run_pass(self, rng, rec: Recorder) -> None:
        schedule = serve_schedule(rng, len(self.entries))
        for pos, slot in enumerate(schedule):
            if slot.repeat:
                continue  # submitted back to back with its leader below
            # A leader and its repeat go in together, so the repeat always
            # finds the leader in flight whatever the dispatch timing.
            need = 2 if slot.coalesce else 1
            while len(self.inflight) > WINDOW - need:
                self._retire(rec)
            self._submit(slot)
            if slot.coalesce:
                self._submit(schedule[pos + 1])

    def drain(self, rec: Recorder) -> None:
        """Retire every submission still in flight."""
        while self.inflight:
            self._retire(rec)

    def rates(self, rec: Recorder) -> List[float]:
        """Completions per second over each run of ``ROUND`` completions."""
        ends = sorted(op.start_s + op.dur_s for op in rec.ops if not op.failed)
        starts = [min(op.start_s for op in rec.ops)] + ends[ROUND - 1::ROUND]
        return [ROUND / (b - a) for a, b in zip(starts, ends[ROUND - 1::ROUND])]

    def final_checks(self) -> List[str]:
        problem = check_serve_accounting(self.service.stats()["service"],
                                         self.repeats)
        return [f"serve accounting: {problem}"] if problem else []

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (Portfolio, Serve)}
