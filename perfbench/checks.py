"""Correctness checks the benchmark applies to every operation it times.

Each check is a pure function returning ``None`` when the property holds
and a one-line reason when it does not, so the self-tests can feed them
perturbed outputs, skipped shards and wrong counts without running the
simulator.  Checks run outside every timed interval; a failing check
counts its operation as failed.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Optional

import numpy as np

#: The tolerance ``BenchmarkApp.verify`` applies against ``reference()``
#: (SU3 at its default ``verify=3`` level uses the same element-wise test).
VERIFY_RTOL = 1e-10
VERIFY_ATOL = 1e-12


def check_reference(output, expected) -> Optional[str]:
    """An output agrees with the app's NumPy reference at verify tolerance."""
    output = np.asarray(output)
    expected = np.asarray(expected)
    if output.shape != expected.shape:
        return f"shape {output.shape} != reference {expected.shape}"
    if not np.allclose(output, expected, rtol=VERIFY_RTOL, atol=VERIFY_ATOL):
        worst = float(np.max(np.abs(output - expected)))
        return f"differs from reference (max abs error {worst:.3e})"
    return None


def check_identical(output, expected) -> Optional[str]:
    """An output is bit-identical to the single-device run of its variant."""
    if not np.array_equal(np.asarray(output), np.asarray(expected)):
        return "not bit-identical to the single-device run"
    return None


def check_ckpt_write(stats: Mapping[str, int], nshards: int) -> Optional[str]:
    """A fresh checkpointed run publishes one snapshot per wave."""
    if stats.get("writes") != nshards or stats.get("write_failures", 0):
        return (f"wrote {stats.get('writes')} snapshots "
                f"({stats.get('write_failures', 0)} failed), "
                f"expected {nshards}")
    return None


def check_resume(stats: Mapping[str, int], nshards: int) -> Optional[str]:
    """Resuming a complete chain restores every shard and re-executes none."""
    if stats.get("resumed_step") != nshards \
            or stats.get("steps_skipped") != nshards:
        return (f"resume restored step {stats.get('resumed_step')} and "
                f"skipped {stats.get('steps_skipped')} of {nshards} shards")
    return None


def check_serve_accounting(service: Mapping[str, int],
                           repeats: int) -> Optional[str]:
    """Every submission executed or coalesced, none refused, none lost.

    ``service`` is ``KernelService.stats()["service"]``.  Only the
    ``repeats`` scheduled repeats carry ``coalesce=True`` behind an
    in-flight leader, so no more than that may coalesce.  (A repeat whose
    leader already finished executes on its own, which is correct.)
    """
    submitted = service["submitted"]
    executed = service["executions"]
    coalesced = service["coalesced"]
    if service["rejected"]:
        return f"{service['rejected']} submissions rejected"
    if submitted != executed + coalesced:
        return (f"submitted {submitted} != executed {executed} + "
                f"coalesced {coalesced}")
    if coalesced > repeats:
        return f"coalesced {coalesced}, but only {repeats} repeats may"
    return None


def check_launch_geometry(events: Iterable[Mapping]) -> List[str]:
    """Every traced launch ran exactly the threads and blocks it asked for."""
    problems = []
    for ev in events:
        if ev.get("ph") != "X" or ev.get("cat") != "kernel":
            continue
        args = ev["args"]
        blocks = math.prod(args["grid"])
        threads = blocks * math.prod(args["block"])
        if args.get("blocks_run") != blocks \
                or args.get("threads_run") != threads:
            problems.append(
                f"{ev['name']} on {args.get('engine')}: ran "
                f"{args.get('blocks_run')} blocks / "
                f"{args.get('threads_run')} threads, launched "
                f"{blocks} / {threads}"
            )
    return problems


def check_figure8(relations) -> List[str]:
    """Every §4.2 relation of the modeled Figure 8 still holds."""
    return [f"{rel.app} on {rel.system}: {rel.claim}"
            for rel, ok in relations if not ok]
