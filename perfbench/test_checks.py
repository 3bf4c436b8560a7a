"""Self-tests of the benchmark: every correctness check fires when it should.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import random
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    check_ckpt_write,
    check_figure8,
    check_identical,
    check_launch_geometry,
    check_reference,
    check_resume,
    check_serve_accounting,
)
from layers import PER_LAYER, from_trace  # noqa: E402
from workloads import REPEATS, ROUND, TENANTS, WINDOW, serve_schedule  # noqa: E402


# --- output checks ------------------------------------------------------------

def test_reference_check_fires_on_a_perturbed_app_output():
    from repro.apps import XSBench, run

    app = XSBench()
    params = app.functional_params()
    output = run(app).output
    expected = app.reference(params)
    assert check_reference(output, expected) is None
    perturbed = output.copy()
    perturbed[len(perturbed) // 2] *= 1 + 1e-8
    assert "differs from reference" in check_reference(perturbed, expected)
    assert "shape" in check_reference(output[:-1], expected)


def test_identity_check_fires_on_a_one_ulp_change():
    output = np.linspace(0.0, 1.0, 17)
    assert check_identical(output.copy(), output) is None
    perturbed = output.copy()
    perturbed[3] = np.nextafter(perturbed[3], 2.0)
    assert check_identical(perturbed, output) is not None


# --- checkpoint checks --------------------------------------------------------

def test_resume_check_fires_when_a_shard_is_re_executed(tmp_path):
    from repro.apps import Adam, run
    from repro.ckpt import list_snapshots

    app = Adam()
    nshards = len(app.shard_functional_params(app.functional_params(), 4))
    written = run(app, devices=2, checkpoint_dir=str(tmp_path))
    assert check_ckpt_write(written.checkpoint.stats, nshards) is None
    complete = run(app, devices=2, checkpoint_dir=str(tmp_path), resume=True)
    assert check_resume(complete.checkpoint.stats, nshards) is None
    # Lose the newest snapshot: the resume restores one wave fewer and
    # re-executes the last shard, which the check must catch.
    os.unlink(list_snapshots(str(tmp_path))[-1][1])
    partial = run(app, devices=2, checkpoint_dir=str(tmp_path), resume=True)
    assert np.array_equal(partial.output, written.output)
    assert check_resume(partial.checkpoint.stats, nshards) is not None


def test_ckpt_write_check_fires_on_a_missing_or_failed_snapshot():
    assert check_ckpt_write({"writes": 4, "write_failures": 0}, 4) is None
    assert check_ckpt_write({"writes": 3, "write_failures": 0}, 4) is not None
    assert check_ckpt_write({"writes": 4, "write_failures": 1}, 4) is not None


# --- serve checks -------------------------------------------------------------

def _service(submitted, executions, coalesced, rejected=0):
    return {"submitted": submitted, "executions": executions,
            "coalesced": coalesced, "rejected": rejected}


def test_serve_accounting_fires_on_a_wrong_coalescing_count():
    assert check_serve_accounting(_service(48, 40, 8), repeats=8) is None
    assert check_serve_accounting(_service(48, 41, 7), repeats=8) is None
    assert "executed" in check_serve_accounting(_service(48, 40, 7), repeats=8)
    assert "only 8" in check_serve_accounting(_service(48, 39, 9), repeats=8)
    assert "rejected" in check_serve_accounting(_service(48, 40, 8, 1), repeats=8)


@pytest.mark.parametrize("seed", range(20))
def test_serve_schedule_has_the_stated_make_up(seed):
    slots = serve_schedule(random.Random(seed))
    assert len(slots) == ROUND
    total = sum(w for _, w in TENANTS)
    assert Counter(s.tenant for s in slots) == {
        name: ROUND * w // total for name, w in TENANTS}
    repeats = [i for i, s in enumerate(slots) if s.repeat]
    assert len(repeats) == REPEATS
    assert sum(s.coalesce for s in slots) == 2 * REPEATS
    for i in repeats:
        leader = slots[i - 1]
        assert leader.coalesce and not leader.repeat
        assert leader.kind == slots[i].kind and leader.tenant != slots[i].tenant
        assert WINDOW // 2 <= i - 1 and i < ROUND - WINDOW // 2
    assert sorted(slots[i].kind for i in repeats) == list(range(8))


# --- trace checks -------------------------------------------------------------

def _kernel(grid, block, blocks_run, threads_run, ts=0.0, dur=10.0):
    return {"ph": "X", "cat": "kernel", "name": "kernel:k", "ts": ts, "dur": dur,
            "args": {"engine": "vector", "grid": grid, "block": block,
                     "blocks_run": blocks_run, "threads_run": threads_run}}


def test_launch_geometry_check_fires_on_a_short_launch():
    assert check_launch_geometry([_kernel([4, 1, 1], [32, 1, 1], 4, 128)]) == []
    assert len(check_launch_geometry([_kernel([4, 1, 1], [32, 1, 1], 4, 127)])) == 1
    assert len(check_launch_geometry([_kernel([4, 2, 1], [32, 1, 1], 4, 256)])) == 1


def test_figure8_check_fires_on_a_broken_relation():
    from repro.harness.figures import figure8_relations

    relations = figure8_relations()
    assert check_figure8(relations) == []
    rel = relations[0][0]
    assert check_figure8([(rel, False)]) == [f"{rel.app} on {rel.system}: {rel.claim}"]


def test_unattributed_time_excludes_device_spans_inside_operations():
    op = {"ph": "X", "cat": "bench", "name": "op:xsbench.ompx", "ts": 0.0,
          "dur": 1000.0, "args": {"kind": "xsbench.ompx", "group": "run", "rid": 1}}
    events = [op, _kernel([1, 1, 1], [4, 1, 1], 1, 4, ts=100.0, dur=300.0),
              _kernel([1, 1, 1], [4, 1, 1], 1, 4, ts=200.0, dur=300.0),
              {"ph": "C", "name": "launches", "args": {"value": 2.0}}]
    metrics = from_trace(events, passes=1)
    assert metrics["apps.unattributed_ms"] == pytest.approx(0.6)
    assert metrics["gpu.vector.busy_ms"] == pytest.approx(0.6)
    assert metrics["gpu.vector.threads_per_s"] == pytest.approx(8 / 600e-6)
    assert metrics["apps.xsbench.ompx.run_ms"] == pytest.approx(1.0)
    assert metrics["gpu.launches"] == 2.0


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
