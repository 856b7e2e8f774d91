"""The traced gate of each gated benchmark workload, run in this process.

``perfbench/`` drives the library through its public functions and a few
private entry points (``RunConfig.build_escort``, ``suite.clear_cache``,
``suite._traj.cache_info()``). A change that drops one of them fails here,
before a benchmark run. The workloads named in ``BENCHMARK.json`` are the
gated ones; each passes the benchmark's traced gate (``run.py --trace 1``):
one untraced and two traced units in one process, each passing its own
checks, the counts that must repeat equal between the two traced units, and
no child process left. The span tracer wraps ``weights``, ``log`` and ``exp``
on each escort class that defines them.
"""

import json
import os
import random

import pytest

from escortdyn import suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    GATED = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delenv("ESCORTDYN_THREADS", raising=False)  # the benchmark unsets it too
    import workloads

    return workloads


@pytest.mark.parametrize("name", GATED)
def test_traced_run_passes_its_gate(workloads, tmp_path, name):
    """``run.py --trace 1`` in process: one untraced and two traced units, each
    passing its checks, with equal repeated counts and no child left."""
    import run

    unit = workloads.WORKLOADS[name](random.Random(1), str(tmp_path))
    try:
        values, attempted, failed, repeat, _ = run.traced(unit)
    finally:
        suite.clear_cache()  # paper_suite fills the trajectory cache
    assert (attempted, failed) == (3 * unit.operations, 0)
    assert repeat
    assert values["escorts.weights_calls"] > 0 and values["dynamics.integrate_calls"] > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
