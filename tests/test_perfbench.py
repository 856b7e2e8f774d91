"""One unit of each gated benchmark workload, run in this process.

``perfbench/`` drives the library through its public functions and a few
private entry points (``RunConfig.build_escort``, ``suite.clear_cache``,
``suite._traj.cache_info()``). A change that drops one of them fails here,
before a benchmark run. The workloads named in ``BENCHMARK.json`` are the
gated ones; each unit must pass its own checks and leave no child process,
untraced and under the benchmark's span tracer, which wraps ``weights``,
``log`` and ``exp`` on each escort class that defines them.
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


def run_unit(workloads, tmp_path, name, tracer=None):
    """One unit of workload ``name``: it must pass its checks and leave no child process."""
    unit = workloads.WORKLOADS[name](random.Random(1), str(tmp_path))
    try:
        result = unit.run_inprocess(tracer)
    finally:
        suite.clear_cache()  # paper_suite fills the trajectory cache
    assert unit.check(result) == (unit.operations, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", GATED)
def test_one_unit_passes_its_checks(workloads, tmp_path, name):
    run_unit(workloads, tmp_path, name)


@pytest.mark.parametrize("name", GATED)
def test_one_traced_unit_passes_its_checks(workloads, tmp_path, name):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run_unit(workloads, tmp_path, name, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert spans["escorts.weights"][0] > 0 and spans["dynamics.integrate"][0] > 0
