"""``run`` and ``sweep`` on configs drawn by hypothesis, through ``cli.main``
in this process: every config ends with a documented exit code, at most the
one documented line on stderr, and, where it completes, finite states.

The draws reach the edges of the configs: escort parameters of -50, -1, 0,
1e-300, 1e300 and +-1e6, matrix entries up to +-1e308 in every form, starts
and references on a face, and steps of 1e-300. Horizons are at most 50 steps.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escortdyn.cli import ESCORTS, main  # noqa: E402
from escortdyn.landscapes import BUILTIN_LANDSCAPES  # noqa: E402

EDGES = [-50.0, -1.0, 0.0, 1e-300, 1e300, 1e6, -1e6, 0.5, 1.0, 2.0]
values = st.sampled_from(EDGES) | st.floats(-1e6, 1e6)
entries = st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308]) | st.floats(-1e308, 1e308)
# each family's parameters, as the config names them
PARAMS = {"identity": (), "scaled": ("beta",), "power": ("q",), "constant": ("c",), "exponential": ()}
assert PARAMS.keys() == ESCORTS.keys()
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def points(n):
    """Points of the simplex with n entries: interior, or on a face where a weight is 0."""
    return st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any).map(
        lambda w: [v / sum(w) for v in w])


@st.composite
def configs(draw):
    family = draw(st.sampled_from(sorted(PARAMS)))
    escort = {"family": family, **{name: draw(values) for name in PARAMS[family]}}
    if draw(st.booleans()):
        n, landscape = 3, {"builtin": draw(st.sampled_from(BUILTIN_LANDSCAPES))}
    else:
        n = draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        landscape = {"matrix": rows, "form": draw(st.sampled_from(["linear", "escort", "escort_log"]))}
    step = draw(st.sampled_from([1e-300, 1e-3, 0.05]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    config = {"escort": escort, "landscape": landscape, "x0": draw(points(n)),
              "t_end": draw(st.integers(1, 50)) * step, "step": step, "observe_every": draw(st.integers(1, 7)),
              "output": {"path": f"out/run.{fmt}", "format": fmt}}
    refs = draw(st.none() | points(n))
    if refs is not None:
        config["refs"] = refs
    return config


def cli(config, *args):
    """(exit code, stdout, stderr, {output path: state rows}) of ``escortdyn
    *args --config <config>`` in a new working directory."""
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("config.json", "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*args, "--config", "config.json"])
            written = {os.path.join("out", name): states(os.path.join("out", name), len(config["x0"]))
                       for name in (os.listdir("out") if os.path.isdir("out") else ())}
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), written


def states(path, n):
    """The state columns x_1..x_n of a written trajectory, row by row (None for a JSON null)."""
    with open(path) as fh:
        if path.endswith(".csv"):
            return [[float(v) for v in row[1 : n + 1]] for row in list(csv.reader(fh))[1:]]
        return [row[1 : n + 1] for row in json.load(fh)["rows"]]


def assert_documented(code, err):
    assert code in (0, 2, 3, 4)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                         and err.startswith(("config error: ", "domain error: "))), err


def assert_finite(rows):
    assert rows and all(v is not None and math.isfinite(v) for row in rows for v in row)


@PROPERTY
@given(config=configs())
def test_run(config):
    code, _, err, written = cli(config, "run")
    assert_documented(code, err)
    if code == 0:
        assert_finite(written[config["output"]["path"]])


@PROPERTY
@given(config=configs(), data=st.data(),
       swept=st.lists(values | st.floats(0.1, 10.0), min_size=1, max_size=3, unique=True))  # most in every range
def test_sweep(config, data, swept):
    param = data.draw(st.sampled_from(PARAMS[config["escort"]["family"]] or ("q",)))  # "q": no parameter to sweep
    # one argument, so that a value such as -1e-300 is not read as an option
    code, out, err, written = cli(config, "sweep", "--param", param, "--values=" + ",".join(map(repr, swept)))
    assert_documented(code, err)
    if code != 2:
        runs = json.loads(out)["runs"]
        assert code == max(run["exit_code"] for run in runs)
        for run in runs:
            assert run["exit_code"] in (0, 3, 4)
            if run["exit_code"] == 0:
                assert_finite(written[run["output"]])
