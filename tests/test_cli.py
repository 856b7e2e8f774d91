import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from escortdyn import Constant, DomainError, Identity, cli, dynamics
from escortdyn.cli import RunConfig, main
from escortdyn.dynamics import BLOCK_ROWS
from escortdyn import suite


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(base=None):
    """`base` (default: this process's environment) with the absolute `src`
    path first on PYTHONPATH, so a child started in another cwd imports the
    package from this checkout whether or not it is installed."""
    env = dict(os.environ if base is None else base)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd):
    """``escortdyn *args`` in ``cwd``, through ``cli.main`` in this process (under
    the test's warning filters): its exit code, standard output and standard
    error, as ``subprocess.run`` would give them for a child. An argparse exit
    is its code; any other exception propagates."""
    if args[:1] == ("paper-suite",):
        suite.clear_cache()  # a fresh process plans every run: the plan line counts them
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)  # configs name their output relative to the working directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exit_:
                code = exit_.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


MODULE = ["-m", "escortdyn.cli"]
# what the ``escortdyn`` console script calls
ENTRY_POINT = ["-c", "from escortdyn.cli import entrypoint; entrypoint()"]


def run_child(*args, cwd, how=MODULE):
    """``escortdyn *args`` in a fresh interpreter, started ``how``, in ``cwd``."""
    return subprocess.run(
        [sys.executable, *how, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def base_config(tmp_path, **overrides):
    cfg = {
        "escort": {"family": "identity"},
        "landscape": {"builtin": "rsp"},
        "x0": [0.5, 0.3, 0.2],
        "t_end": 1.0,
        "step": 0.001,
        "observe_every": 10,
        "refs": [1 / 3, 1 / 3, 1 / 3],
        "seed": 0,
        "output": {"path": "out/run.csv", "format": "csv"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# valid JSON but invalid runs: bad landscape matrices, and values that would need coercion
BAD_MATRICES = [
    {"landscape": {"matrix": []}},
    {"landscape": {"matrix": [[0.0, float("nan"), 0.0], [0.0] * 3, [0.0] * 3]}},
    {"landscape": {"matrix": [[1e309, 0.0, 0.0], [0.0] * 3, [0.0] * 3]}},
]
COERCED_VALUES = [
    {"escort": {"family": "power", "q": "2"}},
    {"escort": {"family": "scaled", "beta": True}},
    {"observe_every": True},
    {"seed": 1.7},
    {"output": {"path": "out/run.csv", "format": "csv", "mode": "w"}},
    {"x0": ["0.5", 0.3, 0.2]},
]
# JSON integer literals beyond float range, in each place a config holds a number
OVERSIZED_INTEGERS = [
    {"t_end": 10**400},
    {"step": 10**400},
    {"x0": [10**400, 0.3, 0.2]},
    {"escort": {"family": "power", "q": 10**400}},
    {"landscape": {"matrix": [[10**400, 0.0, 0.0], [0.0] * 3, [0.0] * 3]}},
]


def _with(**patch):
    return lambda cfg: {**cfg, **patch}


A3 = [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
# each config error that exits 2 before the run, and the start of its message
CONFIG_ERRORS = [
    ("config must be a JSON object", lambda cfg: list(cfg)),
    ("unknown config keys: ['bogus']", _with(bogus=1)),
    ("config is missing 'x0'", lambda cfg: {k: v for k, v in cfg.items() if k != "x0"}),
    ("refs must have the same length as x0", _with(refs=[0.5, 0.5])),
    ("landscape incompatible with x0 of length 2", _with(x0=[0.5, 0.5], refs=None)),
    ("escort must be an object with a 'family'", _with(escort={"q": 2.0})),
    ("landscape must be an object", _with(landscape="rsp")),
    ("builtin landscapes take no other keys", _with(landscape={"builtin": "rsp", "form": "linear"})),
    ("landscape needs 'builtin' or 'matrix'", _with(landscape={"form": "linear"})),
    ("flat matrix length must be a perfect square", _with(landscape={"matrix": [0.0, 1.0, 2.0]})),
    ("unknown landscape form 'quadratic'", _with(landscape={"matrix": A3, "form": "quadratic"})),
    ("landscape takes only 'matrix' and 'form'", _with(landscape={"matrix": A3, "scale": 2.0})),
    ("x0 must be a list of numbers, got 0.5", _with(x0=0.5)),
    ("refs must be a list of numbers, got 5", _with(refs=5)),
    ("matrix must be a list, got 5", _with(landscape={"matrix": 5})),
]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestRunConfig:
    def test_every_closed_family_is_named(self):
        import escortdyn
        from escortdyn.cli import ESCORTS

        exported = [getattr(escortdyn, name) for name in escortdyn.__all__]
        families = {
            cls for cls in exported
            if isinstance(cls, type) and issubclass(cls, escortdyn.Escort)
            and cls not in (escortdyn.Escort, escortdyn.Custom)
        }
        assert set(ESCORTS.values()) == families
        assert len(ESCORTS) == len(families)

    def test_family_defaults_come_from_the_class(self, tmp_path):
        _, raw = base_config(tmp_path, escort={"family": "constant"})
        assert RunConfig.from_dict(raw).run.phi == Constant(1.0)

    def test_flat_matrix_accepted(self, tmp_path):
        _, raw = base_config(
            tmp_path, landscape={"matrix": [0.0, 1.0, 1.0, 0.0]}, x0=[0.5, 0.5], refs=None
        )
        cfg = RunConfig.from_dict(raw)
        assert cfg.run.landscape == ("linear", ((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize(
        "patch",
        [
            {"x0": [0.5, 0.6]},
            {"escort": {"family": "tsallis"}},
            {"escort": {"family": "power"}},
            {"escort": {"family": "scaled", "beta": -1.0}},
            {"escort": {"family": "identity", "q": 2.0}},  # Power at a fixed q = 1
            {"landscape": {"builtin": "nope"}},
            {"landscape": {"matrix": [[0.0, 1.0]]}},
            {"step": 0.0},
            {"t_end": 0.0001},
            {"observe_every": 0},
            {"output": {"format": "csv"}},
            {"output": {"path": "x.csv", "format": "xml"}},
            {"t_end": 1.0, "step": 0.3},
            {"t_end": 1e308, "step": 0.001},
            *BAD_MATRICES,
            *COERCED_VALUES,
            *OVERSIZED_INTEGERS,
            {"t_end": 1e300, "step": 0.001},  # finite, but more than 2**53 steps
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, patch):
        from escortdyn import ConfigError

        _, raw = base_config(tmp_path, **patch)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


class TestRunCommand:
    def test_successful_run(self, tmp_path):
        path, _ = base_config(tmp_path)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert set(summary) == {
            "status",
            "t_final",
            "x_final",
            "drift_product",
            "drift_integral",
            "lyapunov_monotone",
        }
        assert summary["status"] == "completed"
        assert summary["t_final"] == pytest.approx(1.0)
        assert summary["drift_product"] <= 1e-9

    def test_csv_header_and_bit_exact_roundtrip(self, tmp_path):
        path, _ = base_config(tmp_path)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(tmp_path / "out" / "run.csv")
        assert header == ["t", "x_1", "x_2", "x_3", "escort_mean_fitness", "lyapunov", "integral"]

        from escortdyn import Identity, builtin_landscape, integrate, barycenter

        tr = integrate(
            Identity(),
            builtin_landscape("rsp"),
            [0.5, 0.3, 0.2],
            1.0,
            1e-3,
            observe_every=10,
            ref=barycenter(3),
        )
        # parsing the shortest-round-trip decimals reproduces the doubles exactly
        np.testing.assert_array_equal(rows[:, 0], tr.times)
        np.testing.assert_array_equal(rows[:, 1:4], tr.states)
        np.testing.assert_array_equal(rows[:, 4], tr.mean_fitness)
        np.testing.assert_array_equal(rows[:, 5], tr.lyapunov)
        np.testing.assert_array_equal(rows[:, 6], tr.integral_of_motion)

    def test_no_ref_drops_columns(self, tmp_path):
        path, _ = base_config(tmp_path, refs=None)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        header, _ = read_csv(tmp_path / "out" / "run.csv")
        assert header == ["t", "x_1", "x_2", "x_3", "escort_mean_fitness"]

    def test_deterministic_output_bytes(self, tmp_path):
        # end to end: two fresh interpreters, through ``python -m`` and the console entry point
        path, _ = base_config(tmp_path)
        proc = run_child("run", "--config", str(path), cwd=tmp_path, how=MODULE)
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "out" / "run.csv").read_bytes()
        proc = run_child("run", "--config", str(path), cwd=tmp_path, how=ENTRY_POINT)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run.csv").read_bytes() == first

    def test_json_format(self, tmp_path):
        path, _ = base_config(tmp_path, output={"path": "out/run.json", "format": "json"})
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["columns"][0] == "t"
        assert doc["termination"] == "completed"

    def test_json_writes_non_finite_values_as_null(self, tmp_path):
        # on a face the divergence to the barycenter is +inf and the integral -inf
        face = {"x0": [0.5, 0.5, 0.0], "t_end": 0.01, "step": 0.001}
        path, _ = base_config(tmp_path, **face, output={"path": "out/run.csv", "format": "csv"})
        assert run_cli("run", "--config", str(path), cwd=tmp_path).returncode == 0
        header, rows = read_csv(tmp_path / "out" / "run.csv")
        path, _ = base_config(tmp_path, **face, output={"path": "out/run.json", "format": "json"})
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "out" / "run.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["columns"] == header
        finite = np.isfinite(rows)
        assert np.isposinf(rows).any() and np.isneginf(rows).any()
        assert [[v is None for v in row] for row in doc["rows"]] == (~finite).tolist()
        got = np.array([[np.nan if v is None else v for v in row] for row in doc["rows"]])
        assert got[finite].tolist() == rows[finite].tolist()

    def test_lyapunov_monotone_is_null_without_two_finite_entries(self, tmp_path):
        path, _ = base_config(tmp_path, x0=[0.5, 0.5, 0.0], t_end=0.01, step=0.001)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["lyapunov_monotone"] is None
        path, _ = base_config(tmp_path)  # interior: every entry is finite
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert json.loads(proc.stdout)["lyapunov_monotone"] is True

    def test_zero_landscape_constant_trajectory(self, tmp_path):
        path, _ = base_config(
            tmp_path,
            landscape={"matrix": [[0.0] * 3] * 3, "form": "linear"},
            refs=None,
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(tmp_path / "out" / "run.csv")
        assert np.all(rows[:, 1:4] == np.array([0.5, 0.3, 0.2]))

    def test_config_error_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path, x0=[0.5, 0.6])
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("patch", BAD_MATRICES + COERCED_VALUES)
    def test_invalid_config_exit_2(self, tmp_path, patch):
        path, _ = base_config(tmp_path, **patch)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_seed_is_accepted_and_ignored(self, tmp_path):
        outputs = []
        for seed in (0, 7):
            path, _ = base_config(tmp_path, seed=seed)
            proc = run_cli("run", "--config", str(path), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / "out" / "run.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert "seed" not in {field.name for field in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_output_exit_2(self, tmp_path, command):
        (tmp_path / "afile").write_text("a regular file, not a directory\n")
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1, refs=None,
            output={"path": "afile/run.csv", "format": "csv"},
        )
        args = ["--param", "q", "--values", "0.9,1.1"] if command == "sweep" else []
        proc = run_cli(command, "--config", str(path), *args, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error: cannot write output" in proc.stderr

    # files the JSON parser cannot read: text that is not UTF-8, and lists nested
    # deeper than its recursion limit
    UNREADABLE = {None: b"\xff\xfe{}", "deep": b"[" * 10_000 + b"]" * 10_000}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("patch", [None] + OVERSIZED_INTEGERS + ["deep"])
    def test_unreadable_numbers_and_text_exit_2(self, tmp_path, command, patch, capsys):
        text = not isinstance(patch, dict)
        path, _ = base_config(tmp_path, **{"escort": {"family": "power", "q": 1.5}, **({} if text else patch)})
        if text:
            path.write_bytes(self.UNREADABLE[patch])
        args = ["--param", "q", "--values", "1,2"] if command == "sweep" else []
        assert main([command, "--config", str(path), *args]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_overflowing_sum_is_one_config_error_line(self, tmp_path, command, capsys):
        # the sum of x0 overflows: a config error, with no numpy warning before it
        path, _ = base_config(tmp_path, escort={"family": "power", "q": 1.5}, x0=[1.2e-7, 1e308, 1e308])
        args = ["--param", "q", "--values", "1,2"] if command == "sweep" else []
        assert main([command, "--config", str(path), *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_identity_has_no_parameter_to_sweep(self, tmp_path, capsys):
        path, _ = base_config(tmp_path, t_end=0.1, refs=None)
        assert main(["sweep", "--config", str(path), "--param", "q", "--values", "1,2"]) == 2
        assert "identity escort has no parameter 'q'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_2(self, tmp_path):
        proc = run_cli("run", "--config", "missing.json", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_domain_error_at_start_exit_3(self, tmp_path):
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": -1.0}, x0=[0.5, 0.5, 0.0], refs=None
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize(
        "q, x0, refs, message",
        [
            # L_phi(1/3) ~ 3^930 / (930 * 931) overflows to inf, so the Lyapunov
            # column at t = 0 is inf - inf: the diagnostic fails, not the dynamic
            (932, [0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3], "escort divergence undefined"),
            (-1.0, [0.5, 0.5, 0.0], None, "u**q undefined at u = 0"),
        ],
    )
    def test_domain_error_is_one_line_with_its_cause(self, tmp_path, monkeypatch, capsys, q, x0, refs, message):
        monkeypatch.chdir(tmp_path)
        path, _ = base_config(tmp_path, escort={"family": "power", "q": q}, x0=x0, refs=refs, t_end=0.1)
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("domain error:") and message in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "escort, landscape, stop",
        [
            # the first step's stages go below zero, where u**-35 is undefined
            ({"family": "power", "q": -35.0}, {"builtin": "rsp"},
             {"time": 0.0, "index": 1, "reason": "negative entry -499684404739168.8"}),
            # the first stage leaves float range: exp overflows, then the fitness
            ({"family": "exponential"}, {"matrix": [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]},
             {"time": 0.0, "index": None, "reason": "landscape returned non-finite fitness"}),
        ],
    )
    def test_a_stopped_run_says_why_and_prints_no_warning(
        self, tmp_path, monkeypatch, capsys, escort, landscape, stop
    ):
        monkeypatch.chdir(tmp_path)
        path, _ = base_config(tmp_path, escort=escort, landscape=landscape, refs=None)
        assert main(["run", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        summary = json.loads(out)
        assert summary["status"] == "boundary_exit"
        assert summary["stop"] == stop

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_non_finite_escort_parameter_exit_2(self, tmp_path, q):
        path, _ = base_config(tmp_path, escort={"family": "power", "q": q}, t_end=0.1)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr

    def test_fractional_observe_every_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path, observe_every=1.7, t_end=0.1)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "observe_every" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_step_not_dividing_horizon_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path, t_end=1.0, step=0.3)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr and "divide" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_overflowing_horizon_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path, t_end=1e308, step=0.001)
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr and "too many steps" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_csv_of_several_writer_blocks_is_bit_exact(self, tmp_path):
        from escortdyn import Power, barycenter, integrate
        from escortdyn.dynamics import BLOCK_ROWS
        from escortdyn.landscapes import FitnessLandscape, rsp_matrix

        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 2.0},
            landscape={"matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], "form": "escort"},
            t_end=1.5,
            observe_every=1,
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(tmp_path / "out" / "run.csv")
        tr = integrate(
            Power(2.0),
            FitnessLandscape.matrix_escort(rsp_matrix(), Power(2.0)),
            [0.5, 0.3, 0.2],
            1.5,
            1e-3,
            observe_every=1,
            ref=barycenter(3),
        )
        assert len(rows) == len(tr) == 1501 > 2 * BLOCK_ROWS
        np.testing.assert_array_equal(rows[:, 0], tr.times)
        np.testing.assert_array_equal(rows[:, 1:4], tr.states)
        np.testing.assert_array_equal(rows[:, 4], tr.mean_fitness)
        np.testing.assert_array_equal(rows[:, 5], tr.lyapunov)
        np.testing.assert_array_equal(rows[:, 6], tr.integral_of_motion)

    def test_json_of_several_writer_blocks_is_one_json_dump(self, tmp_path):
        from escortdyn import Identity, barycenter, integrate
        from escortdyn.cli import write_trajectory
        from escortdyn.dynamics import BLOCK_ROWS
        from escortdyn.landscapes import builtin_landscape

        m = 2 * BLOCK_ROWS + 17
        tr = integrate(Identity(), builtin_landscape("rsp"), [0.5, 0.3, 0.2], (m - 1) * 1e-2, 1e-2,
                       ref=barycenter(3))
        assert len(tr) == m
        # values whose JSON spelling a hand-written encoder gets wrong, on block edges too
        tr.states[3, 0] = -0.0
        tr.mean_fitness[7] = np.nan
        tr.mean_fitness[BLOCK_ROWS] = 1e-300
        tr.lyapunov[BLOCK_ROWS - 1] = np.inf
        tr.integral_of_motion[m - 1] = -np.inf
        path = tmp_path / "run.json"
        write_trajectory(tr, str(path), "json")
        cols = [tr.times, *tr.states.T, tr.mean_fitness, tr.lyapunov, tr.integral_of_motion]
        rows = [[v if math.isfinite(v) else None for v in row] for row in np.column_stack(cols).tolist()]
        doc = {
            "columns": ["t", "x_1", "x_2", "x_3", "escort_mean_fitness", "lyapunov", "integral"],
            "rows": rows,
            "termination": "completed",
        }
        assert path.read_text() == json.dumps(doc, indent=1, allow_nan=False) + "\n"

    def test_escort_form_matrix_landscape_conserves(self, tmp_path):
        # f(x) = A phi(x) with the run escort: same conservation as the builtin
        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 2.0},
            landscape={"matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], "form": "escort"},
            t_end=5.0,
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["drift_integral"] <= 1e-9

    def test_escort_log_form_matrix_landscape(self, tmp_path):
        # f(x) = A log_phi(x) with the run escort
        from escortdyn import FitnessLandscape, Power, barycenter, integrate

        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 2.0}, landscape={"matrix": A3, "form": "escort_log"}
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        phi = Power(2.0)
        f = FitnessLandscape.matrix_escort_log(A3, phi)
        traj = integrate(phi, f, [0.5, 0.3, 0.2], 1.0, 0.001, observe_every=10, ref=barycenter(3))
        cli.write_trajectory(traj, str(tmp_path / "expected.csv"), "csv")
        assert (tmp_path / "out" / "run.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("message, edit", CONFIG_ERRORS, ids=[m for m, _ in CONFIG_ERRORS])
    def test_config_error_is_one_line(self, tmp_path, monkeypatch, capsys, message, edit):
        path, cfg = base_config(tmp_path)
        path.write_text(json.dumps(edit(cfg)))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}"), err
        assert not (tmp_path / "out").exists()

    def test_boundary_exit_exit_4_with_partial_file(self, tmp_path):
        path, _ = base_config(
            tmp_path,
            escort={"family": "exponential"},
            landscape={"matrix": [[-9, 0, 0], [0, 9, 0], [0, 0, 0]], "form": "linear"},
            x0=[0.05, 0.45, 0.5],
            t_end=10.0,
            refs=None,
        )
        proc = run_cli("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["status"] == "boundary_exit"
        header, rows = read_csv(tmp_path / "out" / "run.csv")
        assert len(rows) >= 1
        assert rows[-1, 0] < 10.0


class CheckedFormatter(cli._Formatter):
    """A ``_Formatter`` that records whether its child's text was written."""

    used = None

    def write_rows(self, fh, rows):
        self.used = super().write_rows(fh, rows)
        return self.used


# a linear game from which the exponential escort leaves the simplex at t = 0.752
EXPONENTIAL_EXIT = {
    "escort": {"family": "exponential"},
    "landscape": {"matrix": [[-0.3, 0, 0], [0, 0.3, 0], [0, 0, 0]], "form": "linear"},
    "x0": [0.05, 0.45, 0.5],
    "t_end": 10.0,
}


class TestForkedFormatter:
    """``run`` formats its rows in a forked child while the run marches when
    ``os.fork`` exists, two CPUs are usable and the run can record more than one
    block of samples. The exit code, the output, the messages and the file are
    those of formatting in process, and what a failed child did not give is
    formatted in process."""

    def run(self, work, monkeypatch, capsys, cpus, config, before=None):
        """(exit code, stdout, stderr, file bytes or None) of ``run`` of ``config``
        through ``main`` in the new directory ``work`` with ``cpus`` usable CPUs,
        and the formatters it made."""
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        made = []
        monkeypatch.setattr(cli, "_Formatter", lambda run, fmt: made.append(CheckedFormatter(run, fmt)) or made[-1])
        path, cfg = base_config(work, **config)
        if before is not None:
            before(work)
        code = main(["run", "--config", str(path)])
        out, err = capsys.readouterr()
        output = work / cfg["output"]["path"]
        return (code, out, err, output.read_bytes() if output.is_file() else None), made

    def same_as_in_process(self, tmp_path, monkeypatch, capsys, config, before=None):
        """The result of ``run`` with two CPUs, asserted equal to that with one,
        which makes no formatter, and the formatters made with two."""
        here, none = self.run(tmp_path / "one", monkeypatch, capsys, 1, config, before)
        aside, made = self.run(tmp_path / "two", monkeypatch, capsys, 2, config, before)
        assert none == []
        assert aside == here
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)
        return aside, made

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("samples", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
    def test_blocks_are_the_bytes_formatted_in_process(self, tmp_path, monkeypatch, capsys, fmt, samples):
        config = {"t_end": (samples - 1) * 1e-3, "observe_every": 1, "output": {"path": f"out/run.{fmt}", "format": fmt}}
        (code, _, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config)
        assert (code, err) == (0, "")
        assert len(made) == 1 and made[0].used
        if fmt == "csv":
            assert data.count(b"\n") == samples + 1
        else:
            assert len(json.loads(data)["rows"]) == samples

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("samples", [2, BLOCK_ROWS])
    def test_one_block_through_the_formatter(self, tmp_path, fmt, samples):
        # run forks no formatter for one block; called directly, it gives the same bytes
        from escortdyn import Identity
        from escortdyn.cli import write_trajectory

        run = dynamics.Run(Identity(), "rsp", (0.5, 0.3, 0.2), (samples - 1) * 1e-3, ref=(1 / 3, 1 / 3, 1 / 3))
        formatter = CheckedFormatter(run, fmt)
        try:
            tr = run.integrate(sink=formatter.send)
            write_trajectory(tr, str(tmp_path / "aside"), fmt, formatter)
        finally:
            formatter.close()
        write_trajectory(run.integrate(), str(tmp_path / "here"), fmt)
        assert len(tr) == samples and formatter.used
        assert (tmp_path / "aside").read_bytes() == (tmp_path / "here").read_bytes()

    def test_boundary_exit_in_a_block(self, tmp_path, monkeypatch, capsys):
        config = {**EXPONENTIAL_EXIT, "observe_every": 1}
        (code, out, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config)
        assert (code, err) == (4, "")
        assert json.loads(out)["stop"]["time"] == 0.752  # the step that left: the file ends before it
        assert data.count(b"\n") == 752 + 1 and float(data.splitlines()[-1].split(b",")[0]) < 0.752
        assert made[0].used

    def test_fixed_point_fill(self, tmp_path, monkeypatch, capsys):
        # c08: the field is 0 at the barycenter, so one step fills in 10,001 samples
        config = {"escort": {"family": "exponential"}, "landscape": {"builtin": "exp_decay"},
                  "x0": [1 / 3, 1 / 3, 1 / 3], "t_end": 10.0, "observe_every": 1, "refs": None}
        (code, _, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config)
        assert (code, err) == (0, "")
        assert data.count(b"\n") == 10_001 + 1
        assert made[0].used

    @pytest.mark.parametrize("fails", ["pipe", "fork"])
    def test_no_second_process_formats_in_process(self, tmp_path, monkeypatch, capsys, fails):
        def exhausted(*args, **kwargs):
            raise OSError("no more descriptors or processes")

        monkeypatch.setattr(*((os, "pipe") if fails == "pipe" else (dynamics, "_Child")), exhausted)
        descriptors = set(os.listdir("/proc/self/fd"))
        (code, _, err, _), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, {"observe_every": 1})
        assert (code, err, made) == (0, "", [])
        assert set(os.listdir("/proc/self/fd")) == descriptors

    def test_a_child_that_dies_is_made_up_for(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_format_samples", lambda *args: os._exit(9))
        (code, _, err, _), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, {"observe_every": 1})
        assert (code, err) == (0, "")
        assert made[0].used is False

    def test_a_child_that_fails_after_a_block_is_made_up_for(self, tmp_path, monkeypatch, capsys):
        # the child writes the first block's text to its file, then exits 1: none of it is copied
        parent, format_rows = os.getpid(), cli._format_rows

        def fail_after_a_block(block, as_csv, start):
            if os.getpid() != parent and start:
                raise RuntimeError("a failure in the child")
            return format_rows(block, as_csv, start)

        monkeypatch.setattr(cli, "_format_rows", fail_after_a_block)
        (code, _, err, _), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, {"observe_every": 1})
        assert (code, err) == (0, "")
        assert made[0].used is False

    def test_the_child_writes_each_block_as_it_comes(self):
        # the text of a block reaches the file while the input is still open: no process holds the whole run
        from escortdyn import Identity

        run = dynamics.Run(Identity(), "rsp", (0.5, 0.3, 0.2), 3 * BLOCK_ROWS * 1e-3, ref=(1 / 3, 1 / 3, 1 / 3))
        tr = run.integrate()
        formatter = cli._Formatter(run, "csv")
        try:
            columns = (tr.times, tr.states, tr.mean_fitness, tr.lyapunov, tr.integral_of_motion)
            formatter.send(*(c[:BLOCK_ROWS] for c in columns))
            deadline = time.monotonic() + 60
            while os.fstat(formatter.text.fileno()).st_size == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            formatter.close()

    def test_unwritable_output_exit_2(self, tmp_path, monkeypatch, capsys):
        def block(work):
            (work / "afile").write_text("a regular file, not a directory\n")

        config = {"observe_every": 1, "output": {"path": "afile/run.csv", "format": "csv"}}
        (code, out, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config, block)
        assert (code, out, data) == (2, "", None)
        assert err.startswith("config error: cannot write output 'afile/run.csv': ") and len(err.splitlines()) == 1
        assert len(made) == 1

    @pytest.mark.parametrize("existing", [None, b"left as it was\n"])
    def test_domain_error_at_start_exit_3(self, tmp_path, monkeypatch, capsys, existing):
        def write(work):
            if existing is not None:
                (work / "out").mkdir()
                (work / "out" / "run.csv").write_bytes(existing)

        config = {"escort": {"family": "power", "q": -1.0}, "x0": [0.5, 0.5, 0.0], "refs": None, "observe_every": 1}
        (code, out, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config, write)
        assert (code, out, data) == (3, "", existing)
        assert err.startswith("domain error: ") and len(err.splitlines()) == 1
        assert len(made) == 1

    def test_an_interrupted_run_reaps_its_child(self, tmp_path, monkeypatch):
        class Interrupted(cli._Formatter):
            def send(self, *columns):
                raise KeyboardInterrupt

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_Formatter", Interrupted)
        path, _ = base_config(tmp_path, observe_every=1)
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--config", str(path), cwd=tmp_path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / "out").exists()

    def test_unallocatable_samples_exit_2(self, tmp_path, monkeypatch, capsys):
        # 10**15 + 1 samples: their arrays cannot be allocated, so the run stops before its first step
        config = {"t_end": 1e12, "step": 0.001, "observe_every": 1}
        (code, out, err, data), made = self.same_as_in_process(tmp_path, monkeypatch, capsys, config)
        assert (code, out, data) == (2, "", None) and len(made) == 1
        assert re.fullmatch(r"config error: the run's 1000000000000001 samples need 40000000000000040 bytes, "
                            r".*: raise observe_every\n", err), err
        assert not (tmp_path / "two" / "out").exists()

    def test_a_block_is_sent_as_its_bytes(self, monkeypatch):
        # the block's own buffer is written, a few bytes at a time when the pipe takes no more
        block = np.arange(60.0).reshape(12, 5)
        written = []
        monkeypatch.setattr(os, "write", lambda fd, data: written.append(bytes(data[:7])) or len(written[-1]))
        cli._write_all(99, block)
        assert b"".join(written) == block.tobytes() and len(written) == -(-block.nbytes // 7)

    def test_sweep_formats_in_process(self, tmp_path, monkeypatch):
        def no_formatter(run, fmt):
            raise AssertionError("sweep forked a formatter")

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_Formatter", no_formatter)
        path, _ = base_config(tmp_path, escort={"family": "power", "q": 2.0}, observe_every=1)
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "1.5", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_when_run_forks(self, monkeypatch):
        from escortdyn import Identity

        def forks(steps, every):
            return cli._forks_formatter(dynamics.Run(Identity(), "rsp", (0.5, 0.3, 0.2), steps * 1e-3, observe_every=every))

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        # samples: t = 0, every ``every``-th step, and the last step
        assert not forks(BLOCK_ROWS - 1, 1) and forks(BLOCK_ROWS, 1)
        assert not forks(2 * BLOCK_ROWS - 2, 2) and forks(2 * BLOCK_ROWS - 1, 2)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
        assert not forks(BLOCK_ROWS, 1)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert not forks(BLOCK_ROWS, 1)


class TestSweepCommand:
    def test_q_sweep_deviations_shrink_toward_one(self, tmp_path):
        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 1.0},
            t_end=2.0,
            refs=None,
            output={"path": "out/q.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q",
                       "--values", "0.9,0.99,1.01,1.1", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        agg = json.loads(proc.stdout)
        devs = {r["value"]: r["sup_deviation_from_identity"] for r in agg["runs"]}
        assert devs[0.99] < devs[0.9]
        assert devs[1.01] < devs[1.1]
        assert agg["ok"] is True
        for r in agg["runs"]:
            assert (tmp_path / r["output"]).exists()

    def test_beta_sweep_time_change(self, tmp_path):
        path, _ = base_config(
            tmp_path,
            escort={"family": "scaled", "beta": 1.0},
            landscape={"builtin": "neg_identity"},
            t_end=4.0,
            refs=None,
            output={"path": "out/b.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "beta", "--values", "1,2", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        _, slow = read_csv(tmp_path / "out" / "b_beta1.csv")
        _, fast = read_csv(tmp_path / "out" / "b_beta2.csv")
        # beta = 2 at time t matches beta = 1 at time 2t
        half = (len(slow) - 1) // 2 + 1
        dev = np.max(np.abs(fast[:half, 1:4] - slow[::2][:half, 1:4]))
        assert dev <= 1e-6

    def test_identity_reference_undefined_at_the_start(self, tmp_path):
        # on a face, log_phi(0) = -inf makes A log_phi(x) undefined for the reference and every value
        rsp = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
        with pytest.raises(DomainError):
            dynamics.Run(Identity(), ("escort_log", rsp), (0.5, 0.5, 0.0), 0.1).integrate()
        path, _ = base_config(tmp_path, escort={"family": "power", "q": 2.0},
                              landscape={"matrix": rsp, "form": "escort_log"}, x0=[0.5, 0.5, 0.0], t_end=0.1)
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "0.5,2,3", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (3, "")
        runs = json.loads(proc.stdout)["runs"]
        assert [(r["status"], r["sup_deviation_from_identity"]) for r in runs] == [("domain_error", None)] * 3

    def test_failing_run_makes_aggregate_nonzero(self, tmp_path):
        # f(x) = (-9, 9, 0) on the simplex; q = 0 gives pure drift into the
        # boundary while q = 1 (replicator) stays inside
        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 1.0},
            landscape={"matrix": [[-9, -9, -9], [9, 9, 9], [0, 0, 0]], "form": "linear"},
            t_end=2.0,
            refs=None,
            output={"path": "out/f.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "0,1", cwd=tmp_path)
        assert proc.returncode != 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        agg = json.loads(proc.stdout)
        assert agg["ok"] is False
        by_value = {r["value"]: r for r in agg["runs"]}
        assert by_value[0.0]["status"] == "boundary_exit"
        assert by_value[0.0]["exit_code"] == 4
        assert by_value[1.0]["status"] == "completed"

    def test_close_values_get_distinct_files(self, tmp_path):
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1, refs=None,
            output={"path": "out/o.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q",
                       "--values", "1.0000001,1.0000002,2", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs = [r["output"] for r in json.loads(proc.stdout)["runs"]]
        assert outputs == ["out/o_q1.0000001.csv", "out/o_q1.0000002.csv", "out/o_q2.csv"]
        for out in outputs:
            assert (tmp_path / out).exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_path_without_extension_takes_the_format(self, tmp_path, fmt, monkeypatch, capsys):
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1, refs=None,
            output={"path": "out/run", "format": fmt},
        )
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(path), "--param", "q", "--values", "1.5"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [r["output"] for r in runs] == [f"out/run_q1.5.{fmt}"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == [f"run_q1.5.{fmt}"]
        if fmt == "json":
            assert json.loads((tmp_path / "out" / "run_q1.5.json").read_text())["termination"] == "completed"

    def test_duplicate_values_exit_2(self, tmp_path):
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1, refs=None,
            output={"path": "out/d.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "1,1.0", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr and "distinct" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_empty_values_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path, escort={"family": "power", "q": 1.0})
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("values", ["nan,1.1", "1.1,inf", "abc"])
    def test_bad_value_exit_2_before_any_run(self, tmp_path, values):
        path, _ = base_config(
            tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1, refs=None,
            output={"path": "out/v.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", values, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_family_mismatch_exit_2(self, tmp_path):
        path, _ = base_config(tmp_path)  # identity escort
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "1,2", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error:" in proc.stderr, proc.stderr

    @pytest.mark.parametrize("param", ["family", "c"])
    def test_param_outside_the_family_exit_2(self, tmp_path, param):
        path, _ = base_config(tmp_path, escort={"family": "power", "q": 1.0}, t_end=0.1)
        proc = run_cli("sweep", "--config", str(path), "--param", param, "--values", "1,2",
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "config error:" in proc.stderr, proc.stderr
        assert not (tmp_path / "out").exists()

    def test_constant_c_sweep(self, tmp_path):
        from escortdyn import Constant, integrate
        from escortdyn.cli import write_trajectory
        from escortdyn.landscapes import builtin_landscape

        path, _ = base_config(
            tmp_path, escort={"family": "constant"}, t_end=0.5,
            output={"path": "out/k.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "c", "--values", "1,2", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["k_c1.csv", "k_c2.csv"]
        for c in (1.0, 2.0):
            tr = integrate(Constant(c), builtin_landscape("rsp"), [0.5, 0.3, 0.2], 0.5, 1e-3,
                           observe_every=10, ref=np.array([1 / 3, 1 / 3, 1 / 3]))
            write_trajectory(tr, str(tmp_path / "expected.csv"), "csv")
            got = (tmp_path / "out" / f"k_c{c:g}.csv").read_bytes()
            assert got == (tmp_path / "expected.csv").read_bytes()

    def test_sweep_in_minimal_environment(self, tmp_path):
        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 1.0},
            t_end=0.5,
            refs=None,
            output={"path": "out/t.csv", "format": "csv"},
        )
        minimal = {"PATH": "/usr/bin:/bin"}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:  # the caller's bytecode policy holds
            minimal["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        cache = SRC / "escortdyn" / "__pycache__"

        def bytecode_files():
            return {p.name: p.stat().st_mtime_ns for p in cache.glob("*.pyc")}

        before = bytecode_files()
        proc = subprocess.run(
            [sys.executable, "-m", "escortdyn.cli", "sweep", "--config", str(path),
             "--param", "q", "--values", "0.9,1.1"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=cli_env(minimal),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True
        if minimal.get("PYTHONDONTWRITEBYTECODE"):
            assert bytecode_files() == before


    def test_deviation_is_from_an_identity_run(self, tmp_path):
        from escortdyn import Identity, Power, integrate
        from escortdyn.landscapes import FitnessLandscape, rsp_matrix

        x0 = [0.5, 0.3, 0.2]
        path, _ = base_config(
            tmp_path,
            escort={"family": "power", "q": 2.0},
            landscape={"matrix": rsp_matrix().tolist(), "form": "escort"},
            t_end=0.5,
            output={"path": "out/r.csv", "format": "csv"},
        )
        proc = run_cli("sweep", "--config", str(path), "--param", "q", "--values", "1.5,2.5", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        # the reference: the identity escort, in the landscape's escort form too
        ref = integrate(Identity(), FitnessLandscape.matrix_escort(rsp_matrix(), Identity()),
                        x0, 0.5, 1e-3, observe_every=10)
        for run in json.loads(proc.stdout)["runs"]:
            q = run["value"]
            tr = integrate(Power(q), FitnessLandscape.matrix_escort(rsp_matrix(), Power(q)),
                           x0, 0.5, 1e-3, observe_every=10)
            assert run["sup_deviation_from_identity"] == float(np.max(np.abs(tr.states - ref.states)))
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["r_q1.5.csv", "r_q2.5.csv"]


class TestSweepPlan:
    """A sweep shares its values among the plan's processes (``dynamics.run_all``),
    run here in process through ``main``: the split changes no byte of the
    output, and a value whose child fails is done again in this process."""

    # q = -35 leaves the domain in its first step, so one value exits 3
    VALUES = "0.5,1.5,-1,-35,2.5"

    def sweep(self, tmp_path, capsys, monkeypatch, cpus, values=VALUES, before=None):
        """Exit code, stdout, stderr and {path: bytes} of the files under ``out``
        of a sweep run by ``main`` in a fresh directory with ``cpus`` usable CPUs."""
        from escortdyn import dynamics
        from escortdyn.landscapes import rsp_matrix

        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        path, _ = base_config(
            work, escort={"family": "power", "q": 2.0},
            landscape={"matrix": rsp_matrix().tolist(), "form": "escort"}, t_end=0.5,
            output={"path": "out/s.csv", "format": "csv"},
        )
        if before is not None:
            before(work)
        code = main(["sweep", "--config", str(path), "--param", "q", "--values", values])
        out, err = capsys.readouterr()
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.glob("out/*")) if p.is_file()}
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)
        return code, out, err, files

    def test_usable_cpus_change_no_byte(self, tmp_path, capsys, monkeypatch):
        serial = self.sweep(tmp_path, capsys, monkeypatch, 1)
        assert serial[0] == 3 and serial[2] == ""
        assert len(json.loads(serial[1])["runs"]) == len(serial[3]) == 5
        for cpus in (2, 3):
            assert self.sweep(tmp_path, capsys, monkeypatch, cpus) == serial

    @pytest.mark.parametrize("action", ["raise", "die"])
    def test_a_failing_child_is_redone_here(self, tmp_path, capsys, monkeypatch, action):
        from escortdyn import cli

        serial = self.sweep(tmp_path, capsys, monkeypatch, 1)
        parent, execute = os.getpid(), cli._execute

        def execute_here_only(config):
            if os.getpid() != parent:
                if action == "raise":
                    raise RuntimeError("only in the child")
                os._exit(9)
            return execute(config)

        monkeypatch.setattr(cli, "_execute", execute_here_only)
        assert self.sweep(tmp_path, capsys, monkeypatch, 2) == serial

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_unwritable_output_names_the_first_value(self, tmp_path, capsys, monkeypatch, cpus):
        # with 2 CPUs this process does 0.5 and 2.5 and the child 1.5 and 3.5;
        # a serial sweep stops at 1.5, the first value that cannot be written
        def block(work):
            for name in ("s_q1.5.csv", "s_q2.5.csv"):
                (work / "out" / name).mkdir(parents=True)

        code, out, err, _ = self.sweep(tmp_path, capsys, monkeypatch, cpus, "0.5,1.5,2.5,3.5", block)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1, err
        assert err.startswith("config error: cannot write output 'out/s_q1.5.csv': "), err


class TestPaperSuiteCommand:
    def test_registry_covers_all_criteria(self):
        assert len(suite.CRITERIA) >= 10
        assert len(suite.CRITERIA) == len(suite.CRITERIA_BY_NAME)

    def test_subset_passes(self, tmp_path):
        proc = run_cli(
            "paper-suite",
            "--only",
            "nash_rest_points,orthogonal_projection_field,gauge_invariance,discrete_map_forms",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("PASS") == 4
        assert "FAIL" not in proc.stdout

    def test_corrupted_tolerance_fails(self, monkeypatch, capsys):
        name = "gauge_invariance"
        corrupted = dataclasses.replace(suite.CRITERIA_BY_NAME[name], tolerance=0.0)
        monkeypatch.setitem(suite.CRITERIA_BY_NAME, name, corrupted)
        assert main(["paper-suite", "--only", name]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_criterion_exit_2(self, tmp_path):
        proc = run_cli("paper-suite", "--only", "nope", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_only_naming_no_criterion_exit_2(self, tmp_path):
        proc = run_cli("paper-suite", "--only", " , ", cwd=tmp_path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "config error:" in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_repeated_criterion_exit_2(self, tmp_path):
        proc = run_cli("paper-suite", "--only", "nash_rest_points,nash_rest_points", cwd=tmp_path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "config error:" in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stdout == ""

    def test_report_once_then_the_plan(self, tmp_path):
        # these criteria plan 5 runs, which are spread over the usable CPUs
        proc = run_cli(
            "paper-suite", "--only", "exponential_escort_rest_point,formal_solution_agreement",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert sum("criteria passed" in line for line in lines) == 1
        assert lines[-2] == "2/2 criteria passed"
        assert re.fullmatch(r"plan: 5 runs, 30000 RK4 steps, \d+ processes, \d+\.\d\d s integrating",
                            lines[-1]), lines[-1]

    def test_main_entry_returns_int(self, tmp_path):
        code = main(["paper-suite", "--only", "discrete_map_forms"])
        assert code == 0
