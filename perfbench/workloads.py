"""The four benchmark workloads: seeded inputs, one unit of work, and its checks.

A unit is what a user runs once: one ``escortdyn run``, one ``escortdyn
sweep``, one ``escortdyn paper-suite`` or one library script. Untraced,
each unit is a fresh child process (``argv``); traced, the same unit runs
in-process (``run_inprocess``). ``check`` returns (attempted, failed) for
the unit's operations; it runs outside the timed region.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

STEP = 1e-3
DRIFT_BOUND = 1e-9  # relative drift of sum_i x*_i log_phi(x_i), conserved in these games
RSP = [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
BARYCENTER_3 = [1.0 / 3.0] * 3

# The criteria the paper_suite workload runs. The other seven spend 56 s of
# the 58 s suite on long trajectories, which do not fit in one benchmark run.
SUITE_SUBSET = (
    "nash_rest_points",
    "orthogonal_projection_field",
    "exponential_escort_rest_point",
    "gauge_invariance",
    "formal_solution_agreement",
    "roundtrips_and_cross_checks",
    "discrete_map_forms",
)
# RK4 steps those criteria take at step 1e-3: horizon 10 (exponential rest
# point) and 4 x 5 (formal solution: two direct and two formal runs).
SUITE_STEPS = 30_000


def interior_point(rng, n):
    v = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(v)
    return [a / total for a in v]


def stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal slices of [lo, hi], shuffled,
    so that every seed spreads its arguments (and their cost) over the range."""
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def rel_drift(series):
    return max(abs(v - series[0]) for v in series) / abs(series[0])


def _close(got, want, tol):
    return got is not None and abs(got - want) <= tol * max(1.0, abs(want))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class Workload:
    """Base class; subclasses set ``name``, ``steps_per_unit`` and ``operations``."""

    name = ""
    steps_per_unit = 0
    operations = 1  # operations one unit attempts

    def __init__(self, tmp):
        self.tmp = tmp
        self.input_path = os.path.join(tmp, "input.json")

    def write_input(self, doc):
        with open(self.input_path, "w") as fh:
            json.dump(doc, fh)

    def argv(self):
        """The child command of one untraced unit."""
        raise NotImplementedError

    def run_inprocess(self, tracer=None):
        """Run one unit in this process; returns what ``check`` reads."""
        raise NotImplementedError

    def check(self, result):
        """(attempted, failed); output that cannot be read fails every operation."""
        try:
            return self.operations, self._failures(result)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            return self.operations, self.operations

    def _failures(self, result):
        raise NotImplementedError


class _CliWorkload(Workload):
    """A workload driven through the ``escortdyn`` command line."""

    def cli_args(self):
        raise NotImplementedError

    def argv(self):
        return [sys.executable, "-m", "escortdyn.cli", *self.cli_args()]

    def run_inprocess(self, tracer=None):
        from escortdyn import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.cli_args())
        return {"code": code, "stdout": buf.getvalue()}


class RunDiag(_CliWorkload):
    """One ``escortdyn run``, n = 30, a sample recorded every step."""

    name = "run_diag"
    n = 30
    t_end = 4.0
    steps_per_unit = 4000

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        n = self.n
        c = [0.0] * n  # first row of a circulant antisymmetric matrix
        for k in range(1, (n + 1) // 2):
            c[k] = round(rng.uniform(-1.0, 1.0), 6)
            c[n - k] = -c[k]
        self.out_path = os.path.join(tmp, "run_diag.csv")
        self.write_input({
            "escort": {"family": "power", "q": round(rng.uniform(1.5, 2.5), 4)},
            "landscape": {"matrix": [[c[(j - i) % n] for j in range(n)] for i in range(n)], "form": "escort"},
            "x0": interior_point(rng, n),
            "t_end": self.t_end,
            "step": STEP,
            "observe_every": 1,
            "refs": [1.0 / n] * n,
            "output": {"path": self.out_path, "format": "csv"},
        })

    def cli_args(self):
        return ["run", "--config", self.input_path]

    def _failures(self, result):
        if result["code"] != 0:
            return 1
        summary = _last_json(result["stdout"])
        with open(self.out_path) as fh:
            rows = list(csv.reader(fh))
        os.remove(self.out_path)
        ok = (
            summary["status"] == "completed"
            and abs(summary["t_final"] - self.t_end) <= 1e-9 * self.t_end
            and summary["drift_integral"] <= DRIFT_BOUND
            and len(rows) == self.steps_per_unit + 2  # header, t = 0 and every step
            and [float(v) for v in rows[-1][1 : 1 + self.n]] == summary["x_final"]
        )
        return int(not ok)


class SweepQ(_CliWorkload):
    """One ``escortdyn sweep --param q`` over 16 seeded values, n = 3 RSP."""

    name = "sweep_q"
    operations = 16
    t_end = 1.0
    steps_per_unit = (16 + 1) * 1000  # the values plus the identity reference

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        grid = rng.sample(range(1001), self.operations)  # distinct q on a 0.0025 grid
        self.qs = [round(0.5 + 0.0025 * k, 4) for k in grid]
        self.write_input({
            "escort": {"family": "power", "q": 2.0},
            "landscape": {"matrix": RSP, "form": "escort"},
            "x0": interior_point(rng, 3),
            "t_end": self.t_end,
            "step": STEP,
            "observe_every": 100,
            "refs": BARYCENTER_3,
            "output": {"path": os.path.join(tmp, "sweep.csv"), "format": "csv"},
        })

    def cli_args(self):
        return ["sweep", "--config", self.input_path, "--param", "q",
                "--values", ",".join(repr(q) for q in self.qs)]

    def _failures(self, result):
        runs = {r["value"]: r for r in _last_json(result["stdout"])["runs"]}
        failed = 0
        for q in self.qs:
            run = runs.get(q)
            ok = run is not None and run["exit_code"] == 0
            if ok:
                with open(run["output"]) as fh:
                    rows = list(csv.DictReader(fh))
                os.remove(run["output"])
                ok = (
                    len(rows) == 11
                    and abs(float(rows[-1]["t"]) - self.t_end) <= 1e-9 * self.t_end
                    and rel_drift([float(r["integral"]) for r in rows]) <= DRIFT_BOUND
                )
            failed += not ok
        return failed


class PaperSuite(_CliWorkload):
    """``escortdyn paper-suite --only`` the criteria of SUITE_SUBSET, cold cache.

    The suite has no inputs; the seed only permutes the criterion order,
    which changes no work (the subset's criteria share no trajectory).
    """

    name = "paper_suite"
    operations = len(SUITE_SUBSET)
    steps_per_unit = SUITE_STEPS

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        self.order = list(SUITE_SUBSET)
        rng.shuffle(self.order)
        self.measured = {}
        self.write_input({})

    def cli_args(self):
        return ["paper-suite", "--only", ",".join(self.order)]

    def run_inprocess(self, tracer=None):
        from escortdyn import suite

        suite.clear_cache()  # a fresh process starts with an empty trajectory cache
        result = super().run_inprocess(tracer)
        result["traj_cache_misses"] = suite._traj.cache_info().misses
        return result

    def _failures(self, result):
        status = {}
        for line in result["stdout"].splitlines():
            m = re.match(r"(\w+)\s+(\S+)\s+\S+\s+(PASS|FAIL)$", line)
            if m:
                status[m.group(1)] = m.group(3)
                self.measured[m.group(1)] = float(m.group(2))
        failed = sum(status.get(name) != "PASS" for name in self.order)
        return max(failed, int(result["code"] != 0))


class CustomQuadrature(Workload):
    """Library calls on Custom(u -> u + u^2): the quadrature and inversion path.

    log_phi(u) = ln(2u / (1 + u)), exp_phi(w) = e^w / (2 - e^w), and
    L(u) = u ln 2 + u ln u - (1 + u) ln(1 + u) is an antiderivative of
    log_phi, which gives the divergence in closed form.
    """

    name = "custom_quadrature"
    calls_per_unit = 150
    divergences = 4
    integrate_steps = 100
    operations = 2 * calls_per_unit + divergences + 1
    steps_per_unit = integrate_steps

    def __init__(self, rng, tmp):
        super().__init__(tmp)
        self.out_path = os.path.join(tmp, "calls.json")
        self.exp_targets = stratified(rng, 0.05, 5.0, self.calls_per_unit)
        self.spec = {
            "log_args": stratified(rng, 0.05, 5.0, self.calls_per_unit),
            "exp_args": [self.closed_log(u) for u in self.exp_targets],
            "divergences": [self.pair(rng) for _ in range(self.divergences)],
            "integrate": {"matrix": RSP, "x0": self.pair(rng, BARYCENTER_3)[1],
                          "t_end": self.integrate_steps * STEP, "step": STEP,
                          "observe_every": 10, "ref": BARYCENTER_3},
        }
        self.write_input(self.spec)

    @staticmethod
    def pair(rng, x=None):
        """Two simplex points a distance 0.1 apart, the first ``x`` or random
        (the quadrature's cost grows with the distance, so it is held fixed)."""
        x = x or interior_point(rng, 3)
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        mean = sum(d) / 3.0
        d = [v - mean for v in d]
        norm = math.sqrt(sum(v * v for v in d))
        return [x, [a + 0.1 * v / norm for a, v in zip(x, d)]]

    @staticmethod
    def closed_log(u):
        return math.log(2.0 * u / (1.0 + u))

    @staticmethod
    def antiderivative(u):
        return u * math.log(2.0) + u * math.log(u) - (1.0 + u) * math.log1p(u)

    def divergence(self, x, y):
        L = self.antiderivative
        return sum(L(a) - L(b) - (a - b) * self.closed_log(b) for a, b in zip(x, y))

    def argv(self):
        return [sys.executable, CHILD, "calls", self.input_path, self.out_path]

    def run_inprocess(self, tracer=None):
        import child

        fn = child.plus_square
        if tracer is not None:
            tracer.counters["custom_fn_evals"] = 0

            def fn(u):
                tracer.counters["custom_fn_evals"] += 1
                return u + u * u

        return {"code": 0, "calls": child.calls(self.spec, fn)}

    def _failures(self, result):
        if "calls" not in result:  # an untraced unit wrote its results to a file
            with open(self.out_path) as fh:
                result["calls"] = json.load(fh)
            os.remove(self.out_path)
        out = result["calls"]
        spec = self.spec
        failed = sum(not _close(got, self.closed_log(u), 1e-9) for u, got in zip(spec["log_args"], out["log"]))
        failed += sum(not _close(got, u, 1e-8) for u, got in zip(self.exp_targets, out["exp"]))
        for (x, y), got in zip(spec["divergences"], out["div"]):
            failed += not (got is not None and abs(got - self.divergence(x, y)) <= 1e-7)
        run = out["integrate"]
        t_end = spec["integrate"]["t_end"]
        failed += not (
            run["status"] == "completed"
            and abs(run["t_final"] - t_end) <= 1e-9 * t_end
            and run["samples"] == self.integrate_steps // 10 + 1
            and run["drift_integral"] <= DRIFT_BOUND
        )
        return failed


WORKLOADS = {w.name: w for w in (RunDiag, SweepQ, CustomQuadrature, PaperSuite)}
