"""Built-in verification suite: one runnable check per headline property.

Each criterion computes a measured value and compares it against a pinned
tolerance. Composite criteria (several sub-checks with different bounds)
normalize each part by its own bound and report the worst ratio against a
tolerance of 1. Samples are reduced with ``np.max``, which propagates NaN, so
a NaN measurement fails. The suite is deterministic: sampled states use fixed
seeds and the integrator is a fixed-step method.

A criterion declares the trajectories it needs as ``dynamics.Run`` data.
``run_suite`` collects the selected criteria's runs, drops duplicates and
integrates the rest across the CPUs this process may use (``dynamics.run_all``);
each criterion then reads its trajectories from the cache. The plan changes
where a run is integrated, never its result.
"""

import math
import random
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import _rel_drift, fisher_rate
from .dynamics import (
    Run,
    _make_field,
    _rk4_step,
    discrete_step,
    run_all,
    vector_field,
)
from .errors import ConfigError
from .escorts import (
    Constant,
    Custom,
    Escort,
    Exponential,
    Identity,
    Power,
    Scaled,
)
from .geometry import _quadrature_terms, escort_divergence, escort_metric
from .landscapes import FitnessLandscape, builtin_landscape, gauge_shift, rsp_matrix
from .simplex import barycenter, simplex_samples

X0_CYCLE = (0.5, 0.3, 0.2)  # starting state for the cyclic-game runs
X0_GRADIENT = (0.6, 0.3, 0.1)  # starting state for the gradient flows
BARYCENTER_3 = (1 / 3, 1 / 3, 1 / 3)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    description: str
    measured: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Criterion:
    name: str
    description: str
    tolerance: float
    fn: Callable  # fn(tolerance, *trajectories of runs) -> (measured, passed, note)
    runs: tuple = ()  # the Runs whose trajectories fn takes, in order

    def run(self) -> CriterionResult:
        integrate_runs(self.runs)  # none, when a plan cached them
        measured, passed, note = self.fn(self.tolerance, *(_traj.store[run] for run in self.runs))
        return CriterionResult(self.name, self.description, float(measured), self.tolerance,
                               bool(passed), note)


RSP_ESCORT = ("escort", tuple(map(tuple, rsp_matrix().tolist())))  # f = A phi(x), A the RSP matrix


_CacheInfo = namedtuple("CacheInfo", "misses")


class _TrajectoryCache:
    """The suite's trajectories by run, which ``integrate_runs`` adds. ``misses``
    counts the runs integrated, whether here or in a child process of a plan."""

    def __init__(self):
        self.cache_clear()

    def cache_clear(self):
        self.store = {}
        self.misses = 0

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.misses)

    def add(self, runs, trajectories):
        self.store.update(zip(runs, trajectories))
        self.misses += len(runs)


_traj = _TrajectoryCache()


clear_cache = _traj.cache_clear


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def _worst(values) -> float:
    """The largest entry of ``values`` (numbers or arrays); NaN if any entry is NaN."""
    return float(np.max([np.max(v) for v in values]))


def _sup(values) -> float:
    """The largest absolute entry of ``values``; NaN if any entry is NaN."""
    return _worst(np.abs(v) for v in values)


def _composite(tol, parts):
    """The verdict of named ``(value, bound)`` parts: the worst value/bound against ``tol``."""
    measured = _worst(v / b for v, b in parts.values())
    note = "; ".join(f"{k} {v:.2e} (bound {b:.0e})" for k, (v, b) in parts.items())
    return measured, measured <= tol, note


def _c01_rsp_product(tol, tr):
    drift = _rel_drift(np.prod(tr.states, axis=1))
    return drift, drift <= tol, "x1*x2*x3 along the replicator RSP orbit, t in [0, 100]"


def _c02_poincare(tol, tr):
    drift = _rel_drift(np.sum(1.0 / tr.states, axis=1))
    return drift, drift <= tol, "1/x1 + 1/x2 + 1/x3 under the quadratic escort, t in [0, 100]"


def _c03_general_integral(tol, *trajectories):
    worst = _worst(_rel_drift(tr.integral_of_motion) for tr in trajectories)
    return worst, worst <= tol, "sum x*_i log_phi(x_i) for q in {0.5, 3}, t in [0, 100]"


_GRADIENT_RUNS = tuple(
    Run(phi, "neg_identity", X0_GRADIENT, 50.0, ref=BARYCENTER_3)
    for phi in (Identity(), Power(0.5), Power(2), Constant(1.0))
)


def _c04_lyapunov(tol, *trajectories):
    return _composite(tol, {
        "max per-step rise": (_worst(np.diff(tr.lyapunov) for tr in trajectories), 1e-10),
        "final/initial": (_worst(tr.lyapunov[-1] / tr.lyapunov[0] for tr in trajectories), 1e-3),
    })


def _fd_potential_rate(phi, f, x):
    delta = 1e-5
    field = _make_field(phi, f)
    x = np.asarray(x, dtype=float)
    k1 = field(x)
    ahead, behind = _rk4_step(field, x, delta, k1), _rk4_step(field, x, -delta, k1)
    return (f.potential(ahead) - f.potential(behind)) / (2.0 * delta)


def _c05_fisher(tol, *trajectories):
    f = builtin_landscape("neg_identity")
    try:
        f.validate_potential(3)  # the rates compared below are equal only if f = grad V
    except ConfigError as err:
        return math.inf, False, f"neg_identity: {err}"
    errors = []
    for run, tr in zip(_GRADIENT_RUNS, trajectories):
        phi = run.phi
        for i in range(100, 2100, 100):  # 20 samples over t in (0, 2.1]
            x = tr.states[i]
            rate = fisher_rate(phi, f, x)
            if rate < 0.0:
                return rate, False, "negative rate"
            fd = _fd_potential_rate(phi, f, x)
            errors.append(abs(rate - fd) / max(abs(rate), abs(fd)))
    worst = _worst(errors)
    return worst, worst <= tol, "Z_phi Var_phi[f] vs central-difference dV/dt, 20 times x 4 escorts"


def _c06_nash_rest(tol):
    f = builtin_landscape("rsp")
    x = barycenter(3)
    worst = _sup(vector_field(phi, f, x) for phi in (Identity(), Power(2), Exponential(), Constant(1.0)))
    return worst, worst <= tol, "sup |field| at (1/3, 1/3, 1/3) for the RSP game"


def _c07_projection(tol):
    phi = Constant(1.0)
    deviations = []
    for f in (builtin_landscape("rsp"), builtin_landscape("exp_decay")):
        for x in simplex_samples(3, 50, seed=11):
            fx = f(x.coords)
            deviations.append(vector_field(phi, f, x) - (fx - fx.sum() / len(fx)))
    worst = _sup(deviations)
    return worst, worst <= tol, "constant-escort field vs f_i - mean(f) at 100 random states"


def _c08_exponential_rest(tol, tr):
    phi, f = Exponential(), builtin_landscape("exp_decay")
    deviations = []
    for x in simplex_samples(3, 100, seed=23):
        ex = np.exp(x.coords)
        deviations.append(vector_field(phi, f, x) - (1.0 - len(ex) * ex / ex.sum()))
    # a run that stopped early has not stayed
    stay = float(np.max(np.abs(tr.states - 1.0 / 3.0))) if tr.termination.ok else math.inf
    return _composite(tol, {
        "drift from barycenter over [0, 10]": (stay, 1e-8),
        "field vs 1 - n e^x / sum e^x": (_sup(deviations), 1e-12),
    })


def _c09_gauge(tol):
    f = builtin_landscape("rsp")
    shifted = [gauge_shift(f, g) for g in (lambda x: 5.0, lambda x: float(np.sum(x * x)))]
    worst = _sup(
        vector_field(phi, f, x) - vector_field(phi, fg, x)
        for phi in (Identity(), Power(2), Exponential())
        for fg in shifted
        for x in simplex_samples(3, 50, seed=31)
    )
    return worst, worst <= tol, "field of f vs f + g(x)*1 for g in {5, sum x^2}, 100 states"


def _c10_time_change(tol, fast, slow):
    m = len(fast.states)
    dev = float(np.max(np.abs(fast.states - slow.states[::2][:m])))
    return dev, dev <= tol, "Scaled(2) at t vs Identity at 2t on RSP, t in [0, 10]"


def _c11_formal_solution(tol, *trajectories):
    worst = _sup(direct.states - formal.states
                 for direct, formal in zip(trajectories[::2], trajectories[1::2]))
    return worst, worst <= tol, "exp_phi(v - G) reconstruction vs direct integration, t in [0, 5]"


def _c12_q_ordering(tol, ref, *trajectories):
    devs = [float(np.max(np.abs(tr.states - ref.states))) for tr in trajectories]
    measured = _worst(b / a for a, b in zip(devs, devs[1:]))
    note = "deviation from the replicator at q in {1.1, 1.01, 1.001}: " + ", ".join(
        f"{d:.3e}" for d in devs
    )
    return measured, measured < tol, note


def _c13_roundtrips(tol):
    # parts (each normalized by its own bound): exp(log) roundtrip 1e-8,
    # closed vs quadrature log and divergence 1e-7, divergence Hessian 1e-4
    parts = {}

    families = [
        Identity(),
        Scaled(2.0),
        Power(0.5),
        Power(2),
        Power(3),
        Constant(1.0),
        Exponential(),
        Custom(lambda v: v + v * v, name="v+v^2"),
    ]
    parts["roundtrip"] = (
        _sup(phi.exp(phi.log(float(u))) - u for phi in families for u in np.linspace(0.05, 5.0, 34)),
        1e-8,
    )

    rng = random.Random(7)
    gaps = [
        phi.log(u) - float(Escort._log(phi, np.array([u]))[0])
        for phi in map(Power, (0.0, 0.5, 2.0, 3.0))
        for u in (0.05 + 4.95 * rng.random() for _ in range(25))
    ]
    for x, y in zip(simplex_samples(3, 10, seed=5), simplex_samples(3, 10, seed=6)):
        for phi in (Identity(), Power(2)):
            gaps.append(escort_divergence(phi, x, y) - _quadrature_terms(phi, x.coords, y.coords))
    parts["closed_vs_quadrature"] = (_sup(gaps), 1e-7)

    h = 1e-4
    x = np.array(X0_CYCLE)
    errors = []
    for phi in (Identity(), Power(2)):
        diag = escort_metric(phi, x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            d2 = (escort_divergence(phi, x, x + e) + escort_divergence(phi, x, x - e)) / h**2
            errors.append(abs(d2 - diag[i]) / diag[i])
    parts["hessian_vs_metric"] = (_worst(errors), 1e-4)

    return _composite(tol, parts)


def _c14_discrete_map(tol):
    pos = FitnessLandscape.custom(lambda x: np.array([1.0, 3.0, 2.0]) + x, name="positive")
    errors = []
    for x in simplex_samples(3, 50, seed=41):
        fx = pos(x.coords)
        errors.append(discrete_step(Constant(1.0), pos, x).coords - fx / fx.sum())

    const = FitnessLandscape.custom(lambda x: np.full(len(x), 2.5), name="flat")
    stays, moves = [], []
    for x in simplex_samples(3, 50, seed=43):
        stays.append(discrete_step(Identity(), const, x).coords - x.coords)
        moves.append(np.max(np.abs(discrete_step(Identity(), pos, x).coords - x.coords)))
    moved = float(np.min(moves))
    return _composite(tol, {
        "constant escort vs f/sum(f)": (_sup(errors), 1e-15),
        "equal-fitness fixed point dev": (_sup(stays), 1e-15),
        "1e-6 / min movement under unequal fitness": (1e-6 / moved if moved else math.inf, 1.0),
    })


CRITERIA = [
    Criterion(
        "rsp_product_conservation",
        "replicator RSP orbit conserves x1*x2*x3",
        1e-6,
        _c01_rsp_product,
        (Run(Identity(), "rsp", X0_CYCLE, 100.0, observe_every=100),),
    ),
    Criterion(
        "poincare_inverse_sum",
        "quadratic escort conserves 1/x1 + 1/x2 + 1/x3",
        1e-5,
        _c02_poincare,
        (Run(Power(2), RSP_ESCORT, X0_CYCLE, 100.0, observe_every=100),),
    ),
    Criterion(
        "general_integral_of_motion",
        "sum x*_i log_phi(x_i) conserved for q in {0.5, 3}",
        1e-5,
        _c03_general_integral,
        tuple(Run(Power(q), RSP_ESCORT, X0_CYCLE, 100.0, observe_every=100, ref=BARYCENTER_3)
              for q in (0.5, 3.0)),
    ),
    Criterion(
        "lyapunov_monotonicity",
        "divergence to the barycenter decays along gradient flows",
        1.0,
        _c04_lyapunov,
        _GRADIENT_RUNS,
    ),
    Criterion(
        "fisher_rate_gradient_flows",
        "Z_phi Var_phi[f] equals dV/dt along the flow",
        1e-6,
        _c05_fisher,
        _GRADIENT_RUNS,
    ),
    Criterion(
        "nash_rest_points",
        "the RSP barycenter is a rest point for four escorts",
        1e-12,
        _c06_nash_rest,
    ),
    Criterion(
        "orthogonal_projection_field",
        "constant escort reduces to f_i - mean(f)",
        1e-15,
        _c07_projection,
    ),
    Criterion(
        "exponential_escort_rest_point",
        "exp escort with f = e^-x fixes the barycenter",
        1.0,
        _c08_exponential_rest,
        (Run(Exponential(), "exp_decay", BARYCENTER_3, 10.0, observe_every=100),),
    ),
    Criterion(
        "gauge_invariance",
        "adding g(x)*1 to the landscape leaves the field unchanged",
        1e-12,
        _c09_gauge,
    ),
    Criterion(
        "selection_intensity_time_change",
        "Scaled(2) trajectory is the replicator at doubled speed",
        1e-6,
        _c10_time_change,
        (Run(Scaled(2.0), "rsp", X0_CYCLE, 10.0, observe_every=10),
         Run(Identity(), "rsp", X0_CYCLE, 20.0, observe_every=10)),
    ),
    Criterion(
        "formal_solution_agreement",
        "exp_phi(v - G) reconstruction matches direct integration",
        1e-5,
        _c11_formal_solution,
        tuple(
            Run(phi, "rsp", X0_CYCLE, 5.0, observe_every=10, formal=formal)
            for phi in (Identity(), Power(2))
            for formal in (False, True)
        ),
    ),
    Criterion(
        "q_to_one_ordering",
        "deviation from the replicator shrinks as q -> 1",
        1.0,
        _c12_q_ordering,
        tuple(
            Run(phi, "rsp", X0_CYCLE, 10.0, observe_every=10)
            for phi in (Identity(), Power(1.1), Power(1.01), Power(1.001))
        ),
    ),
    Criterion(
        "roundtrips_and_cross_checks",
        "exp/log roundtrips, quadrature cross-checks, metric Hessian",
        1.0,
        _c13_roundtrips,
    ),
    Criterion(
        "discrete_map_forms",
        "discrete map normalizations and fixed points",
        1.0,
        _c14_discrete_map,
    ),
]

CRITERIA_BY_NAME = {c.name: c for c in CRITERIA}


# ---------------------------------------------------------------------------
# Run plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanReport:
    """What integrating a plan took: runs, RK4 steps, processes, wall seconds."""

    runs: int
    steps: int
    processes: int
    seconds: float

    def __str__(self):
        return (
            f"plan: {self.runs} runs, {self.steps} RK4 steps, "
            f"{self.processes} processes, {self.seconds:.2f} s integrating"
        )


def plan(criteria) -> list[Run]:
    """The distinct runs of ``criteria``, in order of first use."""
    return list(dict.fromkeys(run for c in criteria for run in c.runs))


def integrate_runs(runs) -> PlanReport:
    """Integrate and cache the ``runs`` not yet cached, as one plan (``dynamics.run_all``)."""
    t0 = time.perf_counter()
    runs = [run for run in dict.fromkeys(runs) if run not in _traj.store]
    trajectories, processes = run_all(Run.integrate, runs)
    _traj.add(runs, trajectories)
    return PlanReport(len(runs), sum(r.steps for r in runs), processes, time.perf_counter() - t0)


def select(names=None) -> list[Criterion]:
    """The criteria called ``names``, in that order (all by default)."""
    return CRITERIA if names is None else [CRITERIA_BY_NAME[n] for n in names]


def run_suite(names=None) -> tuple[list[CriterionResult], PlanReport]:
    """Run the selected criteria (all by default); returns their results and
    the report of integrating their runs first, as one plan (``integrate_runs``).
    """
    selected = select(names)
    report = integrate_runs(plan(selected))
    return [c.run() for c in selected], report


def format_report(results) -> str:
    name_w = max(len(r.name) for r in results)
    lines = [f"{'criterion':<{name_w}}  {'measured':>12}  {'tolerance':>10}  result"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{name_w}}  {r.measured:>12.3e}  {r.tolerance:>10.0e}  {status}")
        if r.note:
            lines.append(f"{'':<{name_w}}    {r.note}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
