"""The escort replicator flow, its discrete map, and the formal solution.

The continuous dynamic is

    dx_i/dt = phi(x_i) * (f_i(x) - <f(x)>_phi)

with <.>_phi the escort expectation. The flow is tangent to the simplex
but not always forward-invariant (that holds iff phi(0) = 0), so the
integrator reports boundary exits instead of clamping.
"""

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, PositivityError
from .escorts import Escort
from .geometry import divergence_profile
from .landscapes import FitnessLandscape
from .simplex import SimplexPoint, as_simplex

DEFAULT_STEP = 1e-3
DRIFT_TOL = 1e-13  # renormalize when |sum x - 1| exceeds this
HORIZON_TOL = 1e-9  # relative gap allowed between round(t_end/step) steps and t_end


@dataclass(frozen=True)
class Termination:
    """How an integration ended."""

    kind: str  # "completed" | "boundary_exit" | "step_failure"
    time: Optional[float] = None
    index: Optional[int] = None

    @classmethod
    def completed(cls):
        return cls("completed")

    @classmethod
    def boundary_exit(cls, t, index):
        return cls("boundary_exit", time=t, index=index)

    @classmethod
    def step_failure(cls, t):
        return cls("step_failure", time=t)

    @property
    def ok(self):
        return self.kind == "completed"


class Trajectory:
    """Time-ordered samples of an integration, with diagnostics.

    ``states`` is an (m, n) row-stochastic array. ``lyapunov`` and
    ``integral_of_motion`` are None unless a reference point was given;
    entries may be +-inf where the quantity diverges at the boundary.
    """

    __slots__ = ("times", "states", "mean_fitness", "lyapunov", "integral_of_motion", "termination")

    def __init__(self, times, states, mean_fitness, lyapunov, integral_of_motion, termination):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.mean_fitness = np.asarray(mean_fitness, dtype=float)
        self.lyapunov = None if lyapunov is None else np.asarray(lyapunov, dtype=float)
        self.integral_of_motion = (
            None if integral_of_motion is None else np.asarray(integral_of_motion, dtype=float)
        )
        self.termination = termination
        if np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("trajectory times must be strictly increasing")

    def __len__(self):
        return self.times.size

    @property
    def n(self):
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# Vector field
# ---------------------------------------------------------------------------


def _make_field(phi: Escort, f: FitnessLandscape):
    """Build the raw RHS closure; reuses escort weights when f = A phi(x).

    Each call leaves the escort mean fitness <f(x)>_phi it computed in
    ``field.mean``, so the integrator records it without evaluating the
    escort and the landscape again.
    """
    if f.kind == "matrix_escort" and f.escort == phi:
        A = f.matrix

        def field(x):
            w = phi.weights(x)
            fx = A @ w
            m = field.mean = (w @ fx) / w.sum()
            return w * (fx - m)

        return field

    def field(x):
        w = phi.weights(x)
        fx = f(x)
        m = field.mean = (w @ fx) / w.sum()
        return w * (fx - m)

    return field


def vector_field(phi: Escort, f: FitnessLandscape, x) -> np.ndarray:
    """Right-hand side of the escort replicator equation at a state.

    The components sum to zero (the field is tangent to the simplex).
    """
    xs = as_simplex(x)
    return _make_field(phi, f)(xs.coords)


def escort_mean_fitness(phi: Escort, f: FitnessLandscape, x) -> float:
    """<f(x)>_phi at a state."""
    xs = as_simplex(x)
    w = phi.weights(xs.coords)
    return float(w @ f(xs.coords) / w.sum())


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _check_controls(t_end, step, observe_every):
    """Validate the integration controls; returns (n_steps, observe_every).

    The step must divide the horizon: round(t_end/step) steps of size
    ``step`` must land on ``t_end`` to within HORIZON_TOL relative.
    """
    try:
        observe_every = int(operator.index(observe_every))
    except TypeError:
        raise ConfigError(f"observe_every must be an integer, got {observe_every!r}") from None
    if observe_every < 1:
        raise ConfigError(f"observe_every must be >= 1, got {observe_every!r}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"step must be positive, got {step!r}")
    if not (t_end > 0.0 and math.isfinite(t_end)) or t_end < step:
        raise ConfigError(f"horizon must satisfy t_end >= step > 0, got t_end={t_end!r}")
    n_steps = round(t_end / step)
    if abs(n_steps * step - t_end) > HORIZON_TOL * t_end:
        raise ConfigError(f"step {step!r} does not divide the horizon t_end={t_end!r}")
    return n_steps, observe_every


class _Recorder:
    """The samples of a run and their diagnostics.

    A sample's escort mean fitness is settled by the first RK4 stage taken
    at its state (``settle(field.mean)``). A sample that has no such stage
    (the final one, or one where the stage raised) is evaluated afresh when
    the next sample is recorded or the trajectory is built, so an error at
    that state surfaces as the escort or the landscape raises it.
    """

    def __init__(self, phi, f, ref):
        self.phi = phi
        self.f = f
        self.ref = None if ref is None else as_simplex(ref).coords
        self.times = []
        self.states = []
        self.means = []
        self.pending = False  # the last sample has no mean yet

    def record(self, t, x):
        if self.pending:
            self.settle()
        self.times.append(t)
        self.states.append(x.copy())
        self.pending = True

    def settle(self, mean=math.nan):
        """Give the last sample its mean fitness: ``mean`` when it is finite,
        else <f(x)>_phi evaluated at the sample's state."""
        if not math.isfinite(mean):
            # a non-finite stage mean is evaluated again, so that the
            # landscape's own finiteness check raises as it would here
            mean = escort_mean_fitness(self.phi, self.f, self.states[-1])
        self.means.append(float(mean))
        self.pending = False

    def build(self, termination):
        if self.pending:
            self.settle()
        states = np.array(self.states)
        lyap = integral = None
        if self.ref is not None:
            lyap = divergence_profile(self.phi, self.ref, states, allow_infinite=True)
            integral = _safe_integral(self.phi, self.ref, states)
        return Trajectory(self.times, states, self.means, lyap, integral, termination)


def _safe_integral(phi, ref, states):
    """sum_i ref_i log_phi(x_i) per sample, with -inf markers at the boundary.

    One ``log`` call over every positive coordinate; a zero coordinate
    contributes ref_i times ``log_zero_limit()``. The terms are added left
    to right.
    """
    positive = states > 0.0
    logs = np.full(states.shape, phi.log_zero_limit())
    logs[positive] = phi.log(states[positive])
    total = np.zeros(states.shape[0])
    for r, col in zip(ref, logs.T):
        if r != 0.0:
            total += r * col
    return total


def _rk4_step(rhs, y, h, k1=None):
    """One classical Runge-Kutta 4 step of dy/dt = rhs(y) from y; ``k1`` is
    rhs(y) when the caller has already evaluated it."""
    if k1 is None:
        k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    phi: Escort,
    f: FitnessLandscape,
    x0,
    t_end: float,
    step: float = DEFAULT_STEP,
    observe_every: int = 1,
    ref=None,
) -> Trajectory:
    """Integrate the escort flow with fixed-step classical Runge-Kutta 4.

    Samples are recorded at t = 0 and every ``observe_every``-th step (the
    final state is always included). After each step the state is divided
    by its sum whenever the drift |sum x - 1| exceeds 1e-13; the field is
    analytically tangent, so this corrects rounding only. When a step
    leaves the escort's domain or produces a negative coordinate the
    trajectory ends with a ``boundary_exit`` termination; non-finite
    states end it with ``step_failure``.
    """
    n_steps, observe_every = _check_controls(t_end, step, observe_every)
    x = as_simplex(x0).coords.copy()
    field = _make_field(phi, f)
    strict = phi.requires_positive
    rec = _Recorder(phi, f, ref)
    if rec.ref is not None and rec.ref.size != x.size:  # fail before the first step, not after
        raise DimensionError(f"states must have shape (m, {rec.ref.size})")
    rec.record(0.0, x)

    termination = None
    h = float(step)
    t_x = 0.0  # time of the current valid state
    t_recorded = 0.0
    for k in range(n_steps):
        try:
            k1 = field(x)
            if rec.pending:  # x is the last recorded sample
                rec.settle(field.mean)
            x_new = _rk4_step(field, x, h, k1)
        except DomainError as err:
            termination = Termination.boundary_exit(t_x, err.index)
            break
        t_new = (k + 1) * h
        if not np.isfinite(x_new).all():
            termination = Termination.step_failure(t_new)
            break
        bad = (x_new <= 0.0) if strict else (x_new < 0.0)
        if bad.any():
            termination = Termination.boundary_exit(t_new, int(bad.argmax()))
            break
        total = x_new.sum()
        if abs(total - 1.0) > DRIFT_TOL:
            x_new /= total
        x = x_new
        t_x = t_new
        if (k + 1) % observe_every == 0:
            rec.record(t_x, x)
            t_recorded = t_x
    if termination is None:
        termination = Termination.completed()
    if t_x > t_recorded:
        rec.record(t_x, x)

    return rec.build(termination)


# ---------------------------------------------------------------------------
# Discrete escort replicator map
# ---------------------------------------------------------------------------


def discrete_step(phi: Escort, f: FitnessLandscape, x) -> SimplexPoint:
    """One step of the discrete escort replicator map.

    x'_i = phi(x_i) f_i(x) / sum_j phi(x_j) f_j(x); the normalization makes
    x' a simplex point. Fitness must be strictly positive.
    """
    xs = as_simplex(x)
    fx = f(xs.coords)
    if np.any(fx <= 0.0):
        i = int(np.argmin(fx))
        raise PositivityError(f"discrete map needs positive fitness; f_{i} = {fx[i]!r}")
    w = phi.weights(xs.coords) * fx
    return SimplexPoint(w / w.sum())


# ---------------------------------------------------------------------------
# Formal solution through the escort exponential
# ---------------------------------------------------------------------------


def integrate_formal_solution(
    phi: Escort,
    f: FitnessLandscape,
    x0,
    t_end: float,
    step: float = DEFAULT_STEP,
    observe_every: int = 1,
) -> Trajectory:
    """Integrate the augmented system dv_i/dt = f_i(x), dG/dt = <f(x)>_phi.

    The state is reconstructed as x_i = exp_phi(v_i - G) with
    v_i(0) = log_phi(x0_i) and G(0) = 0. Raises RangeError when v_i - G
    leaves the attainable range of exp_phi.
    """
    n_steps, observe_every = _check_controls(t_end, step, observe_every)
    xs = as_simplex(x0)
    if not xs.interior:
        raise DomainError("the formal solution needs an interior initial state")
    n = xs.n

    def reconstruct(z):
        return phi.exp(z[:n] - z[n])

    def rhs(z):
        x = reconstruct(z)
        w = phi.weights(x)
        fx = f(x)
        m = w @ fx / w.sum()
        out = np.empty(n + 1)
        out[:n] = fx
        out[n] = m
        return out

    z = np.empty(n + 1)
    z[:n] = phi.log(xs.coords)
    z[n] = 0.0

    rec = _Recorder(phi, f, None)
    rec.record(0.0, xs.coords.copy())
    h = float(step)
    recorded_last = True
    for k in range(n_steps):
        z = _rk4_step(rhs, z, h)
        recorded_last = (k + 1) % observe_every == 0
        if recorded_last:
            rec.record((k + 1) * h, reconstruct(z))
    if not recorded_last:
        rec.record(n_steps * h, reconstruct(z))
    return rec.build(Termination.completed())
