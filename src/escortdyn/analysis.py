"""Verification utilities: rest points, ESS sampling, rate checks and integrals of motion."""

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .escorts import Escort, _weighted_variance
from .landscapes import FitnessLandscape
from .simplex import SimplexPoint, _as_interior, _uniform_points, as_simplex
from .dynamics import _safe_integral, vector_field

PASSED_SAMPLED = "passed_sampled"
FAILED_AT = "failed_at"


@dataclass(frozen=True)
class ESSReport:
    """Outcome of sampled evolutionary-stability checking.

    ``min_margin`` is the smallest (x* - x) . f(x) over the sampled states;
    the verdict is ``failed_at`` exactly when that minimum is <= 0, with
    ``failure_point`` the offending sample.
    """

    candidate: SimplexPoint
    samples_tested: int
    min_margin: float
    verdict: str
    failure_point: Optional[np.ndarray] = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASSED_SAMPLED


def is_rest_point(phi: Escort, f: FitnessLandscape, x, tol: float) -> bool:
    """True when the sup norm of the vector field at x is within tol."""
    if not (tol > 0.0):
        raise ConfigError(f"tolerance must be positive, got {tol!r}")
    v = vector_field(phi, f, x)
    return bool(np.max(np.abs(v)) <= tol)


def ess_check_sampled(
    f: FitnessLandscape,
    x_star,
    num_samples: int,
    radius: Optional[float] = None,
    seed: Optional[int] = None,
) -> ESSReport:
    """Sample the stability margin (x* - x) . f(x) over the simplex.

    States are drawn Dirichlet(1, ..., 1) from ``random.Random(seed)`` (fresh
    entropy for None), optionally rejected to the ball ||x - x*|| <= radius.
    This is sampled evidence, not a certificate.
    """
    xs = _as_interior(x_star, "an ESS candidate")
    if num_samples < 1:
        raise ConfigError("num_samples must be >= 1")
    draws = _uniform_points(xs.n, random.Random(seed))
    margins = np.empty(num_samples)
    points = []
    attempts = 0
    limit = 10_000 * num_samples
    i = 0
    while i < num_samples:
        attempts += 1
        if attempts > limit:
            raise ConfigError(f"could not draw {num_samples} samples within radius {radius!r}")
        x = next(draws)
        if radius is not None and float(np.linalg.norm(x - xs.coords)) > radius:
            continue
        margins[i] = float((xs.coords - x) @ f(x))
        points.append(x)
        i += 1

    worst = int(np.argmin(margins))
    min_margin = float(margins[worst])
    if min_margin <= 0.0:
        return ESSReport(xs, num_samples, min_margin, FAILED_AT, points[worst])
    return ESSReport(xs, num_samples, min_margin, PASSED_SAMPLED)


def fisher_rate(phi: Escort, f: FitnessLandscape, x) -> float:
    """Z_phi(x) * Var_phi[f(x)]: the growth rate of the declared potential.

    Along the escort flow this equals dV/dt when f is the Euclidean
    gradient of V; it is never negative.
    """
    if f.potential is None:
        raise ConfigError("fisher_rate needs a landscape with a declared potential")
    xs = _as_interior(x, "fisher_rate")
    fx = f(xs.coords)
    w = phi.weights(xs.coords)
    return float(np.add.reduce(w)) * _weighted_variance(w, fx)


def integral_of_motion(phi: Escort, x_star, x) -> float:
    """sum_i x*_i log_phi(x_i), conserved for zero-escort-mean cyclic games: the
    value of a trajectory's ``integral_of_motion`` column at ``x``, also on a face."""
    ref = as_simplex(x_star)
    xs = as_simplex(x)
    if ref.n != xs.n:
        raise DimensionError(f"dimension mismatch: {ref.n} vs {xs.n}")
    return float(_safe_integral(phi, ref.coords, xs.coords[None, :])[0])


def _rel_drift(series) -> float:
    """max_t |s(t) - s(0)| / |s(0)|: how far a conserved quantity drifts from its start."""
    series = np.asarray(series)
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


def monotone_nonincreasing(values, per_step_tol: float = 1e-10) -> bool:
    """True when a sequence never rises by more than per_step_tol per step."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return True
    return bool(np.all(np.diff(v) <= per_step_tol))

