"""Escort metric, escort divergence, and simplex-to-sphere coordinates."""

import math

import numpy as np

from .errors import DimensionError, DivergenceInfinite, DomainError
from .escorts import Escort
from .numerics import gauss_kronrod_log
from .simplex import SimplexPoint, _as_interior, _require_nonneg, as_simplex

DIVERGENCE_QUAD_TOL = 1e-9  # quadrature tolerance, per coordinate


def escort_metric(phi: Escort, x) -> np.ndarray:
    """The diagonal 1/phi(x_i) of the escort metric at an interior x, as a read-only array."""
    g = phi.reciprocal(_as_interior(x, "the escort metric").coords)
    g.flags.writeable = False
    return g


# ---------------------------------------------------------------------------
# Escort divergence
# ---------------------------------------------------------------------------
#
# D_phi(x || y) = sum_i B(x_i, y_i) with the coordinatewise Bregman gap
#
#     B(a, b) = L(a) - L(b) - (a - b) * log_phi(b),
#
# where L is an antiderivative of log_phi. This is the form whose gradient
# in the second slot is -(x - y)/phi(y), making D_phi(x* || x) the Lyapunov
# function of the escort flow; for the identity escort it reduces on the
# simplex to the Kullback-Leibler divergence sum x_i log(x_i/y_i), and for
# a constant escort to ||x - y||^2 / (2c). The sum constraint is not needed
# for the definition, so inputs may be arbitrary nonnegative vectors (the
# Hessian of y -> D_phi(x || y) at y = x is then the escort metric,
# coordinate by coordinate).


def _coerce_nonneg(v, name):
    if isinstance(v, SimplexPoint):
        return v.coords
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError(f"{name} must be a 1-d vector of length >= 2")
    return _require_nonneg(arr, name)


def _closed_terms(phi: Escort, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinatewise Bregman gaps via the family's closed forms, whose limits
    at 0 give the gaps on the boundary; a form beyond float range rounds to inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = phi.log_antiderivative(a) - phi.log_antiderivative(b) - (a - b) * phi._log(b)
    # no gap, also at a = b = 0, where L(0) or log_phi(0) may be infinite
    terms[a == b] = 0.0
    # at b = 0 an infinite L(0) meets -a log_phi(0) = +inf (Power with q >= 2)
    terms[np.isnan(terms) & (b == 0.0)] = math.inf
    if np.isnan(terms).any():
        raise DomainError("escort divergence undefined for the given points")
    return terms


def _quadrature_terms(phi: Escort, a, b) -> float:
    """The sum of the coordinatewise Bregman gaps, each as a single integral.

    By Fubini, B(a, b) = int_b^a (log_phi(u) - log_phi(b)) du
    = int_b^a (a - v) / phi(v) dv, so no inner quadrature of log_phi is needed.
    A zero coordinate is a bound of exactly 0, where ``gauss_kronrod_log`` takes
    the limit: finite where the integral converges, +inf at a simple pole of
    1/phi, else QuadratureError.
    """
    total = 0.0
    for ai, bi in zip(a, b):
        if ai == bi:
            continue
        total += gauss_kronrod_log(
            lambda v, ai=ai: (ai - v) * phi.reciprocal(v), bi, ai, tol=DIVERGENCE_QUAD_TOL
        )
    return total


def _divergences(phi: Escort, a, states):
    """D_phi(a || row) for every row of the (m, n) array ``states``: both divergences' body."""
    if not phi.has_closed_log:
        return np.array([_quadrature_terms(phi, a, row) for row in states])
    return _closed_terms(phi, a[None, :], states).sum(axis=1)


def divergence_profile(phi: Escort, x_star, states: np.ndarray) -> np.ndarray:
    """D_phi(x_star || row) for every row of a (m, n) state matrix; +inf where it diverges."""
    a = _coerce_nonneg(x_star, "x_star")
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != a.size:
        raise DimensionError(f"states must have shape (m, {a.size})")
    return _divergences(phi, a, _require_nonneg(states, "states"))


def escort_divergence(phi: Escort, x, y) -> float:
    """The escort divergence D_phi(x || y); zero iff x = y, never negative.

    The family closed form when one exists, else one adaptive Gauss-Kronrod
    integral of (x_i - v)/phi(v) per coordinate.
    """
    a = _coerce_nonneg(x, "x")
    b = _coerce_nonneg(y, "y")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    total = float(_divergences(phi, a, b[None, :])[0])
    if math.isinf(total):
        raise DivergenceInfinite("D_phi(x || y) is infinite for these points")
    return total


# ---------------------------------------------------------------------------
# Sphere coordinates
# ---------------------------------------------------------------------------


def sphere_coordinate(phi: Escort, x) -> np.ndarray:
    """Componentwise antiderivative of 1/sqrt(phi) evaluated at x.

    Anchored at 0 when the integral converges there (identity escort gives
    2*sqrt(x), the radius-2 sphere chart), otherwise at 1.
    """
    return phi.sphere_map(_as_interior(x, "sphere_coordinate").coords)


def geodesic_distance_identity(p, q) -> float:
    """Great-circle distance 2*arccos(sum_i sqrt(p_i q_i)) for the identity escort."""
    ps = as_simplex(p)
    qs = as_simplex(q)
    if ps.n != qs.n:
        raise DimensionError(f"dimension mismatch: {ps.n} vs {qs.n}")
    s = float(np.sum(np.sqrt(ps.coords * qs.coords)))
    s = min(1.0, max(-1.0, s))  # absorbs ~1e-16 rounding above 1
    return 2.0 * math.acos(s)
