"""Scalar numerics: adaptive Gauss-Kronrod quadrature, in v or in log v, and monotone inversion."""

import math

import numpy as np

from .errors import ConvergenceError, DomainError, QuadratureError, RangeError

# QUADPACK qk15 (Piessens et al., 1983): the nonnegative Kronrod nodes on
# [-1, 1], their weights, and the weights of the embedded 7-point Gauss
# rule, which uses every second node. _NODES holds all 15 from left to right.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1:8:2] = _WG
_GAUSS[9:15:2] = _WG[2::-1]

QUAD_DEPTH = 50  # bisection levels before gauss_kronrod gives up
# A panel whose two estimates agree to this many units of its own integral
# is converged to rounding, as in QUADPACK (Piessens et al., 1983): near a
# pole the halved panel tolerances fall below it.
ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps
FACE_BOUNDS = (1e-300, 1e-150)  # the lower bounds of gauss_kronrod_log's limit at 0
BRACKET_START = 1.0  # invert_increasing brackets its root outward from here
NEWTON_STEPS = 100  # safeguarded Newton steps before invert_increasing gives up


def gauss_kronrod(f, a, b, tol=1e-10):
    """Integrate ``f`` over ``[a, b]`` with adaptive Gauss-Kronrod 7/15 panels.

    A panel is accepted when its 15-point Kronrod and 7-point Gauss
    estimates differ by at most its tolerance, or by at most ROUNDOFF_FLOOR
    times the Kronrod estimate; otherwise it is bisected, at most
    QUAD_DEPTH times, and each half gets half the tolerance.

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps a 1-d array of nodes to an array of
        values, which must be finite.
    a, b : float
        Integration limits; ``a > b`` flips the sign of the result.
    tol : float
        Absolute tolerance on the final value.

    Raises
    ------
    QuadratureError
        If the tolerance is not met within QUAD_DEPTH levels, or the
        integrand returns a non-finite value.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    total = 0.0
    panels = [(a, b, tol, QUAD_DEPTH)]
    while panels:
        lo, hi, panel_tol, depth = panels.pop()
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = np.asarray(f(mid + half * _NODES), dtype=float)
        if not np.isfinite(fx).all():
            raise QuadratureError(f"non-finite integrand on [{lo}, {hi}]")
        kronrod = half * float(_KRONROD @ fx)
        error = abs(kronrod - half * float(_GAUSS @ fx))
        if error <= panel_tol or error <= ROUNDOFF_FLOOR * abs(kronrod):
            total += kronrod
            continue
        if depth <= 0:
            raise QuadratureError(
                f"tolerance {panel_tol:g} not met on [{lo}, {hi}] at maximum depth"
            )
        panels.append((mid, hi, 0.5 * panel_tol, depth - 1))
        panels.append((lo, mid, 0.5 * panel_tol, depth - 1))
    return sign * total


def gauss_kronrod_log(f, a, b, tol=1e-10):
    """``gauss_kronrod`` of ``f`` over [a, b], a, b >= 0, as f(e^s) e^s over [log a, log b].

    The integrand is bounded at a simple pole of ``f`` at 0, and each panel spans a
    ratio of v (Davis & Rabinowitz, Methods of Numerical Integration, 2.12). A bound
    of exactly 0, which s = log v never reaches, is a limit: the integral is taken from
    each of FACE_BOUNDS instead. Two values within ``tol`` of each other give the
    limit. Two that differ by c ln(1e150), to within 1%, give the signed infinity of a
    simple pole c/v; c is f(v) v at v = 1e-300. Where c is itself infinite, as 1/phi
    overflows there at a pole of order 2 or more, it is that signed infinity. Any
    other pair raises QuadratureError."""

    def integrand(s):
        v = np.exp(s)
        return f(v) * v

    if a != 0.0 and b != 0.0:
        return gauss_kronrod(integrand, math.log(a), math.log(b), tol)
    if a == b:
        return 0.0
    sign, end = (1.0, b) if a == 0.0 else (-1.0, a)
    c = float(integrand(np.array([math.log(FACE_BOUNDS[0])]))[0])
    if math.isinf(c):  # f overflows at the bound: a pole that no float integral reaches
        return sign * c
    near, far = (gauss_kronrod(integrand, math.log(lo), math.log(end), tol) for lo in FACE_BOUNDS)
    if abs(near - far) <= tol:
        return sign * near
    growth = c * math.log(FACE_BOUNDS[1] / FACE_BOUNDS[0])
    if abs(near - far - growth) <= 0.01 * abs(growth):
        return sign * math.copysign(math.inf, c)
    raise QuadratureError(
        f"no limit at 0: {near!r} from {FACE_BOUNDS[0]:g}, {far!r} from {FACE_BOUNDS[1]:g}"
    )


def invert_increasing(g, gprime, target, tol):
    """Solve ``g(x) = target`` for strictly increasing ``g`` on x > 0.

    Brackets the root by doubling (or halving) from BRACKET_START in the monotone
    direction, then runs Newton steps safeguarded by bisection. ``gprime``
    must return the (positive) derivative of ``g``.

    Raises RangeError for a NaN target or when no bracket exists within
    floating-point range, ConvergenceError when the iteration stalls.
    """
    if math.isnan(target):
        raise RangeError(f"target {target!r} is not a number")

    def g_bracket(x):
        # A probe that overflows or leaves g's domain: the target is unattainable in range.
        try:
            return g(x)
        except (OverflowError, DomainError) as err:
            raise RangeError(f"target {target!r} unattainable at x={x!r} ({err})") from None

    lo = hi = BRACKET_START
    glo = ghi = g_bracket(lo)
    if glo < target:
        while ghi < target:
            lo, glo = hi, ghi
            hi *= 2.0
            if hi > 1e300:
                raise RangeError(f"target {target!r} not attained below x=1e300")
            ghi = g_bracket(hi)
    elif glo > target:
        while glo > target:
            hi, ghi = lo, glo
            lo *= 0.5
            if lo < 1e-300:
                raise RangeError(f"target {target!r} not attained above x=1e-300")
            glo = g_bracket(lo)
    else:
        return BRACKET_START

    x, gx = (lo, glo) if target - glo <= ghi - target else (hi, ghi)
    for _ in range(NEWTON_STEPS):
        err = gx - target
        if abs(err) <= tol:
            return x
        d = gprime(x)
        step_ok = d > 0.0 and math.isfinite(d)
        x_new = x - err / d if step_ok else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        g_new = g(x_new)
        if g_new < target:
            lo, glo = x_new, g_new
        else:
            hi, ghi = x_new, g_new
        x, gx = x_new, g_new
        if hi - lo <= 1e-16 * max(1.0, abs(x)):
            if abs(gx - target) <= 1e3 * tol:
                return x
            break
    raise ConvergenceError(f"inversion stalled at x={x!r} (|g(x)-target|={abs(gx - target):g})")
