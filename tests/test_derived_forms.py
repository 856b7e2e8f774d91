"""Each family's closed forms against forms derived from phi alone.

sympy integrates 1/phi, log_phi and 1/sqrt(phi) from 1 and takes the limits
of log_phi at 0+ and infinity; mpmath evaluates the results at 30 digits on
25 points of (0, 5]. An antiderivative is compared by its difference from
u = 1, the anchor of the derived integrals, and exp_phi by mapping the
derived log_phi at those points back to them. Errors are scaled by
max(1, |ref|).
"""

import functools
import math

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from escortdyn import Constant, Exponential, Identity, Power, Scaled  # noqa: E402

TOL = 1e-14
POINTS = np.linspace(0.2, 5.0, 25)
DIGITS = 30
QUANTITIES = ("log", "exp", "antiderivative", "sphere_map", "log_range")

v, t, u = sympy.symbols("v t u", positive=True)

# each escort with phi(v) in exact arithmetic: a float q as the rational it is
ESCORTS = {
    "identity": (Identity(), v),
    "scaled(2)": (Scaled(2.0), 2 * v),
    "constant(1.5)": (Constant(1.5), sympy.Rational(3, 2)),
    "exponential": (Exponential(), sympy.exp(v)),
}
ESCORTS.update({f"power({q!r})": (Power(q), v ** sympy.Rational(q)) for q in (-1.0, 0.0, 0.5, 1.5, 2.0, 3.0)})
# on both sides of q = 1 and q = 2, where (u^(1-q) - 1)/(1-q) and its kin
# cancel unless written through expm1 and log1p
NEAR_SPECIAL = [c + s * h for c in (1.0, 2.0) for s in (-1.0, 1.0) for h in (1e-8, 1e-12)]
ESCORTS.update({f"power({q!r})": (Power(q), v ** sympy.Rational(q)) for q in NEAR_SPECIAL})
SPHERE_MAP_ANCHORED_AT_ZERO = (2.0 - 1e-8, 2.0 - 1e-12)


def _cases():
    anchored = pytest.mark.xfail(reason="anchored at 0 by convention: about 1/(1 - q/2), whose differences cancel")
    for key, (phi, _) in ESCORTS.items():
        for quantity in QUANTITIES:
            failing = quantity == "sphere_map" and getattr(phi, "q", None) in SPHERE_MAP_ANCHORED_AT_ZERO
            yield pytest.param(key, quantity, id=f"{key}-{quantity}", marks=anchored if failing else ())


@functools.lru_cache(maxsize=None)
def derived(key):
    """The closed forms of the escort ``key``, derived from its phi alone."""
    phi = ESCORTS[key][1]
    log_phi = sympy.integrate(1 / phi, (v, 1, u))
    return {
        "log": log_phi,
        "exp": log_phi,  # exp_phi is checked as the inverse of log_phi
        "antiderivative": sympy.integrate(log_phi.subs(u, t), (t, 1, u)),
        "sphere_map": sympy.integrate(1 / sympy.sqrt(phi), (v, 1, u)),
        "log_range": (sympy.limit(log_phi, u, 0, "+"), sympy.limit(log_phi, u, sympy.oo)),
    }


def computed(phi, quantity, refs):
    """The family's float closed form of ``quantity`` at POINTS, and what it
    should equal: the derived form's values ``refs``, or POINTS for exp."""
    one = np.ones(1)
    if quantity == "log":
        return phi._log(POINTS), refs
    if quantity == "exp":
        return phi._exp(np.array([float(r) for r in refs])), POINTS
    if quantity == "antiderivative":
        return phi.log_antiderivative(POINTS) - phi.log_antiderivative(one), refs
    return phi.sphere_map(POINTS) - phi.sphere_map(one), refs


def scaled_error(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


@pytest.mark.parametrize("key,quantity", _cases())
def test_closed_form_matches_the_derived_form(key, quantity):
    phi = ESCORTS[key][0]
    form = derived(key)[quantity]
    if quantity == "log_range":
        for got, ref in zip(phi.log_range(), map(float, form)):
            assert got == ref if math.isinf(ref) else scaled_error(got, ref) <= TOL
        return
    evaluate = sympy.lambdify(u, form, "mpmath")
    with mpmath.workdps(DIGITS):
        got, refs = computed(phi, quantity, [evaluate(mpmath.mpf(float(p))) for p in POINTS])
        worst = max(float(scaled_error(mpmath.mpf(float(g)), r)) for g, r in zip(got, refs))
    assert worst <= TOL
