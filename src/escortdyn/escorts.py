"""Escort functions and the statistical objects they induce.

An escort is a function phi that is strictly positive on (0, 1). Applied
coordinatewise and renormalized it deforms a population state into its
escort distribution, and its reciprocal integrates to a deformed logarithm

    log_phi(u) = integral_1^u dv / phi(v)

whose inverse exp_phi generalizes the exponential. Closed forms are
dispatched per family, and their limits at u = 0 are the values on the
boundary of the simplex; the Custom family integrates log_phi in log v by
adaptive Gauss-Kronrod quadrature and inverts it by safeguarded Newton steps.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, QuadratureError, RangeError
from .numerics import gauss_kronrod_log, invert_increasing
from .simplex import as_simplex

LOG_QUAD_TOL = 1e-10
EXP_TOL = 1e-10

_POSITIVITY_GRID = np.arange(1, 1001) / 1001.0
_TINY = 1.0 / np.finfo(float).max  # 1/p is finite for every p above it


class Escort:
    """Base class for scalar escort functions.

    A closed family defines ``_log`` and ``_exp`` once, on arrays, with their
    limits at u = 0; the others integrate log_phi by quadrature and invert it
    by Newton steps.
    """

    requires_positive = False  # True when phi is undefined at u = 0
    has_closed_log = True

    def weights(self, x):
        """phi at a float or coordinatewise at an array, with domain checks:
        DomainError (with ``index`` for an array) outside the domain of phi."""
        raise NotImplementedError

    # -- deformed logarithm and exponential --------------------------------

    def log(self, u):
        """log_phi(u) for u > 0, at a float or a 1-d array: the family's closed
        form, else quadrature. DomainError (with ``index`` for an array) otherwise."""
        u, scalar = _argument(u)
        if not _inside(u, 0.0, math.inf):
            i = int((np.isfinite(u) & (u > 0.0)).argmin())
            index = None if scalar else i
            raise DomainError(f"log_phi needs u > 0, got {float(u[i])!r}", index=index)
        out = self._log(u)
        return float(out[0]) if scalar else out

    def exp(self, w):
        """Inverse of log_phi at a float or a 1-d array; raises RangeError (with
        ``index`` for an array) outside the attainable range."""
        w, scalar = _argument(w)
        lo, hi = self.log_range()
        if not _inside(w, lo, hi):
            i = int(((lo < w) & (w < hi)).argmin())
            index = None if scalar else i
            message = f"w={float(w[i])!r} outside attainable log range ({lo!r}, {hi!r})"
            raise RangeError(message, index=index)
        out = self._exp(w) if self.has_closed_log else self._exp_inversion(w, scalar)
        return float(out[0]) if scalar else out

    def _log(self, u):
        """log_phi by quadrature: one integral from 1 per entry of the array ``u``.
        Where phi underflows at an entry u > 0, 1/phi overflows there, and no
        float integral reaches the value: QuadratureError names the entry."""
        logs = []
        for v in u.ravel().tolist():
            try:
                logs.append(gauss_kronrod_log(self.reciprocal, 1.0, v, tol=LOG_QUAD_TOL))
            except QuadratureError:
                if not (v > 0.0 and math.isinf(self.reciprocal(np.array([v]))[0])):
                    raise
                message = f"log_phi out of reach at u={v!r}: phi underflows to 0 (so 1/phi overflows) between u and 1"
                raise QuadratureError(message) from None
        return np.array(logs).reshape(u.shape)

    def _exp_inversion(self, w, scalar):
        """exp_phi by inverting ``log`` itself entry by entry; RangeError names the failing entry."""
        out = np.empty(w.size)
        for i, v in enumerate(w.tolist()):
            try:
                out[i] = invert_increasing(self.log, self.reciprocal, v, tol=EXP_TOL)
            except RangeError as err:
                err.index = None if scalar else i
                raise
        return out

    def reciprocal(self, v: np.ndarray) -> np.ndarray:
        """1/phi at a 1-d array; DomainError (with ``index``) at the first entry
        where phi is negative or not finite, as a closed form can overflow."""
        return _reciprocal(v, self.weights(v))

    def log_range(self):
        """Open interval of values attained by log_phi on u > 0."""
        return (-math.inf, math.inf)

    # -- antiderivative of log_phi, used by the escort divergence ----------

    def log_antiderivative(self, u):
        """An antiderivative of log_phi at an array, with its limit at u = 0."""
        raise NotImplementedError

    # -- simplex-to-sphere coordinate change --------------------------------

    def sphere_map(self, u: np.ndarray) -> np.ndarray:
        """Antiderivative of 1/sqrt(phi) at an array, anchored at 0 when integrable there."""
        # Custom escorts anchor at 1: integrability at 0 is not decidable here.
        def integrand(v):
            return np.sqrt(self.reciprocal(v))

        return np.array([
            gauss_kronrod_log(integrand, 1.0, a, tol=LOG_QUAD_TOL)
            for a in np.asarray(u, dtype=float).tolist()
        ])


def _argument(u):
    """``u`` as a 1-d float array, and whether it was given as a scalar."""
    if type(u) is np.ndarray and u.ndim == 1 and u.dtype == float:  # already one
        return u, False
    arr = np.asarray(u, dtype=float)
    if arr.ndim > 1:
        raise DomainError(f"expected a float or a 1-d array, got shape {arr.shape}")
    return arr.reshape(-1), arr.ndim == 0


def _inside(u, lo, hi):
    """Whether every entry of the float array ``u`` lies in (lo, hi), as one
    scalar test: NaN propagates through ``minimum`` and ``maximum``, so it
    fails. Callers find the offending entry elementwise only when it fails."""
    return not u.size or (lo < np.minimum.reduce(u, axis=None) and np.maximum.reduce(u, axis=None) < hi)


def _reciprocal(v, p):
    """1/p for phi's values ``p`` at ``v``: +inf where it overflows, as where phi
    underflows near a pole of 1/phi at 0, and DomainError (with ``index``) at the
    first entry where ``p`` is negative or not finite."""
    if _inside(p, _TINY, math.inf):  # one scalar test for the common case
        return 1.0 / p
    ok = (p >= 0.0) & (p < math.inf)
    if not ok.all():
        i = int(ok.argmin())
        raise DomainError(f"escort not positive and finite at u={float(v[i])!r}", index=i)
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / p


def _xlogx(u):
    """u log u at an array, with its limit 0 at u = 0."""
    return u * np.log(np.where(u > 0.0, u, 1.0))


def _require_nonnegative(x):
    """Raise DomainError at the most negative entry of the float array ``x``.

    One scalar test: ``fmin`` skips NaN, as ``x < 0`` does."""
    if x.size and np.fmin.reduce(x, axis=None) < 0.0:
        i = int(x.argmin())
        index = None if x.ndim == 0 else i
        raise DomainError(f"negative entry {float(x.flat[i])!r}", index=index)


@dataclass(frozen=True)
class Scaled(Escort):
    """phi(u) = beta * u with beta > 0: replicator flow at selection intensity beta."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"Scaled escort needs beta > 0, got {self.beta!r}")

    def weights(self, x):
        x = np.asarray(x, dtype=float)
        _require_nonnegative(x)
        return self.beta * x

    def _log(self, u):
        with np.errstate(over="ignore"):  # beyond float range at a tiny beta: +-inf
            return np.log(u) / self.beta

    def _exp(self, w):
        return np.exp(self.beta * w)

    def log_antiderivative(self, u):
        return (_xlogx(u) - u) / self.beta

    def sphere_map(self, u):
        return 2.0 * np.sqrt(u / self.beta)


@dataclass(frozen=True)
class Power(Escort):
    """phi(u) = u**q: Tsallis-type deformation; q = 2 is the Poincare escort.

    With e = 1 - q, log_phi = (u^e - 1)/e is expm1(e log u)/e, inverted through
    log1p: nothing cancels as q -> 1, and q = 1 itself, 0/0 there, is the identity."""

    q: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise DomainError(f"Power escort needs finite q, got {self.q!r}")

    @property
    def requires_positive(self):
        return self.q <= 0.0

    def weights(self, x):
        x = np.asarray(x, dtype=float)
        _require_nonnegative(x)
        if self.q <= 0.0 and x.size and np.fmin.reduce(x, axis=None) == 0.0:
            index = None if x.ndim == 0 else int(x.argmin())  # the first zero
            raise DomainError(f"u**q undefined at u = 0 for q={self.q!r}", index=index)
        return x if self.q == 1.0 else x**self.q  # x**1.0 would copy the same bits

    def _log(self, u):
        e = 1.0 - self.q
        if e == 0.0:
            return np.log(u)
        with np.errstate(over="ignore"):  # beyond float range far from u = 1: +-inf
            return np.expm1(e * np.log(u)) / e

    def _exp(self, w):
        e = 1.0 - self.q
        return np.exp(np.log1p(e * w) / e) if e != 0.0 else np.exp(w)

    def log_range(self):
        e = 1.0 - self.q
        if e == 0.0:
            return (-math.inf, math.inf)
        if e > 0.0:  # q < 1
            return (-1.0 / e, math.inf)
        return (-math.inf, -1.0 / e)  # q > 1

    def log_antiderivative(self, u):
        # anchored at 0 up to q = 3/2, like the identity's u log u - u; above,
        # at 1, since at 0 every value near q = 2 would carry about -1/(2 - q)
        d = 2.0 - self.q
        if self.q <= 1.5:
            return (u * self._log(np.where(u > 0.0, u, 1.0)) - u) / d
        if d == 0.0:
            return u - np.log(u)
        return (np.expm1(d * np.log(u)) / d - (u - 1.0)) / (1.0 - self.q)

    def sphere_map(self, u):
        e = 1.0 - 0.5 * self.q
        if e > 0.0:  # q < 2: integrable at 0
            return u**e / e
        return np.expm1(e * np.log(u)) / e if e != 0.0 else np.log(u)  # q >= 2: anchored at 1


@dataclass(frozen=True)
class Identity(Power):
    """phi(u) = u: Power at q = 1, the ordinary logarithm, Shahshahani weights, replicator flow."""

    q: float = field(default=1.0, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Constant(Escort):
    """phi(u) = c: every state maps to the barycenter; Euclidean geometry."""

    c: float = 1.0

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"Constant escort needs c > 0, got {self.c!r}")

    def weights(self, x):
        return np.full(np.shape(x), self.c)

    def _log(self, u):
        return (u - 1.0) / self.c

    def _exp(self, w):
        return 1.0 + self.c * w

    def log_range(self):
        return (-1.0 / self.c, math.inf)

    def log_antiderivative(self, u):
        return (0.5 * u * u - u) / self.c

    def sphere_map(self, u):
        return u / math.sqrt(self.c)


@dataclass(frozen=True)
class Exponential(Escort):
    """phi(u) = e**u: positive on the boundary, so the flow can leave the simplex."""

    def weights(self, x):
        return np.exp(x)

    def _log(self, u):
        return math.exp(-1.0) - np.exp(-u)

    def _exp(self, w):
        return -np.log(math.exp(-1.0) - w)

    def log_range(self):
        # log_phi on u > 0 covers (1/e - 1, 1/e).
        return (math.exp(-1.0) - 1.0, math.exp(-1.0))

    def log_antiderivative(self, u):
        return math.exp(-1.0) * u + np.exp(-u)

    def sphere_map(self, u):
        return 2.0 * (1.0 - np.exp(-0.5 * u))


@dataclass(frozen=True, eq=False)
class Custom(Escort):
    """A user-supplied scalar escort; log/exp go through quadrature.

    Construction samples 1000 points of (0, 1) and rejects functions that
    are not strictly positive and finite there.
    """

    fn: Callable[[float], float]
    name: str = "custom"

    has_closed_log = False
    requires_positive = True

    def __post_init__(self):
        self.weights(_POSITIVITY_GRID)

    def weights(self, x):
        # the checks ride on the per-element loop: array checks would cost
        # more than ``fn`` itself on a 15-node quadrature panel
        x = np.asarray(x, dtype=float)
        out = []
        valid = True
        for v in x.reshape(-1).tolist():
            if v < 0.0:
                _require_nonnegative(x)
            p = float(self.fn(v))
            if not 0.0 < p < math.inf:
                valid = False
            out.append(p)
        w = np.array(out).reshape(x.shape)
        if not valid:  # the smallest value, a non-finite one counting as -inf
            i = int(np.where(np.isfinite(w), w, -math.inf).argmin())
            u, p = float(x.flat[i]), float(w.flat[i])
            message = f"custom escort not positive and finite at u={u!r} ({p!r})"
            raise DomainError(message, index=None if x.ndim == 0 else i)
        return w

    def reciprocal(self, v):
        """1/phi, +inf also where phi underflows to 0 at v > 0, as near a pole of
        1/phi at 0: ``weights`` rejects that 0."""
        try:
            return super().reciprocal(v)
        except DomainError:
            if not _inside(v, 0.0, math.inf):
                raise
            return _reciprocal(v, np.array([float(self.fn(u)) for u in v.tolist()]))


# ---------------------------------------------------------------------------
# Escort statistics
# ---------------------------------------------------------------------------


def partition_function(phi: Escort, x) -> float:
    """Z_phi(x) = sum_i phi(x_i); strictly positive."""
    xs = as_simplex(x)
    return float(phi.weights(xs.coords).sum())


def _weighted_mean(w, f):
    """The escort mean <f>_phi from the weights ``w``; NaN where ``w @ f`` warns
    (+inf and -inf in ``f``, or +inf at a zero weight) and warnings are errors."""
    try:
        return (w @ f) / np.add.reduce(w)
    except RuntimeWarning:
        return math.nan


def _weighted_variance(w, f) -> float:
    """The escort variance of ``f`` from the weights ``w``."""
    d = f - _weighted_mean(w, f)
    return float(w @ (d * d) / np.add.reduce(w))


def escort_variance(phi: Escort, x, f) -> float:
    """Escort variance of f: the escort expectation of (f - mean)^2."""
    xs = as_simplex(x)
    f = np.asarray(f, dtype=float)
    if f.shape != xs.coords.shape:
        raise DimensionError(f"f has shape {f.shape}, expected {xs.coords.shape}")
    if not np.all(np.isfinite(f)):
        raise DomainError("f must be finite")
    return _weighted_variance(phi.weights(xs.coords), f)


escort_log = Escort.log
escort_exp = Escort.exp
