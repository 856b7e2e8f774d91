"""Points of the probability simplex and validation helpers."""

import math
import random
from itertools import islice

import numpy as np

from .errors import DomainError

SUM_TOL = 1e-9


class SimplexPoint:
    """A population state: nonnegative coordinates summing to one.

    Construction validates the invariants (|sum - 1| <= 1e-9, all
    coordinates >= 0, length >= 2) and records whether the point is
    interior (all coordinates strictly positive). The coordinate array
    is frozen.
    """

    __slots__ = ("coords", "interior")

    def __init__(self, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("simplex point needs a 1-d vector of length >= 2")
        _require_nonneg(arr, "simplex point")
        with np.errstate(over="ignore"):  # a sum beyond float range is inf, rejected below
            total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise DomainError(f"coordinates sum to {total!r}, not 1")
        arr.flags.writeable = False
        self.coords = arr
        self.interior = bool(np.all(arr > 0.0))

    @property
    def n(self):
        return self.coords.size

    def __len__(self):
        return self.coords.size

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    def __repr__(self):
        inside = ", ".join(repr(c) for c in self.coords)
        return f"SimplexPoint([{inside}])"


def _require_nonneg(arr, name):
    """``arr``, or DomainError unless its entries are finite and nonnegative, tested
    by a ``minimum`` (which carries NaN) and a ``maximum`` reduction."""
    if arr.size and not (np.minimum.reduce(arr, axis=None) >= 0.0 and np.maximum.reduce(arr, axis=None) < math.inf):
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite")
        i = int(arr.argmin()) % arr.shape[-1]
        raise DomainError(f"{name} has negative coordinate {i} ({float(arr.min())!r})", index=i)
    return arr


def as_simplex(x) -> SimplexPoint:
    """Coerce an array-like to a validated SimplexPoint (pass-through if one)."""
    if isinstance(x, SimplexPoint):
        return x
    return SimplexPoint(x)


def _as_interior(x, what) -> SimplexPoint:
    """``x`` as a validated SimplexPoint; DomainError unless it is interior."""
    xs = as_simplex(x)
    if not xs.interior:
        raise DomainError(f"{what} needs an interior point")
    return xs


def barycenter(n: int) -> SimplexPoint:
    """The uniform state (1/n, ..., 1/n)."""
    return SimplexPoint(np.full(n, 1.0 / n))


def _uniform_points(n: int, rng: random.Random):
    """Endless uniform (Dirichlet(1, ..., 1)) points of the open simplex as
    arrays: each normalizes n exponential spacings -log(1 - U) drawn from
    ``rng``; a draw with a zero spacing is repeated."""
    while True:
        e = np.array([-math.log(1.0 - rng.random()) for _ in range(n)])
        if np.all(e > 0.0):
            yield e / e.sum()


def simplex_samples(n: int, count: int, seed: int = 0) -> list[SimplexPoint]:
    """``count`` seeded uniform points of the open simplex (``_uniform_points``),
    drawn from ``random.Random(seed)``, whose ``random()`` stream Python keeps
    across versions."""
    return [SimplexPoint(x) for x in islice(_uniform_points(n, random.Random(seed)), count)]
