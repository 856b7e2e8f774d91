"""Fitness landscapes: matrix games, escort-composed maps, gauge transforms."""

from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .escorts import Escort, Power
from .simplex import simplex_samples


def _check_square(A):
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix entries must be finite")
    return A


class FitnessLandscape:
    """The map x -> f(x) assigning a payoff to every type.

    Forms: ``matrix`` (f = A x), ``matrix_escort`` (f = A phi(x)),
    ``matrix_escort_log`` (f = A log_phi(x)) and ``custom``. A landscape
    may declare a potential V with grad V = f; the declaration is checked
    by :meth:`validate_potential`, never derived.
    """

    __slots__ = ("kind", "matrix", "escort", "fn", "potential", "name")

    def __init__(self, kind, matrix=None, escort=None, fn=None, potential=None, name=""):
        self.kind = kind
        self.matrix = matrix
        self.escort = escort
        self.fn = fn
        self.potential = potential
        self.name = name or kind

    @classmethod
    def matrix_linear(cls, A, potential=None, name="") -> "FitnessLandscape":
        return cls("matrix", matrix=_check_square(A), potential=potential, name=name)

    @classmethod
    def matrix_escort(cls, A, phi: Escort, name="") -> "FitnessLandscape":
        return cls("matrix_escort", matrix=_check_square(A), escort=phi, name=name)

    @classmethod
    def matrix_escort_log(cls, A, phi: Escort, name="") -> "FitnessLandscape":
        return cls("matrix_escort_log", matrix=_check_square(A), escort=phi, name=name)

    @classmethod
    def custom(cls, fn: Callable, potential: Optional[Callable] = None, name="") -> "FitnessLandscape":
        return cls("custom", fn=fn, potential=potential, name=name)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """f(x), or DomainError, without a warning, when an entry is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            fx = self.evaluate(x)
        return self.check_finite(fx)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """f(x) without the finiteness check; DimensionError when its shape is not x's."""
        x = np.asarray(x, dtype=float)
        if self.matrix is None:
            out = np.asarray(self.fn(x), dtype=float)
        else:
            v = (x if self.kind == "matrix"
                 else self.escort.weights(x) if self.kind == "matrix_escort" else self.escort.log(x))
            try:
                out = self.matrix @ v
            except ValueError:  # numpy's operand mismatch
                raise DimensionError(f"matrix of shape {self.matrix.shape} for state shape {x.shape}") from None
        if out.shape != x.shape:
            raise DimensionError(f"landscape returned shape {out.shape} for state shape {x.shape}")
        return out

    @staticmethod
    def check_finite(fx: np.ndarray) -> np.ndarray:
        """``fx``, or DomainError when an entry of it is not finite."""
        if not np.isfinite(fx).all():
            raise DomainError("landscape returned non-finite fitness")
        return fx

    def validate_potential(self, n: int, tol: float = 1e-5, points: int = 100, seed: int = 0) -> float:
        """Check grad V = f by central differences at random interior points.

        Returns the largest deviation found; raises ConfigError when it
        exceeds ``tol`` or no potential is declared.
        """
        if self.potential is None:
            raise ConfigError("landscape declares no potential")
        h = 1e-6
        worst = 0.0
        for xs in simplex_samples(n, points, seed):
            x = xs.coords
            fx = self(x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                g = (self.potential(x + e) - self.potential(x - e)) / (2.0 * h)
                worst = max(worst, abs(g - fx[i]))
        if worst > tol:
            raise ConfigError(f"declared potential mismatches f (max deviation {worst:g})")
        return worst

    def __repr__(self):
        return f"FitnessLandscape({self.name!r})"


# ---------------------------------------------------------------------------
# Named landscapes
# ---------------------------------------------------------------------------


def rsp_matrix() -> np.ndarray:
    """The zero-sum rock-scissors-paper payoff matrix."""
    return np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def neg_identity_landscape() -> FitnessLandscape:
    """f(x) = -x, the Euclidean gradient of -||x||^2 / 2 (any dimension)."""
    return FitnessLandscape.custom(
        lambda x: -x,
        potential=lambda x: -0.5 * float(np.dot(x, x)),
        name="neg_identity",
    )


def exp_decay_landscape() -> FitnessLandscape:
    """f(x) = exp(-x) componentwise, the gradient of -sum_i exp(-x_i)."""
    return FitnessLandscape.custom(
        lambda x: np.exp(-x),
        potential=lambda x: -float(np.sum(np.exp(-x))),
        name="exp_decay",
    )


BUILTIN_LANDSCAPES = ("rsp", "rsp_escort_quadratic", "neg_identity", "exp_decay")


def builtin_landscape(name: str) -> FitnessLandscape:
    """Resolve one of the named landscapes used by the CLI and the suite."""
    if name == "rsp":
        return FitnessLandscape.matrix_linear(rsp_matrix(), name="rsp")
    if name == "rsp_escort_quadratic":
        return FitnessLandscape.matrix_escort(rsp_matrix(), Power(2.0), name="rsp_escort_quadratic")
    if name == "neg_identity":
        return neg_identity_landscape()
    if name == "exp_decay":
        return exp_decay_landscape()
    raise ConfigError(f"unknown builtin landscape {name!r} (have {BUILTIN_LANDSCAPES})")


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------


def gauge_shift(f: FitnessLandscape, g: Callable) -> FitnessLandscape:
    """The landscape x -> f(x) + g(x) * (1, ..., 1).

    Shifting along the all-ones direction leaves the escort vector field
    unchanged for every escort. The declared potential (if any) does not
    carry over.
    """
    return FitnessLandscape.custom(
        lambda x: f(x) + float(g(x)) * np.ones(len(x)),
        name=f"{f.name}+gauge",
    )
