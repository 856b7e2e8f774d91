"""Exception hierarchy shared across the package."""


class EscortError(Exception):
    """Base class for every error raised by escortdyn; ``index`` names the
    offending coordinate or array entry, when there is one."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(EscortError, ValueError):
    """Input lies outside the mathematical domain of an operation.

    Out-of-domain inputs are never silently clamped.
    """


class DimensionError(EscortError, ValueError):
    """Vector or matrix dimensions do not match."""


class PositivityError(EscortError, ValueError):
    """A quantity required to be strictly positive is not."""


class RangeError(EscortError, ValueError):
    """Argument lies outside the attainable range of an inverse function."""


class ConvergenceError(EscortError, ArithmeticError):
    """An iterative solver failed to reach its tolerance."""


class QuadratureError(EscortError, ArithmeticError):
    """Adaptive quadrature could not meet its tolerance."""


class DivergenceInfinite(EscortError, ArithmeticError):
    """The escort divergence is infinite for the given pair of points."""


class ConfigError(EscortError, ValueError):
    """Invalid run configuration or missing declared data."""
