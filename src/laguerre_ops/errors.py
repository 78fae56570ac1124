"""Exception types shared across the package, and the integer-argument check."""

import numbers


class LaguerreOpsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LaguerreOpsError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole (e.g. Gamma at 0, -1, -2, ...)."""


class NonzeroMeanError(LaguerreOpsError, ValueError):
    """A zero-mean input was required but the input has a nonzero mean."""


class QuadratureError(LaguerreOpsError, RuntimeError):
    """A quadrature did not converge within its refinement budget."""


class OverflowGuardError(LaguerreOpsError, OverflowError):
    """A log-space kernel value left the representable range (|log| > 700)."""


class ConfigError(LaguerreOpsError, ValueError):
    """A scenario or operator configuration violates its constraints."""


def check_integer(value, low: int, name: str) -> None:
    """DomainError unless value is an integer >= low (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
