"""Exception types shared across the package, and the argument checks."""

import math
import numbers

import numpy as np


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


#: the types a real argument may have (a bool is an int, and is not one)
_REAL = (int, float, np.integer, np.floating)


def is_positive_number(v) -> bool:
    """v is a Python or numpy int or float, not a bool, in (0, inf)."""
    return isinstance(v, _REAL) and not isinstance(v, bool) and 0 < v < math.inf
