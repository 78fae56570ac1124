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


def check_integer(value, low: int, name: str) -> int:
    """value as an int if it is an integer >= low (a bool is not one), else DomainError."""
    # type(value) is int skips the slow abstract-class check for a plain int
    if type(value) is not int and (isinstance(value, bool) or not isinstance(
            value, numbers.Integral)) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


#: the types a real argument may have (a bool is an int, and is not one)
_REAL = (int, float, np.integer, np.floating)
_INF = math.inf  # one global lookup, not two: every KernelQuery pays check_above


def check_above(name: str, value, low: float = 0.0):
    """value as floats that are finite and above low, else DomainError.

    The one domain check of the package: low is 0 for times, orders and
    coordinates and -1 for the alpha_j.  A Python or numpy int or float
    gives a float; a nonempty tuple or list of them, a tuple of floats; a
    nonempty int or float array, a float array of its shape.  A bool, str,
    complex, None, nested sequence, object array or empty input is not one.
    A caller that takes one number checks (value,) and reads element 0.
    """
    items = value if isinstance(value, (tuple, list)) else (value,)
    if not isinstance(value, np.ndarray):
        for v in items:
            if type(v) is not float and (not isinstance(v, _REAL) or isinstance(v, bool)) \
                    or not low < v < _INF:
                value = v  # named in the error
                break
        else:
            if items:
                return tuple(map(float, items)) if items is value else float(value)
    elif value.size and value.dtype.kind in "iuf":
        out = np.asarray(value, dtype=float)
        if ((out > low) & (out < _INF)).all():
            return out
    above = f" > {low:g}" if low > -_INF else ""
    raise DomainError(f"{name} must be a finite number{above}, got {value!r}")
