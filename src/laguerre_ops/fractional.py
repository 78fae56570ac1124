"""Fractional integrals and derivatives through their time-integral forms.

Each operator has two independent realizations: an exact diagonal action on
finite Laguerre expansions, and a quadrature of the defining integral in the
semigroup time variable.  Each route (Laplace, difference) has one time rule
(_time_rule), and every consumer reads it: on an expansion with modes of
order n the Poisson semigroup contributes e^{-s sqrt(n)}, so each mode's
multiplier and c_lambda_k are sums over that rule; on a callable, the rule
is a linear functional of one table of P_s f(x), settled as one value
(kernels._settled_read).  The power-law endpoint at s = 0, s^(lam-1) on the
Laplace route and s^(k-lam-1) on the difference route, is carried exactly by
the rule's one Gauss-Jacobi panel (specfun.gauss_jacobi_rule).  The rule ends at
kernels.S_CUTOFF with an analytic tail past it: a last node on the
difference route, and on the Laplace route the exact tail of each rate.

Sign conventions: (P_s - I)^k f(x) equals the forward difference
Delta_s^k(u(x, .), 0) of u(x, s) = P_s f(x), and the normalizing constant
c_lambda_k = int_0^inf u^{-lambda-1} (e^{-u} - 1)^k du carries sign (-1)^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import comb, gammaincc

from .errors import DomainError, NonzeroMeanError, check_above, check_integer
from .expansion import (
    OPERATORS,
    LaguerreExpansion,
    MultiIndexParams,
    call_on_points,
    synthesize,
)
from .kernels import S_CUTOFF, _leggauss, _panels, _settled_read
from .specfun import gamma, gauss_jacobi_rule

__all__ = [
    "ROUTES",
    "FracOpConfig",
    "smallest_integer_above",
    "c_lambda",
    "forward_difference",
    "bessel_potential_apply",
    "fractional_integral_apply",
    "fractional_derivative_apply",
    "bessel_derivative_apply",
    "bessel_potential_expansion",
    "fractional_integral_expansion",
    "fractional_derivative_expansion",
    "bessel_derivative_expansion",
]


def smallest_integer_above(lam: float) -> int:
    """Smallest integer strictly greater than lam (so 1.0 -> 2); lam finite."""
    return math.floor(check_above("order", (lam,), -math.inf)[0]) + 1


@dataclass(frozen=True)
class FracOpConfig:
    """Order lambda of a fractional operator.  The difference route takes
    k = smallest_integer_above(lambda); its value does not depend on k."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", check_above("lambda", (self.lam,))[0])


# ---------------------------------------------------------------------------
# The time rule of each route
# ---------------------------------------------------------------------------

#: the rule resolves e^(-a s) on (0, 1] up to the rate A_REF
A_REF = 20.0


@lru_cache(maxsize=256)
def _time_rule(route: str, lam: float, k: int):
    """Nodes s and weights W of the one s-rule of a route, read-only.

    Laplace: sum W g(s) ~ int_0^S_CUTOFF s^(lam-1) g(s) ds; each consumer adds
    the tail past it.  Difference: sum W g(s) ~ int_0^inf s^(-lam-1) g(s) ds
    for g = O(s^k) at 0 that have settled to a constant by S_CUTOFF.  The
    power-law endpoint, s^(lam-1) or s^(k-lam-1) times g / s^k, is carried by
    one Gauss-Jacobi panel on (0, 1]; log-spaced Gauss-Legendre panels take
    [1, S_CUTOFF], and on the difference route a last node at S_CUTOFF
    carries the analytic tail S_CUTOFF^(-lam) / lam.
    """
    if route == "laplace" and not math.lgamma(lam) < math.log(np.finfo(float).max):
        raise DomainError(f"Gamma(lambda) overflows a float at lambda={lam!r}")
    p = lam - 1.0 if route == "laplace" else k - lam - 1.0
    body = gauss_jacobi_rule(p, 20)
    breaks = np.exp(np.linspace(0.0, math.log(S_CUTOFF), 9))
    tail, w = (a.ravel() for a in _panels(breaks, *_leggauss(8)))
    if route == "laplace":
        s = np.concatenate((body.nodes, tail))
        weights = np.concatenate((body.weights, w * tail ** (lam - 1.0)))
    else:
        with np.errstate(divide="ignore", over="ignore"):
            jacobi = body.weights / body.nodes**k
        if not np.isfinite(jacobi).all():
            raise DomainError(f"the difference rule's weights overflow a float at lambda={lam!r}")
        s = np.concatenate((body.nodes, tail, [S_CUTOFF]))
        weights = np.concatenate((jacobi, w * tail ** (-lam - 1.0), [S_CUTOFF ** (-lam) / lam]))
    s.flags.writeable = weights.flags.writeable = False
    return s, weights


def c_lambda(lam: float, k: int = 1) -> float:
    """c_lambda_k = int_0^inf u^(-lam-1) (e^(-u) - 1)^k du."""
    check_integer(k, 1, "k")
    lam = check_above("lambda", (lam,))[0]
    if lam >= k:
        raise DomainError("c_lambda diverges for lambda >= k")
    return float(_route_integral("difference", lam, k, 1.0))


def forward_difference(f, k: int, s, t):
    """Delta_s^k(f, t) = sum_j C(k,j) (-1)^j f(t + (k-j) s).  s and t may be
    arrays that broadcast, for an f that acts elementwise on them."""
    check_integer(k, 1, "k")
    return sum(comb(k, j, exact=True) * (-1.0) ** j * f(t + (k - j) * s) for j in range(k + 1))


# ---------------------------------------------------------------------------
# Quadrature-route multipliers and expansion-level operators
# ---------------------------------------------------------------------------

#: each operator is (shift + sqrt(L))^(-lam) through the Laplace integral
#: (1/Gamma(lam)) int s^(lam-1) e^(-shift s) P_s ds, or (shift + sqrt(L))^lam
#: through the difference integral (1/c_lam_k) int s^(-lam-1) (e^(-shift s) P_s - I)^k ds
ROUTES = {
    "bessel_potential": (1.0, "laplace"),
    "fractional_integral": (0.0, "laplace"),
    "fractional_derivative": (0.0, "difference"),
    "bessel_derivative": (1.0, "difference"),
}


def _route_integral(route: str, lam: float, k: int, a):
    """int_0^inf s^(lam-1) e^(-a s) ds (Laplace route) or
    int_0^inf s^(-lam-1) (e^(-a s) - 1)^k ds (difference route) on the
    route's time rule, for one rate a > 0 or, in one pass, for every rate of
    an array a.  Both are homogeneous in a, so an integrand whose fastest
    rate, a or k a, is above A_REF is taken at that rate A_REF in
    sigma = scale s and multiplied by scale^(-lam) or scale^lam."""
    s, w = _time_rule(route, lam, k)
    a = np.asarray(a, dtype=float)
    if route == "laplace":
        scale = np.maximum(a / A_REF, 1.0)
        b = a / scale  # the rate in scale s, whose tail past S_CUTOFF is exact
        tail = gamma(lam) * gammaincc(lam, b * S_CUTOFF) / b**lam
        return (np.exp(-np.multiply.outer(b, s)) @ w + tail) * scale ** (-lam)
    scale = np.maximum(k * a / A_REF, 1.0)
    return np.expm1(-np.multiply.outer(a / scale, s)) ** k @ w * scale**lam


def _check_mean(kind: str, mean: float, tol: float = 1e-8):  # tol 0: an expansion's exact mean
    if OPERATORS[kind].zero_mean and abs(mean) > tol:
        raise NonzeroMeanError(f"{kind} requires a zero-mean input")


def _apply_expansion(kind: str, e: LaguerreExpansion, cfg: FracOpConfig):
    _check_mean(kind, e.mean, 0.0)
    shift, route = ROUTES[kind]
    k = smallest_integer_above(cfg.lam)
    # one pass over the orders that carry a nonzero coefficient, bar the mean
    # mode (rate 0): the derivative kills it, the integral is taken on zero
    # mean; a last rate 1 gives c_lambda_k on the difference route
    rates = shift + np.sqrt(np.arange(e.degree + 1.0))
    live = (np.bincount(e.orders[e.vector != 0.0], minlength=e.degree + 1) > 0) & (rates > 0)
    values = _route_integral(route, cfg.lam, k, np.append(rates[live], 1.0))
    mults = np.zeros(e.degree + 1)
    mults[live] = values[:-1] / (gamma(cfg.lam) if route == "laplace" else values[-1])
    return e.scaled(mults[e.orders])


def bessel_potential_expansion(e: LaguerreExpansion, cfg: FracOpConfig):
    """J_lam e via numerical s-quadrature of every mode in one pass."""
    return _apply_expansion("bessel_potential", e, cfg)


def fractional_integral_expansion(e: LaguerreExpansion, cfg: FracOpConfig):
    return _apply_expansion("fractional_integral", e, cfg)


def fractional_derivative_expansion(e: LaguerreExpansion, cfg: FracOpConfig):
    return _apply_expansion("fractional_derivative", e, cfg)


def bessel_derivative_expansion(e: LaguerreExpansion, cfg: FracOpConfig):
    return _apply_expansion("bessel_derivative", e, cfg)


# ---------------------------------------------------------------------------
# Pointwise operators: expansion fast path, callable slow path
# ---------------------------------------------------------------------------


def _callable_route(kind, f, params, lam, k, x):
    """The route's time rule applied to u(s) = e^(-shift s) P_s f(x), or on the
    difference route to Delta_s^k(u, 0): a linear functional of one table of
    P_s f(x), which kernels._settled_read settles as one value, the Kronrod
    and Gauss rows by the rule's weights and the magnitude row by |weights|."""
    shift, route = ROUTES[kind]
    s, w = _time_rule(route, lam, k)
    weights = (w, w, np.abs(w))
    if route == "laplace":
        # P_s f(x) has reached the mean of f by S_CUTOFF, and past it u decays
        # like e^(-s): e^(-s) times that mean, or a zero mean's rate-1 mode
        g, times = f, np.append(s, S_CUTOFF)

        def integral(rows):
            u = np.exp(-shift * times) * rows
            _check_mean(kind, u[0, -1])
            return [np.dot(v, r[:-1]) / gamma(lam) + r[-1] * math.exp(S_CUTOFF)
                    * gammaincc(lam, S_CUTOFF) for v, r in zip(weights, u)]
    else:
        # column j - 1 holds u(j s), j = 1..k, and Delta_s^k(u, 0) is the
        # unit-step difference of j -> u(j s), taken of f - f(x), so u(0) = 0
        # and no terms of the size of f(x) cancel: f(x) adds const
        fx = float(call_on_points(f, params, np.array([x]))[0])  # one point, shape (1, d)
        g, times = lambda y: np.asarray(f(y), dtype=float) - fx, np.outer(s, np.arange(1.0, k + 1))
        const, c = fx * np.expm1(-shift * s) ** k, c_lambda(lam, k)

        def integral(rows):
            u = np.exp(-shift * times) * rows.reshape(3, *times.shape)
            u[2] += abs(fx) * np.exp(-shift * times)  # f(y) - f(x) keeps f(y)'s rounding
            with np.errstate(over="ignore", invalid="ignore"):  # at large k, inf or nan
                delta = forward_difference(lambda j: u[:2, :, int(j) - 1] if j else 0, k, 1, 0)
                size = u[2] @ comb(k, np.arange(1, k + 1)) + np.abs(const)
                return [np.dot(v, r) / b
                        for v, r, b in zip(weights, (*(delta + const), size), (c, c, abs(c)))]
    where = lambda i: f"the {route} time integral at lambda={lam!r}, k={k}, x={x}"
    return float(_settled_read(g, params, x, times.ravel(), 0, where, integral)[0])


def _dispatch(kind, f, params, lam, x):
    cfg, x = FracOpConfig(lam), params.point(x)
    if isinstance(f, LaguerreExpansion):
        return synthesize(_apply_expansion(kind, f, cfg), np.asarray(x))
    return _callable_route(kind, f, params, lam, smallest_integer_above(lam), x)


def bessel_potential_apply(f, params: MultiIndexParams, lam, x) -> float:
    """J_lam f(x) = (1/Gamma(lam)) int_0^inf s^(lam-1) e^(-s) P_s f(x) ds."""
    return _dispatch("bessel_potential", f, params, lam, x)


def fractional_integral_apply(f, params: MultiIndexParams, lam, x) -> float:
    """I_lam f(x) = (1/Gamma(lam)) int_0^inf s^(lam-1) P_s f(x) ds, zero-mean f."""
    return _dispatch("fractional_integral", f, params, lam, x)


def fractional_derivative_apply(f, params: MultiIndexParams, lam, x) -> float:
    """D_lam f(x) = (1/c_lam_k) int_0^inf s^(-lam-1) (P_s - I)^k f(x) ds."""
    return _dispatch("fractional_derivative", f, params, lam, x)


def bessel_derivative_apply(f, params: MultiIndexParams, lam, x) -> float:
    """Same as the fractional derivative with P_s replaced by e^(-s) P_s."""
    return _dispatch("bessel_derivative", f, params, lam, x)
