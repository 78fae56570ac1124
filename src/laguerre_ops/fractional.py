"""Fractional integrals and derivatives through their time-integral forms.

Each operator has two independent realizations: an exact diagonal action on
finite Laguerre expansions, and a quadrature of the defining integral in the
semigroup time variable.  On an expansion with modes of order n the Poisson
semigroup contributes e^{-s sqrt(n)}, so the quadrature route reduces to
numerical Mellin-Laplace integrals evaluated per mode; nothing about the
eigenvalues is assumed beyond that exponential.  On a callable, P_s f(x) at
every time the route needs comes from one poisson_apply call on one grid.
The power-law endpoint at s = 0, s^(lam-1) on the Laplace route and
s^(k-lam-1) on the difference route, is carried exactly by one Gauss-Jacobi
panel (specfun.gauss_jacobi_rule) in every mode's integral and in the
callable Laplace route; the callable difference route starts at t_floor.

Sign conventions: (P_s - I)^k f(x) equals the forward difference
Delta_s^k(u(x, .), 0) of u(x, s) = P_s f(x), and the normalizing constant
c_lambda_k = int_0^inf u^{-lambda-1} (e^{-u} - 1)^k du carries sign (-1)^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import comb

from .errors import DomainError, NonzeroMeanError
from .expansion import (
    OPERATORS,
    LaguerreExpansion,
    MultiIndexParams,
    call_on_points,
    synthesize,
)
from .kernels import _mu_mean, _panel_nodes, poisson_apply
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
    """Smallest integer strictly greater than lam (so 1.0 -> 2)."""
    k = math.floor(lam) + 1
    if k <= lam:  # lam sits exactly on an integer due to floor rounding
        k += 1
    return int(k)


@dataclass(frozen=True)
class FracOpConfig:
    """Order and quadrature parameters for a fractional operator."""

    lam: float
    k: int = None
    t_floor: float = 1e-6

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("operator order lambda must be positive")
        if self.k is None:
            object.__setattr__(self, "k", smallest_integer_above(self.lam))
        if self.k <= self.lam:
            raise DomainError("difference order k must exceed lambda")
        if not 0 < self.t_floor < 1:
            raise DomainError("t_floor must lie in (0, 1)")


# ---------------------------------------------------------------------------
# One-dimensional integral engines (one Gauss-Jacobi panel at s = 0)
# ---------------------------------------------------------------------------


def _power_integral(p: float, a: float, smooth) -> float:
    """int_0^(45/a) s^p smooth(s) ds for p > -1, where smooth carries the
    decay e^(-a s), below 3e-20 past s = 45/a.  A Gauss-Jacobi panel with
    weight s^p takes (0, h], h = min(1, 32/a), on which e^(-a s) is a
    polynomial of degree < 64 to double precision; log-spaced Gauss-Legendre
    panels take the rest."""
    h = min(1.0, 32.0 / a)
    body = h ** (p + 1.0) * gauss_jacobi_rule(p, 32).integrate(lambda eta: smooth(h * eta))
    s, w = _panel_nodes(np.exp(np.linspace(math.log(h), math.log(45.0 / a), 33)), 16)
    return body + float(np.dot(w, s**p * smooth(s)))


def _mellin_laplace(lam: float, a: float) -> float:
    """int_0^inf s^(lam-1) e^(-a s) ds for a > 0, by quadrature."""
    if a <= 0:
        raise DomainError("decay rate must be positive")
    return _power_integral(lam - 1.0, a, lambda s: np.exp(-a * s))


def _em1_power_integral(lam: float, k: int, a: float) -> float:
    """int_0^inf s^(-lam-1) (e^(-a s) - 1)^k ds, requiring lam < k.

    That is s^(k-lam-1) times the bounded factor ((e^(-a s) - 1)/s)^k, and
    past s = 45/a, where e^(-a s) has died out, the analytic tail of
    (-1)^k s^(-lam-1).
    """
    if lam >= k:
        raise DomainError("integral diverges at 0 unless lambda < k")
    body = _power_integral(k - lam - 1.0, a, lambda s: (np.expm1(-a * s) / s) ** k)
    return body + (-1.0) ** k * (45.0 / a) ** (-lam) / lam


@lru_cache(maxsize=None)
def c_lambda(lam: float, k: int = 1) -> float:
    """c_lambda_k = int_0^inf u^(-lam-1) (e^(-u) - 1)^k du (cached)."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    if lam >= k:
        raise DomainError("c_lambda diverges for lambda >= k")
    if lam <= 0:
        raise DomainError("lambda must be positive")
    return _em1_power_integral(lam, k, 1.0)


def forward_difference(f, k: int, s: float, t: float) -> float:
    """Delta_s^k(f, t) = sum_j C(k,j) (-1)^j f(t + (k-j) s)."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    total = 0.0
    for j in range(k + 1):
        total += comb(k, j, exact=True) * (-1.0) ** j * f(t + (k - j) * s)
    return total


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


def _quad_multiplier(kind: str, lam: float, k: int, n: int) -> float:
    shift, route = ROUTES[kind]
    a = shift + math.sqrt(n)
    if a == 0.0:
        # the mean mode: killed by the derivative, and the integral is only
        # taken on zero-mean inputs
        return 0.0
    if route == "laplace":
        return _mellin_laplace(lam, a) / gamma(lam)
    return _em1_power_integral(lam, k, a) / c_lambda(lam, k)


def _check_mean(kind: str, mean: float):
    if OPERATORS[kind].zero_mean and abs(mean) > 1e-8:
        raise NonzeroMeanError(f"{kind} requires a zero-mean input")


def _apply_expansion(kind: str, e: LaguerreExpansion, cfg: FracOpConfig):
    _check_mean(kind, e.mean)
    # one quadrature per order that carries a nonzero coefficient
    mults = np.zeros(e.degree + 1)
    for n in np.unique(e.orders[e.vector != 0.0]).tolist():
        mults[n] = _quad_multiplier(kind, cfg.lam, cfg.k, n)
    return e.scaled(mults[e.orders])


def bessel_potential_expansion(e: LaguerreExpansion, cfg: FracOpConfig):
    """J_lam e via numerical s-quadrature per mode."""
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


def _callable_laplace_route(f, params, lam, x, shift):
    """(1/Gamma(lam)) int s^(lam-1) e^(-shift s) P_s f(x) ds for a callable f:
    a Gauss-Jacobi panel with weight s^(lam-1) on (0, 1] and Gauss-Legendre
    panels on [1, 45]."""
    rule = gauss_jacobi_rule(lam - 1.0, 8)
    tail, w = _panel_nodes(np.exp(np.linspace(0.0, math.log(45.0), 9)), 4)
    s = np.concatenate((rule.nodes, tail))
    factor = np.concatenate((rule.weights, w * tail ** (lam - 1.0))) * np.exp(-shift * s)
    return float(np.dot(factor, poisson_apply(f, params, s, x))) / gamma(lam)


def _callable_difference_route(f, params, lam, k, x, shift, t_floor):
    """(1/c_lam_k) int s^(-lam-1) Delta_s^k(u, 0) ds with u(s) = e^(-shift s) P_s f(x).

    Below t_floor the difference is O(s^k); that stretch integrates to
    Delta(t_floor) t_floor^(-lam) / (k - lam) under the O(s^k) model.
    """
    breaks = np.exp(np.linspace(math.log(t_floor), math.log(45.0), 19))
    s_nodes, w = _panel_nodes(breaks, 4)
    s = np.concatenate((s_nodes, [t_floor, 45.0]))
    # column j holds u(j s), j = 0..k, all from one semigroup evaluation, and
    # Delta_s^k(u, 0) is the unit-step difference of j -> u(j s)
    times = np.outer(s, np.arange(1.0, k + 1))
    u = np.exp(-shift * times) * poisson_apply(f, params, times, x)
    u = np.column_stack((np.full(len(s), float(call_on_points(f, np.asarray(x)))), u))
    delta = forward_difference(lambda j: u[:, int(j)], k, 1.0, 0.0)
    total = np.dot(w * s_nodes ** (-lam - 1.0), delta[:-2])
    total += delta[-2] * t_floor ** (-lam) / (k - lam)
    # beyond the cutoff every semigroup term has settled, so the difference
    # is the constant delta(45) and the remaining integral is analytic
    total += delta[-1] * 45.0 ** (-lam) / lam
    return float(total) / c_lambda(lam, k)


def _dispatch(kind, f, params, lam, x, cfg):
    cfg = cfg if cfg is not None else FracOpConfig(lam)
    if abs(cfg.lam - lam) > 0:
        cfg = FracOpConfig(lam, t_floor=cfg.t_floor)
    x = tuple(float(v) for v in np.atleast_1d(x))
    if isinstance(f, LaguerreExpansion):
        return synthesize(_apply_expansion(kind, f, cfg), np.asarray(x))
    if OPERATORS[kind].zero_mean:
        _check_mean(kind, _mu_mean(f, params))
    shift, route = ROUTES[kind]
    if route == "laplace":
        return _callable_laplace_route(f, params, lam, x, shift)
    return _callable_difference_route(f, params, lam, cfg.k, x, shift, cfg.t_floor)


def bessel_potential_apply(f, params: MultiIndexParams, lam, x, cfg=None) -> float:
    """J_lam f(x) = (1/Gamma(lam)) int_0^inf s^(lam-1) e^(-s) P_s f(x) ds."""
    return _dispatch("bessel_potential", f, params, lam, x, cfg)


def fractional_integral_apply(f, params: MultiIndexParams, lam, x, cfg=None) -> float:
    """I_lam f(x) = (1/Gamma(lam)) int_0^inf s^(lam-1) P_s f(x) ds, zero-mean f."""
    return _dispatch("fractional_integral", f, params, lam, x, cfg)


def fractional_derivative_apply(f, params: MultiIndexParams, lam, x, cfg=None) -> float:
    """D_lam f(x) = (1/c_lam_k) int_0^inf s^(-lam-1) (P_s - I)^k f(x) ds."""
    return _dispatch("fractional_derivative", f, params, lam, x, cfg)


def bessel_derivative_apply(f, params: MultiIndexParams, lam, x, cfg=None) -> float:
    """Same as the fractional derivative with P_s replaced by e^(-s) P_s."""
    return _dispatch("bessel_derivative", f, params, lam, x, cfg)
