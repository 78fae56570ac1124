"""Semigroup Lipschitz seminorms and the smoothness-class checks built on them.

For beta > 0 let n be the smallest integer strictly above beta.  The
seminorm is the measured supremum of t^(n-beta) ||d^n/dt^n P_t f||_inf over
a time grid, with the sup norm itself taken over a spatial grid (a declared
lower bound on the true supremum).  Two paths produce the time derivative:
the diagonal multiplier (-sqrt(n_k))^n e^(-t sqrt(n_k)) on expansions, and
the kernel side's poisson_dt_apply, which reads every t of the grid off one
semigroup table per x (subordination of the heat kernel, no multipliers).
On the spectral path a whole time grid is one stacked synthesis: the
multipliers of every t form the columns of one coefficient stack, and the
Laguerre tables of the x grid are built once for all of them.  Both grids
must be nonempty, every t finite and positive, and every x in (0, inf)^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .expansion import (
    OPERATORS,
    LaguerreExpansion,
    MultiIndexParams,
    _synthesize,
    call_on_points,
    synthesize_many,
    tensor_grid,
)
from .fractional import forward_difference, smallest_integer_above
from .kernels import DEFAULT_RULE, poisson_dt_apply
from .report import BoundReport, ReportRow

__all__ = [
    "LipschitzEstimate",
    "default_x_grid",
    "default_t_grid",
    "sup_norm",
    "poisson_dt_expansion",
    "lipschitz_seminorm",
    "check_equivalence",
    "check_approximation",
    "check_pminusI_power",
]


@lru_cache(maxsize=3)
def _default_grid(d: int, points: int):
    """Log-spaced spatial grid in [0.05, 20] per axis, as a read-only
    (points^d, d) array and as point tuples, built once per (d, points)."""
    axis = np.geomspace(0.05, 20.0, points)
    xs = tensor_grid([axis] * d, [np.ones(points)] * d)[0]
    xs.flags.writeable = False
    return xs, tuple(map(tuple, xs.tolist()))


def default_x_grid(d: int = 1, points: int = 24):
    """Log-spaced spatial grid in [0.05, 20] per axis, as a list of point tuples."""
    return list(_default_grid(d, points)[1])


def default_t_grid(levels: int = 11):
    """Dyadic time grid 5 * 2^-j, ascending, from 5*2^-10 up to 5."""
    return [5.0 * 2.0 ** (-j) for j in range(levels - 1, -1, -1)]


@dataclass(frozen=True)
class LipschitzEstimate:
    """Grid-measured seminorm data for one function and one beta."""

    beta: float
    n: int
    t_grid: tuple
    x_grid: tuple
    sup_table: dict
    A_beta: float
    f_sup: float

    def __post_init__(self):
        if not self.n > self.beta:
            raise DomainError("derivative order must exceed beta")
        if list(self.t_grid) != sorted(self.t_grid):
            raise DomainError("t_grid must be ascending")


def sup_norm(g, x_grid) -> float:
    """max |g| over the grid; g maps a point (tuple) to a real."""
    if len(x_grid) == 0:
        raise DomainError("grid must be nonempty")
    return max(abs(float(g(x))) for x in x_grid)


def _dt_multiplier(m, t, n):
    """(-sqrt(m))^n e^(-t sqrt(m)), the symbol of d^n/dt^n P_t; m and t broadcast."""
    root = np.sqrt(m)
    return (-root) ** n * np.exp(-t * root)


def poisson_dt_expansion(e: LaguerreExpansion, t: float, n: int) -> LaguerreExpansion:
    """d^n/dt^n P_t e as an expansion: multiplier (-sqrt(m))^n e^(-t sqrt(m))."""
    return e.scaled(_dt_multiplier(e.orders, t, n))


def _sups_over_t(f: LaguerreExpansion, factors, xs, minus=None) -> np.ndarray:
    """max over xs of |g_i - minus| for each column i of factors, where g_i has
    the coefficients f.vector * factors[:, i]: one stacked synthesis."""
    vals = _synthesize(f, f.vector[:, None] * factors, xs)
    if minus is not None:
        vals -= minus
    return np.max(np.abs(vals), axis=1)


def _grids(t_grid, x_grid, d):
    """The t grid as a tuple and the x grid as an (M, d) array, each taken from
    default_t_grid/default_x_grid if None; for d = 1 x points may be plain numbers.
    Raises DomainError unless both are nonempty, every t is finite and positive
    and every coordinate is finite and positive."""
    t_grid = tuple(default_t_grid() if t_grid is None else t_grid)
    if not t_grid:
        raise DomainError("t_grid must be nonempty")
    if not all(0 < t < math.inf for t in t_grid):
        raise DomainError("every t of the grid must be finite and positive")
    xs = _default_grid(d, 24)[0] if x_grid is None else np.asarray(x_grid, dtype=float)
    if len(xs) == 0:
        raise DomainError("grid must be nonempty")
    xs = xs.reshape(len(xs), -1)
    if xs.shape[1] != d:
        raise DomainError(f"grid points must have {d} coordinates")
    if not np.all((xs > 0) & (xs < math.inf)):
        raise DomainError("grid points must lie in (0, inf)^d")
    return t_grid, xs


def _a_beta(f, params, beta, n, t_grid, xs, method, rule):
    """(sup_t t^(n-beta) ||d^n_t P_t f||, {t: ||d^n_t P_t f||}) for an order n > beta."""
    if method == "spectral":
        if not isinstance(f, LaguerreExpansion):
            raise DomainError("spectral path needs an expansion input")
        factors = _dt_multiplier(f.orders[:, None], np.asarray(t_grid, float), n)
        sups = _sups_over_t(f, factors, xs)
    elif method == "kernel":
        func = (lambda y: synthesize_many(f, y)) if isinstance(f, LaguerreExpansion) else f
        # one semigroup table per x serves the whole t grid
        vals = [poisson_dt_apply(func, params, np.array(t_grid), x, n, rule) for x in xs]
        sups = np.max(np.abs(vals), axis=0)
    else:
        raise DomainError(f"unknown method {method!r}")
    sup_table = {t: float(v) for t, v in zip(t_grid, sups)}
    return max(t ** (n - beta) * s for t, s in sup_table.items()), sup_table


def lipschitz_seminorm(
    f,
    params: MultiIndexParams,
    beta: float,
    t_grid=None,
    x_grid=None,
    method: str = "spectral",
    rule=DEFAULT_RULE,
) -> LipschitzEstimate:
    """Measure A_beta(f) = sup_t t^(n-beta) ||d^n/dt^n P_t f||_inf on grids."""
    if not beta > 0:
        raise DomainError("beta must be positive")
    n = smallest_integer_above(beta)
    t_grid, xs = _grids(t_grid, x_grid, params.d)
    a_beta, sup_table = _a_beta(f, params, beta, n, t_grid, xs, method, rule)
    f_vals = synthesize_many(f, xs) if isinstance(f, LaguerreExpansion) else call_on_points(f, xs)
    f_sup = float(np.max(np.abs(f_vals)))
    points = _default_grid(params.d, 24)[1] if x_grid is None else tuple(map(tuple, xs.tolist()))
    return LipschitzEstimate(beta, n, t_grid, points, sup_table, a_beta, f_sup)


def check_equivalence(
    f,
    params: MultiIndexParams,
    beta: float,
    k: int,
    l: int,
    t_grid=None,
    x_grid=None,
    ratio_window=(1.0 / 50.0, 50.0),
    method: str = "spectral",
) -> BoundReport:
    """Compare the order-k and order-l versions of the seminorm.

    Both are finite for smooth inputs; the measured ratio is recorded, with
    PASS meaning finite values inside the declared comparability window
    (the underlying equivalence provides no explicit constant).
    """
    if k <= beta or l <= beta:
        raise DomainError("both derivative orders must exceed beta")
    t_grid, xs = _grids(t_grid, x_grid, params.d)
    a_k, _ = _a_beta(f, params, beta, k, t_grid, xs, method, DEFAULT_RULE)
    a_l, _ = _a_beta(f, params, beta, l, t_grid, xs, method, DEFAULT_RULE)
    if a_k == 0.0 and a_l == 0.0:
        ratio = 1.0
    elif a_l == 0.0:
        ratio = math.inf
    else:
        ratio = a_k / a_l
    ok = math.isfinite(ratio) and ratio_window[0] <= ratio <= ratio_window[1]
    rows = (
        ReportRow(f"order={k}", a_k, math.inf),
        ReportRow(f"order={l}", a_l, math.inf),
        ReportRow("ratio", ratio, ratio_window[1]),
    )
    return BoundReport(
        scenario="prop31",
        claim="seminorms built from any two derivative orders above beta "
        "are equivalent up to a constant",
        config={"beta": beta, "k": k, "l": l},
        rows=rows,
        max_ratio=ratio,
        passed=ok,
    )


def check_approximation(
    f,
    params: MultiIndexParams,
    beta: float,
    t_grid=None,
    x_grid=None,
    tol: float = 0.05,
    method: str = "spectral",
) -> BoundReport:
    """||P_t f - f||_inf against A_beta(f) t^beta on the grids."""
    if not 0 < beta < 1:
        raise DomainError("approximation check needs beta in (0, 1)")
    if not isinstance(f, LaguerreExpansion):
        raise DomainError("approximation check is defined on expansions")
    t_grid, xs = _grids(t_grid, x_grid, params.d)
    n = smallest_integer_above(beta)
    a_beta, _ = _a_beta(f, params, beta, n, t_grid, xs, method, DEFAULT_RULE)
    poisson_factors = OPERATORS["poisson"].symbol(np.asarray(t_grid, float), f.orders[:, None])
    sups = _sups_over_t(f, poisson_factors, xs, minus=synthesize_many(f, xs))
    rows = []
    worst = 0.0
    for t, measured in zip(t_grid, sups.tolist()):
        bound = (1.0 + tol) * a_beta * t**beta
        rows.append(ReportRow(f"t={t:.6g}", measured, bound))
        if bound > 0:
            worst = max(worst, measured / bound)
    return BoundReport(
        scenario="prop33",
        claim="the semigroup approximates a Lipschitz function at rate t^beta "
        "with constant A_beta",
        config={"beta": beta, "tol": tol},
        rows=tuple(rows),
        max_ratio=worst,
        passed=all(r.measured <= r.bound for r in rows),
    )


def check_pminusI_power(
    f,
    params: MultiIndexParams,
    n: int,
    beta: float,
    t_grid=None,
    x_grid=None,
) -> BoundReport:
    """Grid sup of |(P_t - I)^n f| against 2^n ||f||_inf and A_beta t^beta."""
    if n != smallest_integer_above(beta):
        raise DomainError("n must be the smallest integer above beta")
    if not isinstance(f, LaguerreExpansion):
        raise DomainError("this check is defined on expansions")
    t_grid, xs = _grids(t_grid, x_grid, params.d)
    est = lipschitz_seminorm(f, params, beta, t_grid, x_grid)
    f_sup = est.f_sup
    # n-fold simplex integral of v^(beta-n) over [0,t]^n equals
    # C(n, beta) t^beta with C = Delta_1^n(x^beta, 0) / prod_(i<n) (beta-i)
    denom = 1.0
    for i in range(n):
        denom *= beta - i
    simplex_c = forward_difference(lambda u: u**beta, n, 1.0, 0.0) / denom
    # (P_t - I)^n acts diagonally with multiplier (e^(-t sqrt(m)) - 1)^n
    factors = np.expm1(-np.asarray(t_grid, float) * np.sqrt(f.orders)[:, None]) ** n
    rows = []
    for t, measured in zip(t_grid, _sups_over_t(f, factors, xs).tolist()):
        rows.append(ReportRow(f"t={t:.6g},uniform", measured, 2.0**n * f_sup))
        rows.append(
            ReportRow(f"t={t:.6g},holder", measured, simplex_c * est.A_beta * t**beta)
        )
    ratios = [r.measured / r.bound for r in rows if r.bound > 0]
    return BoundReport(
        scenario="pminusI",
        claim="powers of (P_t - I) are uniformly bounded by 2^n ||f|| and "
        "decay like t^beta on Lipschitz inputs",
        config={"beta": beta, "n": n},
        rows=tuple(rows),
        max_ratio=max(ratios) if ratios else 0.0,
        passed=all(r.measured <= r.bound * (1 + 1e-12) for r in rows),
    )
