"""Semigroup Lipschitz seminorms, measured on grids.

For beta > 0 let n be the smallest integer strictly above beta.  The
seminorm is the measured supremum of t^(n-beta) ||d^n/dt^n P_t f||_inf over
a time grid, with the sup norm itself taken over a spatial grid (a declared
lower bound on the true supremum).  Two paths produce the time derivative:
the diagonal multiplier (-sqrt(n_k))^n e^(-t sqrt(n_k)) on expansions, and
the kernel side's poisson_dt_apply, which reads every t of the grid off one
semigroup table per x (subordination of the heat kernel, no multipliers) of
f itself: an expansion is synthesized on each heat time's grid (call_on_points).
This module only measures; the claims read from the measurements, and
their reports, are stated in harness.  On the spectral path all that one
claim reads is one stacked synthesis (_measure): the multipliers of every
t (and 1, for ||f||) form the columns of one coefficient stack, which may
hold several expansions of one layout (a theorem scenario's input and
operator outputs), and the Laguerre tables
of the x grid are built once for all of them.  The default x grid is handed
to the synthesis as its per-axis nodes, so each k axis is contracted by an
outer product over that axis's 24 nodes; a value there is bit for bit the
one synthesize_many gives at the same point.  Both grids must be nonempty,
every t finite and positive, and every x in (0, inf)^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_above, check_integer
from .expansion import (
    LaguerreExpansion,
    MultiIndexParams,
    _synthesize,
    call_on_points,
    tensor_grid,
)
from .fractional import smallest_integer_above
from .kernels import poisson_dt_apply

__all__ = [
    "LipschitzEstimate",
    "default_x_grid",
    "default_t_grid",
    "sup_norm",
    "poisson_dt_expansion",
    "lipschitz_seminorm",
]


class _XGrid(NamedTuple):
    """A checked x grid, in the two forms its readers take."""

    nodes: object  # what _synthesize reads: per-axis nodes of a tensor grid, or the points
    points: np.ndarray  # the (M, d) points, read-only


@lru_cache(maxsize=3)
def _default_grid(d: int, points: int):
    """Log-spaced spatial grid in [0.05, 20] per axis, built once per
    (d, points): the tensor grid of that axis as an _XGrid, and its points
    as tuples."""
    axis = np.geomspace(0.05, 20.0, points)
    xs = tensor_grid((axis,) * d)
    for a in (axis, xs):
        a.flags.writeable = False
    return _XGrid((axis,) * d, xs), tuple(map(tuple, xs.tolist()))


def default_x_grid(d: int = 1, points: int = 24):
    """Log-spaced spatial grid in [0.05, 20] per axis, as a list of point tuples."""
    return list(_default_grid(check_integer(d, 1, "d"), check_integer(points, 1, "points"))[1])


def default_t_grid(levels: int = 11):
    """Dyadic time grid 5 * 2^-j, ascending, from 5*2^-(levels-1) up to 5."""
    return [5.0 * 2.0 ** (-j) for j in range(check_integer(levels, 1, "levels") - 1, -1, -1)]


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
    """max |g| over the grid, any iterable of points; g maps a point (tuple)
    to a real.  DomainError for an empty grid or a value that is not finite."""
    if not np.iterable(x_grid):
        raise DomainError(f"x_grid must be an iterable of points, got {x_grid!r}")
    values = [float(g(x)) for x in x_grid]
    if not values:
        raise DomainError("grid must be nonempty")
    return max(map(abs, check_above("g on the grid", values, -math.inf)))


def _dt_multiplier(m, t, n):
    """(-sqrt(m))^n e^(-t sqrt(m)), the symbol of d^n/dt^n P_t; m and t broadcast.
    Raises DomainError where it is not a finite float (a huge order n)."""
    root = np.sqrt(m)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = (-root) ** n * np.exp(-t * root)
    if not np.all(np.isfinite(factors)):
        raise DomainError("the multiplier of d^n/dt^n P_t overflows a float: n is too large")
    return factors


def poisson_dt_expansion(e: LaguerreExpansion, t: float, n: int) -> LaguerreExpansion:
    """d^n/dt^n P_t e as an expansion: multiplier (-sqrt(m))^n e^(-t sqrt(m))."""
    return e.scaled(_dt_multiplier(e.orders, check_above("t", (t,))[0], n))


def _a_beta(beta, n, t_grid, sups):
    """(sup_t t^(n-beta) s_t, {t: s_t}) for s_t = ||d^n_t P_t f|| on the t grid."""
    sup_table = {t: float(v) for t, v in zip(t_grid, sups)}
    return max(t ** (n - beta) * s for t, s in sup_table.items()), sup_table


def _measure(params, t_grid, x_grid, *asks):
    """The checked grids, and every ask read off one stacked synthesis.

    The t grid becomes a tuple of times and the x grid an _XGrid of points
    of params (for d = 1 they may be plain numbers), each taken from
    default_t_grid/default_x_grid if None, else DomainError; the default x
    grid is read as the tensor grid it is.  An ask (f, n, beta[, ts]) gives
    A_beta = sup_t t^(n-beta) s_t over the times ts (the t grid if not
    given) and its table {t: s_t}, s_t the grid sup of d^n/dt^n P_t f; an
    ask (f, n) gives the grid sups of (P_t - I)^n f, one per t (at n = 0
    the one sup of f).  The f are expansions of one layout, and each column
    of the stack has the same values whatever else is in it.  Returns the t
    grid, the x grid and one result per ask.
    """
    t_grid = check_above("t_grid", default_t_grid() if t_grid is None else t_grid)
    t_grid = tuple(np.ravel(t_grid).tolist())
    if x_grid is None:
        grid = _default_grid(params.d, 24)[0]
    elif not np.iterable(x_grid):
        raise DomainError(f"x_grid must be a sequence of points, got {x_grid!r}")
    else:
        # the stacked points are checked once more as a whole, for an empty grid
        xs = check_above("x_grid", np.array([params.point(p, "x_grid point") for p in x_grid]))
        xs.flags.writeable = False
        grid = _XGrid(xs, xs)
    if not asks:
        return t_grid, grid, []
    asks = [ask + (None, t_grid)[len(ask) - 2:] for ask in asks]  # as (f, n, beta, ts)
    columns = []
    for f, n, beta, ts in asks:
        if not isinstance(f, LaguerreExpansion):
            raise DomainError("spectral path needs an expansion input")
        m, ts = f.orders[:, None], np.array(ts)
        if beta is not None:
            factors = _dt_multiplier(m, ts, n)
        else:
            # the symbol (e^(-t sqrt(m)) - 1)^n of (P_t - I)^n, one column of ones at n = 0
            factors = np.expm1(-ts * np.sqrt(m)) ** n if n else np.ones_like(m)
        columns.append(f.vector[:, None] * factors)
    values = _synthesize(asks[0][0], np.hstack(columns), grid.nodes)
    sups = np.split(np.max(np.abs(values), axis=1), np.cumsum([c.shape[1] for c in columns[:-1]]))
    return t_grid, grid, [s if beta is None else _a_beta(beta, n, ts, s)
                          for (_, n, beta, ts), s in zip(asks, sups)]


def lipschitz_seminorm(
    f,
    params: MultiIndexParams,
    beta: float,
    t_grid=None,
    x_grid=None,
    method: str = "spectral",
) -> LipschitzEstimate:
    """Measure A_beta(f) = sup_t t^(n-beta) ||d^n/dt^n P_t f||_inf on grids."""
    beta = check_above("beta", (beta,))[0]
    n = smallest_integer_above(beta)
    asks = [(f, n, beta), (f, 0)] if method == "spectral" else []
    t_grid, grid, reads = _measure(params, t_grid, x_grid, *asks)
    if reads:
        (a_beta, sup_table), (f_sup,) = reads
    elif method == "kernel":
        # one semigroup table per x serves the whole t grid
        vals = [poisson_dt_apply(f, params, np.array(t_grid), x, n) for x in grid.points]
        a_beta, sup_table = _a_beta(beta, n, t_grid, np.max(np.abs(vals), axis=0))
        f_sup = np.max(np.abs(call_on_points(f, params, grid.points)))
    else:
        raise DomainError(f"unknown method {method!r}")
    points = _default_grid(params.d, 24)[1] if x_grid is None else tuple(
        map(tuple, grid.points.tolist()))
    return LipschitzEstimate(beta, n, t_grid, points, sup_table, a_beta, float(f_sup))

