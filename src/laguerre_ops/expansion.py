"""Finite Laguerre expansions and exact spectral operator action.

Coefficients live in the non-normalized basis {L_k^alpha}.  An expansion of
degree N stores them as one read-only vector over every multi-index with
|k| <= N, in enumerate_indices order, beside the vector of orders |k|.
Every diagonal operator multiplies c_k by its symbol m(param, |k|); the six
symbols and their zero-mean requirements are stated once, in OPERATORS.
Synthesis builds the per-axis Laguerre tables once per call, for one
coefficient vector or for a stack of them, and contracts the coefficients
one k axis at a time, at scattered points or on a tensor grid given by its
per-axis nodes.  Every point takes the same products and sums in each
form, so its value is the same bit for bit from synthesize,
synthesize_many, a tensor grid or one column of a stack.  This is the
oracle path the kernel/quadrature implementations are checked against.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NonzeroMeanError, check_above, check_integer
from .specfun import _laguerre_functions, gauss_laguerre_rule, laguerre_rows

__all__ = [
    "MultiIndexParams",
    "LaguerreExpansion",
    "Operator",
    "OPERATORS",
    "SpectralMultiplier",
    "enumerate_indices",
    "basis_norm_sq",
    "tensor_grid",
    "call_on_points",
    "analyze",
    "synthesize",
    "synthesize_many",
    "spectral_apply",
    "pi0",
    "expansion_to_json",
    "expansion_from_json",
    "random_expansion",
]


@dataclass(frozen=True)
class MultiIndexParams:
    """Dimension and type multi-index alpha of the Laguerre setting."""

    d: int
    alpha: tuple

    def __post_init__(self):
        check_integer(self.d, 1, "dimension d")
        object.__setattr__(self, "alpha", _coordinates("alpha", self.alpha, -1.0, self.d))

    def point(self, x, name: str = "x") -> tuple:
        """x as a point of (0, inf)^d, a tuple of d floats; x may also be one
        number, or a 0-d array."""
        p = x if isinstance(x, (tuple, list, np.ndarray)) else (x,)
        return _coordinates(name, p, 0.0, self.d)

    @property
    def half_regime(self) -> bool:
        """True iff every alpha_j > -1/2 (hypothesis of the L1 kernel bounds)."""
        return min(self.alpha) > -0.5


def _coordinates(name, value, low, d):
    """value as a tuple of d floats above low (check_above): a tuple, list or
    1-d array of d numbers, else DomainError."""
    p = check_above(name, value, low)
    if isinstance(p, np.ndarray):
        p = tuple(p.ravel().tolist()) if p.ndim <= 1 else ()
    if not isinstance(p, tuple) or len(p) != d:
        raise DomainError(f"{name} must be {d} coordinates, got {value!r}")
    return p


@lru_cache(maxsize=64, typed=True)
def _layout(d: int, degree: int):
    """(indices, orders, position, grid) of the coefficient vector for
    (d, degree), grid the indices as a (d, ncoef) array, read-only.
    Typed, so a float degree misses the cache and reaches the check."""
    check_integer(degree, 0, "degree")
    indices = tuple(sorted(
        (k for k in itertools.product(range(degree + 1), repeat=d) if sum(k) <= degree),
        key=lambda k: (sum(k), k),
    ))
    grid = np.array(indices).T
    orders = grid.sum(axis=0)
    for a in (grid, orders):
        a.flags.writeable = False
    return indices, orders, {k: i for i, k in enumerate(indices)}, grid


def enumerate_indices(d: int, degree: int) -> list:
    """All multi-indices (tuples) with |k| <= degree, graded lexicographic order."""
    return list(_layout(d, degree)[0])


def basis_norm_sq(k, params: MultiIndexParams):
    """Squared mu_alpha-norm of L_k^alpha: prod binom(k_j + alpha_j, k_j), for
    one multi-index k, or elementwise for an array of them of shape (d, M)."""
    log_h = 0.0
    for kj, aj in zip(np.asarray(k, dtype=float), params.alpha):
        log_h += gammaln(kj + aj + 1.0) - gammaln(kj + 1.0) - gammaln(aj + 1.0)
    return np.exp(log_h)


@dataclass(frozen=True, init=False, eq=False)
class LaguerreExpansion:
    """Finite expansion sum_k c_k L_k^alpha over |k| <= degree.

    `coeffs` is a vector in enumerate_indices order, a mapping
    {index tuple: c_k} in which absent indices are zero, or None for zero.
    """

    params: MultiIndexParams
    degree: int
    vector: np.ndarray

    def __init__(self, params: MultiIndexParams, degree: int, coeffs=None):
        indices, orders, position, _ = _layout(params.d, degree)
        if isinstance(coeffs, Mapping):
            vector = np.zeros(len(indices))
            for k, c in coeffs.items():
                kt = tuple(int(v) for v in k)
                if len(kt) != params.d:
                    raise DomainError("coefficient index has wrong dimension")
                if kt not in position:
                    raise DomainError(f"index {kt} is not an index of degree <= {degree}")
                vector[position[kt]] = c
        else:
            vector = np.zeros(len(indices)) if coeffs is None else np.array(coeffs, dtype=float)
            if vector.shape != orders.shape:
                raise DomainError(f"coefficient vector must have length {len(indices)}")
        vector = check_above("coefficients", vector, -np.inf)
        vector.flags.writeable = False
        # frozen: the fields are set past the dataclass __setattr__
        self.__dict__.update(
            params=params, degree=degree, vector=vector, indices=indices, orders=orders)

    @cached_property
    def coeffs(self) -> Mapping:
        """Read-only {index tuple: c_k} over every index up to the degree."""
        return MappingProxyType(dict(zip(self.indices, self.vector.tolist())))

    def coeff(self, k) -> float:
        return self.coeffs.get(tuple(k), 0.0)

    @property
    def mean(self) -> float:
        """Integral against mu_alpha (= coefficient of L_0)."""
        return float(self.vector[0])

    def scaled(self, factors) -> "LaguerreExpansion":
        """The expansion with c_k replaced by factors[i] c_k (factors in index
        order); DomainError where a product is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return LaguerreExpansion(self.params, self.degree, self.vector * factors)

    def __eq__(self, other):
        if not isinstance(other, LaguerreExpansion):
            return NotImplemented
        return (self.params, self.degree) == (other.params, other.degree) and bool(
            np.array_equal(self.vector, other.vector))


class Operator(NamedTuple):
    """Symbol m(param, n) on the modes of order n, and the input it needs."""

    symbol: Callable
    zero_mean: bool = False


#: the diagonal operators of the Laguerre setting; the zero-mean one is
#: undefined on the mean mode, where its symbol is 0 by convention
OPERATORS = {
    "heat": Operator(lambda t, n: np.exp(-t * n)),
    "poisson": Operator(lambda t, n: np.exp(-t * np.sqrt(n))),
    "bessel_potential": Operator(lambda lam, n: (1.0 + np.sqrt(n)) ** -lam),
    "fractional_integral": Operator(
        lambda lam, n: np.where(n > 0, n, np.inf) ** (-lam / 2.0), zero_mean=True),
    "fractional_derivative": Operator(lambda lam, n: n ** (lam / 2.0)),
    "bessel_derivative": Operator(lambda lam, n: (1.0 + np.sqrt(n)) ** lam),
}


@dataclass(frozen=True)
class SpectralMultiplier:
    """One operator of OPERATORS at a positive parameter (time t or order lam)."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in OPERATORS:
            raise DomainError(f"unknown multiplier kind {self.kind!r}")
        object.__setattr__(self, "param", check_above("parameter", (self.param,))[0])

    @property
    def zero_mean(self) -> bool:
        return OPERATORS[self.kind].zero_mean

    def symbol(self, n):
        return OPERATORS[self.kind].symbol(self.param, n)

    def value(self, n: int) -> float:
        if n < 0:
            raise DomainError("order n must be nonnegative")
        if n == 0 and self.zero_mean:
            raise NonzeroMeanError(f"{self.kind} is undefined at |k| = 0; project with pi0")
        return float(self.symbol(n))


def heat(t: float) -> SpectralMultiplier:
    return SpectralMultiplier("heat", t)


def poisson(t: float) -> SpectralMultiplier:
    return SpectralMultiplier("poisson", t)


def bessel_potential(lam: float) -> SpectralMultiplier:
    return SpectralMultiplier("bessel_potential", lam)


def fractional_integral(lam: float) -> SpectralMultiplier:
    return SpectralMultiplier("fractional_integral", lam)


def fractional_derivative(lam: float) -> SpectralMultiplier:
    return SpectralMultiplier("fractional_derivative", lam)


def bessel_derivative(lam: float) -> SpectralMultiplier:
    return SpectralMultiplier("bessel_derivative", lam)


def spectral_apply(m: SpectralMultiplier, e: LaguerreExpansion) -> LaguerreExpansion:
    """Apply the diagonal operator: c_k -> m(|k|) c_k."""
    if m.zero_mean and e.mean != 0.0:
        raise NonzeroMeanError(f"{m.kind} requires a zero-mean expansion (apply pi0 first)")
    return e.scaled(m.symbol(e.orders))


def pi0(e: LaguerreExpansion) -> LaguerreExpansion:
    """Remove the mu_alpha-mean: zero the L_0 coefficient."""
    vector = e.vector.copy()
    vector[0] = 0.0
    return LaguerreExpansion(e.params, e.degree, vector)


def tensor_grid(nodes):
    """The (M, d) points of the tensor grid of per-axis nodes, in C order over
    the axes, the last fastest; stored axis by axis, so each coordinate
    column handed to f is contiguous."""
    grids = np.empty((len(nodes), *map(len, nodes)))
    for j, y in enumerate(nodes):
        grids[j] = np.reshape(y, (-1,) + (1,) * (len(nodes) - j - 1))
    return grids.reshape(len(nodes), -1).T


def call_on_points(f, params: MultiIndexParams, pts) -> np.ndarray:
    """f at points of params, an array of shape (..., d), or on the tensor grid
    of a tuple of d per-axis node arrays, as an array of shape (n1, ..., nd).
    A callable takes an (m, d) array, or the coordinate itself at d = 1, and
    returns one real value per point or one for all, else DomainError; an
    expansion of params is synthesized, on a grid in tensor form."""
    shape = tuple(map(len, pts)) if isinstance(pts, tuple) else np.shape(pts)[:-1]
    if isinstance(f, LaguerreExpansion):
        if f.params != params:
            raise DomainError(f"an expansion of {f.params} read at points of {params}")
        xs = pts if isinstance(pts, tuple) else np.reshape(pts, (-1, params.d))
        return _synthesize(f, f.vector, xs).reshape(shape)
    pts = tensor_grid(pts) if isinstance(pts, tuple) else np.asarray(pts, dtype=float)
    values = np.asarray(f(pts[..., 0] if params.d == 1 else pts))
    if values.dtype.kind not in "biuf" or values.shape not in ((), pts.shape[:-1]):
        raise DomainError(f"f must return one real value per point of shape {pts.shape[:-1]} "
                          f"or one for all, got shape {values.shape}, dtype {values.dtype}")
    values = values.astype(float, copy=False)
    return (values if values.ndim else np.full(pts.shape[:-1], values)).reshape(shape)


@lru_cache(maxsize=64, typed=True)
def _analysis_axis(alpha: float, degree: int):
    """The nodes of analyze's rule on an axis of type alpha where some row w L_k / ||L_k||^2
    = psi_0 psi_k / (||L_k|| sum_j psi_j^2), k <= degree, is nonzero, and those rows."""
    rule = gauss_laguerre_rule(alpha, max(2 * degree + 8, 24))
    live, psi, _ = _laguerre_functions(alpha, len(rule.nodes), rule.nodes)
    inv_norm = np.cumprod(np.append(1.0, (1.0 + alpha / np.arange(1.0, degree + 1)) ** -0.5))
    rows = psi[:degree + 1] * (psi[0] / np.einsum("ij,ij->j", psi, psi)) * inv_norm[:, None]
    nodes, rows = rule.nodes[live][kept := rows.any(axis=0)], rows[:, kept]
    nodes.flags.writeable = rows.flags.writeable = False
    return nodes, rows


def analyze(f, params: MultiIndexParams, degree: int) -> LaguerreExpansion:
    """Forward Laguerre transform by tensor Gauss-Laguerre quadrature on
    max(2 degree + 8, 24) nodes per axis.

    c_k = (integral of f * L_k^alpha d mu_alpha) / ||L_k^alpha||^2.
    Exact (to rounding) when f is a polynomial of low enough degree.
    f is called as call_on_points describes, only where a row of _analysis_axis is nonzero, and
    returns one finite value per point or one for all, else DomainError; its values are contracted
    one axis at a time with the rows.  Round trips hold to 1e-11 to degree 300, overflow from ~325.
    """
    axes = [_analysis_axis(a, degree) for a in params.alpha]
    sums = call_on_points(f, params, tuple(nodes for nodes, _ in axes))
    if not np.isfinite(sums).all():
        raise DomainError(f"f must be finite at the {sums.size} grid points")
    for _, rows in axes:  # the leading axis is the next grid axis
        sums = np.tensordot(sums, rows, (0, 1))
    return LaguerreExpansion(params, degree, sums[tuple(_layout(params.d, degree)[3])])


def synthesize(e: LaguerreExpansion, x) -> float:
    """Evaluate sum_k c_k L_k^alpha(x) at a single point x in (0, inf)^d
    (a tuple, list or array of d numbers; one number when d = 1)."""
    return float(_synthesize(e, e.vector, np.array([e.params.point(x)]))[0])


def synthesize_many(e: LaguerreExpansion, xs) -> np.ndarray:
    """synthesize at each of m points: xs of shape (m, d), or (m,) when d = 1.
    Any other shape, or a coordinate that is not finite and > 0, raises
    DomainError."""
    try:
        pts = np.asarray(xs)
    except ValueError:  # a ragged nesting
        pts = None
    pts = check_above("points", pts)
    d = e.params.d
    if pts.ndim == 1 and d == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DomainError(f"points must have shape (m, {d}), got shape {pts.shape}")
    return _synthesize(e, e.vector, pts)


#: float64 values of the intermediate of one block of scattered points
#: (256 KiB: it stays in cache)
_BLOCK_VALUES = 1 << 15


@lru_cache(maxsize=64)
def _steps(d: int, degree: int) -> tuple:
    """The contraction of the k axes, one step per axis: (order, spans) for
    q = d, ..., 1 axes left.

    The coefficients of q axes arrive in graded order (enumerate_indices).
    order (None where it changes nothing) gathers them into k-major order:
    by the first k, then in graded order over the rest, whose |rest| <=
    degree - k is a prefix of the graded indices of q - 1 axes.  spans[k]
    is (start, length) of the block whose first index is k.
    """
    steps = []
    for q in range(d, 0, -1):
        rests = _layout(q - 1, degree)[0] if q > 1 else ((),)
        lengths = [sum(1 for r in rests if sum(r) <= degree - k) for k in range(degree + 1)]
        position = _layout(q, degree)[2]
        order = np.array([position[(k,) + r] for k, m in enumerate(lengths) for r in rests[:m]])
        order.flags.writeable = False
        starts = np.cumsum([0] + lengths[:-1]).tolist()
        in_place = bool((order == np.arange(order.size)).all())
        steps.append((None if in_place else order, tuple(zip(starts, lengths))))
    return tuple(steps)


def _synthesize(e: LaguerreExpansion, coeffs: np.ndarray, xs) -> np.ndarray:
    """sum_k c_k L_k^alpha at the points xs for coefficients in e's index order.

    coeffs is one vector, shape (ncoef,), giving shape (m,), or a stack of T
    vectors as columns, shape (ncoef, T), giving shape (T, m).  xs is an
    (m, d) array of checked points, or a tuple of d per-axis node arrays:
    the tensor grid of their product, m points in C order, the last axis
    fastest.  The k axes are contracted one at a time (_contract).
    Scattered points go through in blocks.  The value at a point is the
    same, bit for bit, whichever form of xs holds it and whichever column of
    a stack holds its coefficients.
    """
    steps = _steps(e.params.d, e.degree)
    stack = coeffs.reshape(len(coeffs), -1)
    if isinstance(xs, tuple):
        tables = [laguerre_rows(e.degree, a, x) for a, x in zip(e.params.alpha, xs)]
        out = _contract(stack, steps, tables, tensor=True)
    else:
        tables = [laguerre_rows(e.degree, a, x) for a, x in zip(e.params.alpha, xs.T)]
        width = steps[0][1][0][1]  # the values per column and point after the first axis
        block = max(1, _BLOCK_VALUES // (width * stack.shape[1]))
        out = [_contract(stack, steps, [t[:, i:i + block] for t in tables], tensor=False)
               for i in range(0, len(xs), block)]
        out = out[0] if len(out) == 1 else np.concatenate(out, axis=-1)
    return out.reshape(coeffs.shape[1:] + (-1,))


def _contract(a: np.ndarray, steps, tables, tensor: bool) -> np.ndarray:
    """Sum a's coefficients against the Laguerre tables, one k axis at a time:
    step j takes a_j[rest] = sum over k = 0, ..., degree - |rest| of
    a_(j-1)[k, rest] * tables[j][k], k ascending.

    The first axis's product is an outer product over its points.  On a
    tensor grid every axis's is, over that axis's nodes; on scattered points
    the later ones run along the shared point axis.  Each point thus takes
    the same products and sums in either form.
    """
    for j, ((order, spans), rows) in enumerate(zip(steps, tables)):
        if order is not None:
            a = a[order]
        if tensor or j == 0:
            a = a[..., None]
        if j == len(tables) - 1:  # one entry per k
            acc = a[0] * rows[0]
            for a_k, row in zip(a[1:], rows[1:]):
                acc += a_k * row
        else:
            acc = a[:spans[0][1]] * rows[0]
            for (i, m), row in zip(spans[1:], rows[1:]):
                part = acc[:m]
                part += a[i:i + m] * row
        a = acc
    return a


def random_expansion(
    params: MultiIndexParams, degree: int, seed: int
) -> LaguerreExpansion:
    """Seeded expansion with coefficients uniform in [-1, 1] on |k| <= degree."""
    check_integer(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    return LaguerreExpansion(
        params, degree, rng.uniform(-1.0, 1.0, len(_layout(params.d, degree)[0])))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def expansion_to_json(e: LaguerreExpansion) -> str:
    """Serialize to the documented JSON schema with 17-significant-digit floats."""
    coeff_items = ",".join(
        '{"k":[%s],"c":%s}' % (",".join(str(v) for v in k), _fmt(c))
        for k, c in sorted(e.coeffs.items())
    )
    alpha = ",".join(_fmt(a) for a in e.params.alpha)
    return '{"d":%d,"alpha":[%s],"N":%d,"coeffs":[%s]}' % (
        e.params.d,
        alpha,
        e.degree,
        coeff_items,
    )


def expansion_from_json(text: str) -> LaguerreExpansion:
    """The expansion of expansion_to_json's schema; DomainError for any other text."""
    try:  # a JSONDecodeError is a ValueError
        obj = json.loads(text)
        d, degree = check_integer(obj["d"], 1, "d"), check_integer(obj["N"], 0, "N")
        alpha, coeffs = tuple(obj["alpha"]), {}
        for item in obj["coeffs"]:
            k = tuple(check_integer(v, 0, "an index entry") for v in item["k"])
            if k in coeffs:
                raise DomainError(f"index {k} is given twice")
            coeffs[k] = float(item["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"not an expansion document: {exc!r}") from exc
    return LaguerreExpansion(MultiIndexParams(d=d, alpha=alpha), degree, coeffs)
