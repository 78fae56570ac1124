"""Finite Laguerre expansions and exact spectral operator action.

Coefficients live in the non-normalized basis {L_k^alpha}.  An expansion of
degree N stores them as one read-only vector over every multi-index with
|k| <= N, in enumerate_indices order, beside the vector of orders |k|.
Every diagonal operator multiplies c_k by its symbol m(param, |k|); the six
symbols and their zero-mean requirements are stated once, in OPERATORS.
Synthesis builds the per-axis Laguerre tables once per call, for one
coefficient vector or for a stack of them.  This is the oracle path the
kernel/quadrature implementations are checked against.
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
from .specfun import gauss_laguerre_rule, laguerre_rows

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
    """(indices, orders, position) of the coefficient vector for (d, degree).
    Typed, so a float degree misses the cache and reaches the check."""
    check_integer(degree, 0, "degree")
    indices = tuple(sorted(
        (k for k in itertools.product(range(degree + 1), repeat=d) if sum(k) <= degree),
        key=lambda k: (sum(k), k),
    ))
    orders = np.array([sum(k) for k in indices])
    orders.flags.writeable = False
    return indices, orders, {k: i for i, k in enumerate(indices)}


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
        indices, orders, position = _layout(params.d, degree)
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
        """The expansion with c_k replaced by factors[i] c_k (factors in index order)."""
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


def tensor_grid(nodes, weights):
    """(points (M, d), weights (M,)) of the tensor product of per-axis rules.

    Points run in C order over the axes, the last axis fastest.
    """
    if len(nodes) == 1:  # skips meshgrid's copies on every heat-kernel application
        return np.asarray(nodes[0], dtype=float)[:, None], np.asarray(weights[0])
    w = weights[0]
    for wj in weights[1:]:
        w = np.multiply.outer(w, wj)
    # one copy, stored axis by axis: each coordinate column handed to f is contiguous
    grids = np.array(np.meshgrid(*nodes, indexing="ij", copy=False))
    return grids.reshape(len(nodes), -1).T, w.ravel()


def call_on_points(f, pts) -> np.ndarray:
    """f at points of shape (..., d): f takes the coordinate itself when d = 1."""
    pts = np.asarray(pts, dtype=float)
    return np.asarray(f(pts[..., 0] if pts.shape[-1] == 1 else pts), dtype=float)


def analyze(f, params: MultiIndexParams, degree: int) -> LaguerreExpansion:
    """Forward Laguerre transform by tensor Gauss-Laguerre quadrature on
    max(2 degree + 8, 24) nodes per axis.

    c_k = (integral of f * L_k^alpha d mu_alpha) / ||L_k^alpha||^2.
    Exact (to rounding) when f is a polynomial of low enough degree.
    f is called as call_on_points describes.  Its values on the grid are
    contracted one axis at a time with that axis's weighted Laguerre rows.
    """
    rules = [gauss_laguerre_rule(a, max(2 * degree + 8, 24)) for a in params.alpha]
    pts, _ = tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    sums = np.broadcast_to(call_on_points(f, pts), len(pts)).reshape([len(r.nodes) for r in rules])
    for r, a in zip(rules, params.alpha):  # the leading axis is the next grid axis
        sums = np.tensordot(sums, laguerre_rows(degree, a, r.nodes) * r.weights, (0, 1))
    indices = np.array(_layout(params.d, degree)[0]).T
    return LaguerreExpansion(
        params, degree, sums[tuple(indices)] / basis_norm_sq(indices, params))


def synthesize(e: LaguerreExpansion, x) -> float:
    """Evaluate sum_k c_k L_k^alpha(x) at a single point x in (0, inf)^d."""
    xt = np.atleast_1d(np.asarray(x, dtype=float))
    if xt.shape != (e.params.d,):
        raise DomainError(f"point must have {e.params.d} coordinates")
    return float(synthesize_many(e, xt)[0])


def synthesize_many(e: LaguerreExpansion, xs: np.ndarray) -> np.ndarray:
    """Vectorized synthesize over points; xs shape (m,) for d=1 or (m, d)."""
    return _synthesize(e, e.vector, xs)


def _synthesize(e: LaguerreExpansion, coeffs: np.ndarray, xs) -> np.ndarray:
    """sum_k c_k L_k^alpha at the points xs for coefficients in e's index order.

    coeffs is one vector, shape (ncoef,), giving shape (m,), or a stack of T
    vectors as columns, shape (ncoef, T), giving shape (T, m).  The per-axis
    tables are built once for the whole stack.  Each term is
    ((c_k L_k0) L_k1) ..., added in index order; rows of coeffs that are
    zero throughout are skipped.
    """
    pts = np.asarray(xs, dtype=float).reshape(-1, e.params.d)
    tables = [laguerre_rows(e.degree, a, pts[:, j]) for j, a in enumerate(e.params.alpha)]
    if coeffs.ndim == 1:
        rows = live = coeffs.tolist()  # a float is false exactly when it is zero
    else:
        rows, live = coeffs[:, :, None], coeffs.any(axis=1)
    total = np.zeros(coeffs.shape[1:] + pts.shape[:1])
    term = np.empty_like(total)
    for c, k, keep in zip(rows, e.indices, live):
        if not keep:
            continue
        np.multiply(c, tables[0][k[0]], out=term)
        for j in range(1, e.params.d):
            term *= tables[j][k[j]]
        total += term
    return total


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
    obj = json.loads(text)
    params = MultiIndexParams(d=int(obj["d"]), alpha=tuple(obj["alpha"]))
    coeffs = {tuple(item["k"]): float(item["c"]) for item in obj["coeffs"]}
    return LaguerreExpansion(params, int(obj["N"]), coeffs)
