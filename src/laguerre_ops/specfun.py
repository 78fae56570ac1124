"""Scalar special functions and quadrature rules.

Everything downstream consumes these: Gamma, the log of the exponentially
scaled modified Bessel function I_nu (from scipy.special.ive, with a
log-space ascending series where ive underflows and the large-argument
expansion past ive's range), Laguerre polynomials (every degree up to N
in one recurrence pass), Gauss-Laguerre rules normalized against the
Laguerre probability measure mu_alpha (density x^alpha e^-x / Gamma(alpha+1)
per axis), and the Gauss-Jacobi rule for the weight eta^a on (0, 1) that
every power-law endpoint of the kernel and time integrals is integrated with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, ive, kve, logsumexp, roots_genlaguerre

from .errors import DomainError, PoleError, QuadratureError

__all__ = [
    "QuadratureRule",
    "gamma",
    "log_gamma",
    "log_bessel_i_scaled",
    "laguerre_poly",
    "laguerre_rows",
    "gauss_laguerre_rule",
    "gauss_jacobi_rule",
]


#: terms of the ascending series taken past the order m at which the term
#: ratio (z/2)^2 / (m (m + nu)) falls below 1/2 at the largest z of a call:
#: from there each term is at most half the last, so the dropped tail is
#: below 2^-59 of the sum.
SERIES_TAIL = 60
SERIES_BLOCK = 128

#: Amos's routines return nan above z = (2^31 - 1) / 2.  Beyond this bound
#: the terms of the large-argument expansion shrink by (4 nu^2) / (8 z) per
#: step, so six of them reach double precision for any order below 1e3.
IVE_Z_MAX = 1e9
HANKEL_TERMS = 6

_TINY = np.finfo(float).tiny


def gamma(x: float) -> float:
    """Gamma function; raises PoleError at 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at x={x}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (overflow-safe norm ratios need this)."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _log_series(nu: float, z: np.ndarray) -> np.ndarray:
    # All series terms are positive for nu > -1, z > 0: logsumexp is exact
    # in the sense that no cancellation occurs.  Terms are summed SERIES_BLOCK
    # at a time, so memory stays bounded at large orders.
    z_max = float(np.max(z))
    m_half = 0.5 * (math.sqrt(nu * nu + 2.0 * z_max * z_max) - nu)
    with np.errstate(divide="ignore"):
        log_half_z = np.atleast_1d(np.log(z) - math.log(2.0))
    out = np.full(log_half_z.shape, -math.inf)
    terms = math.ceil(m_half) + SERIES_TAIL
    for start in range(0, terms, SERIES_BLOCK):
        m = np.arange(start, min(start + SERIES_BLOCK, terms), dtype=float)
        log_fact = gammaln(m + 1.0) + gammaln(m + nu + 1.0)
        exps = (2.0 * m[:, None] + nu) * log_half_z[None, :] - log_fact[:, None]
        out = np.logaddexp(out, logsumexp(exps, axis=0))
    return out.reshape(np.shape(z))


def _log_hankel(nu: float, z: np.ndarray) -> np.ndarray:
    # I_nu(z) e^{-z} ~ (2 pi z)^{-1/2} sum_k (-1)^k a_k(nu) / z^k with
    # a_k / a_{k-1} = (4 nu^2 - (2k - 1)^2) / (8 k)
    mu = 4.0 * nu * nu
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, HANKEL_TERMS + 1):
        term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
    return np.log(total) - 0.5 * np.log(2.0 * math.pi * z)


def _ive(nu: float, z: np.ndarray) -> np.ndarray:
    if nu > -_TINY:
        # a subnormal order is zero to double precision, and Amos's K
        # routine fails on one
        return ive(max(nu, 0.0), z)
    # I_nu = I_v + (2/pi) sin(v pi) K_v with v = -nu.  ive applies this
    # reflection with sin(pi nu), which loses every digit as nu -> -1;
    # sin((1 - v) pi) keeps them, since 1 - v is exact for v >= 1/2.  The
    # K term is below 2 e^(-2z) times ive, under half an ulp from z = 20 on.
    v = -nu
    out = ive(v, z)
    near = z < 20.0
    k_term = kve(v, z[near]) * np.exp(-2.0 * z[near])
    out[near] += (2.0 / math.pi) * math.sin(math.pi * min(v, 1.0 - v)) * k_term
    return out


def log_bessel_i_scaled(nu: float, z):
    """log(I_nu(z) e^{-z}) for nu > -1, z >= 0.

    Computed as log(ive(nu, z)) (Amos, ACM TOMS 644), with negative
    orders reflected to positive ones here.  Where that value leaves the
    normal double range (tiny z with large nu, or subnormal z) the
    log-space ascending series takes over; its terms are all positive.
    Above IVE_Z_MAX, where Amos's code gives up, the large-argument
    expansion is used.
    """
    if nu <= -1:
        raise DomainError(f"log_bessel_i_scaled requires nu > -1, got {nu}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0):
        raise DomainError("log_bessel_i_scaled requires z >= 0")
    big = z_arr > IVE_Z_MAX
    scaled = _ive(nu, np.where(big, 1.0, z_arr))
    with np.errstate(divide="ignore"):
        out = np.log(scaled)
    outside = ~((scaled >= _TINY) & (scaled < math.inf)) & (z_arr > 0) & ~big
    if np.any(outside):
        zu = z_arr[outside]
        out[outside] = _log_series(nu, zu) - zu
    if np.any(big):
        out[big] = _log_hankel(nu, z_arr[big])
    zero = z_arr == 0
    if np.any(zero):
        out[zero] = -math.inf if nu > 0 else (0.0 if nu == 0 else math.inf)
    out = out.reshape(np.shape(z))
    return out if np.ndim(z) else float(out)


def laguerre_rows(degree: int, alpha: float, x) -> np.ndarray:
    """L_0^alpha(x), ..., L_degree^alpha(x) as the rows of one array, in one
    pass of the upward recurrence

    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    seeded L_0 = 1, L_1 = alpha + 1 - x.
    """
    if alpha <= -1:
        raise DomainError(f"Laguerre polynomials require alpha > -1, got {alpha}")
    if degree < 0:
        raise DomainError("the degree must be a nonnegative integer")
    x_arr = np.asarray(x, dtype=float)
    rows = np.empty((degree + 1, *x_arr.shape))
    rows[0] = 1.0
    if degree:
        rows[1] = alpha + 1.0 - x_arr
    for j in range(1, degree):
        rows[j + 1] = ((2 * j + 1 + alpha - x_arr) * rows[j] - (j + alpha) * rows[j - 1]) / (j + 1)
    return rows


def laguerre_poly(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^alpha(x): the last of laguerre_rows."""
    p = laguerre_rows(k, alpha, x)[-1]
    return p if np.ndim(x) else float(p)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a weighted quadrature rule on (0, inf) or (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise DomainError("nodes and weights must have equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_laguerre_rule(alpha: float, n: int) -> QuadratureRule:
    """Gauss rule for the single-factor Laguerre probability measure.

    Nodes are the roots of L_n^alpha; weights are normalized so that they
    sum to 1 (mu_alpha is a probability measure).  Exact for polynomials of
    degree <= 2n - 1.  Rules are solved once per (alpha, n) and shared, so
    their arrays are read-only.
    """
    if alpha <= -1:
        raise DomainError(f"gauss_laguerre_rule requires alpha > -1, got {alpha}")
    if n < 1:
        raise DomainError("n must be a positive integer")
    return _gauss_laguerre_rule(float(alpha), n)


@lru_cache(maxsize=128)
def _gauss_laguerre_rule(alpha: float, n: int) -> QuadratureRule:
    try:
        nodes, weights = roots_genlaguerre(n, alpha)
    except Exception as exc:  # pragma: no cover - scipy signals its own failures
        raise QuadratureError(f"Gauss-Laguerre node solve failed: {exc}") from exc
    if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
        raise QuadratureError("Gauss-Laguerre node solve returned non-finite values")
    # roots_genlaguerre weights integrate against x^alpha e^-x dx; divide by
    # Gamma(alpha+1) to target the probability measure.
    weights = weights / math.gamma(alpha + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, exact_degree=2 * n - 1)


@lru_cache(maxsize=256)
def gauss_jacobi_rule(a: float, n: int) -> QuadratureRule:
    """Gauss rule for int_0^1 eta^a g(eta) d eta, a > -1 (Golub-Welsch),
    exact for polynomials g of degree <= 2n - 1.  The Jacobi matrix is taken
    in eta, not in xi = 2 eta - 1 (scipy.special.roots_jacobi), so nodes and
    weights near eta = 0 keep full relative precision down to a = -0.99.
    Rules are solved once per (a, n) and shared, so their arrays are read-only.
    """
    if a <= -1 or n < 1:
        raise DomainError(f"gauss_jacobi_rule requires a > -1 and n >= 1, got {a}, {n}")
    k = np.arange(1.0, n)
    c = 2.0 * k + a
    diag = (2.0 * k * (k + a + 1.0) + a * (a + 1.0)) / (c * (c + 2.0))
    off = k * (k + a) / (c * np.sqrt((c + 1.0) * (2.0 * k - 1.0 + a)))
    nodes, vec = eigh_tridiagonal(np.append((a + 1.0) / (a + 2.0), diag), off)
    weights = vec[0] ** 2 / (a + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, exact_degree=2 * n - 1)
