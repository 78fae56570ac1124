"""Scalar special functions and quadrature rules.

Everything downstream consumes these: Gamma, the log of the exponentially
scaled modified Bessel function I_nu (the closed form at nu = +-1/2; else the
ascending series below a bound z_s(nu), the large-argument expansion from a
bound z_h(nu) on, scipy.special.iv times e^-z between, Amos's ive between
z = 700 and z_h, and a log-space ascending series where the value leaves the
normal range), Laguerre polynomials (every degree up to N in one recurrence
pass), and Gauss rules from Jacobi matrices (Golub-Welsch): for the Laguerre
probability measure mu_alpha (density x^alpha e^-x / Gamma(alpha+1) per axis;
one recurrence gives its Newton step, its weights and analyze's rows), for the
weight eta^a on (0, 1) of every power-law endpoint of the kernel and time
integrals, and the Gauss-Kronrod rule of the subordination integrals.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.special import gammaln, iv, ive, logsumexp, rgamma

from .errors import DomainError, PoleError, check_above, check_integer

__all__ = [
    "QuadratureRule",
    "gamma",
    "log_bessel_i_scaled",
    "laguerre_poly",
    "laguerre_rows",
    "gauss_laguerre_rule",
    "gauss_jacobi_rule",
    "gauss_kronrod_rule",
]


#: terms of the ascending series taken past the order m at which the term
#: ratio (z/2)^2 / (m (m + nu)) falls below 1/2 at the largest z of a call:
#: from there each term is at most half the last, so the dropped tail is
#: below 2^-59 of the sum.
SERIES_TAIL = 60
SERIES_BLOCK = 128

#: Amos's routines return nan above z = (2^31 - 1) / 2; past it the
#: large-argument expansion takes every z, even below z_h(nu)
IVE_Z_MAX = 1e9
HANKEL_TERMS = 12
ASCENDING_TERMS = 20  # terms k = 0, ..., 19 of the ascending series below z_s(nu)
IV_Z_MAX = 700.0  # iv(nu, z) is finite and e^-z normal up to here

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_LOG_2PI = math.log(2.0 * math.pi)


def gamma(x: float) -> float:
    """Gamma function; raises PoleError at 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at x={x}")
    return math.gamma(x)


def _log_series(nu: float, z: np.ndarray) -> np.ndarray:
    # All series terms are positive for nu > -1, z > 0: logsumexp is exact
    # in the sense that no cancellation occurs.  Terms are summed SERIES_BLOCK
    # at a time, so memory stays bounded at large orders.
    z_max = float(np.max(z))
    root = math.hypot(nu, math.sqrt(2.0) * z_max)  # no nu^2 to overflow
    m_half = 0.5 * (root - nu) if nu < 0 else z_max * z_max / (root + nu)  # no cancellation
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


@lru_cache(maxsize=256)
def _hankel(nu: float):
    """z_h(nu) and c_K, ..., c_1 of I_nu(z) e^-z ~ (2 pi z)^(-1/2) (1 + sum_k c_k
    z^-k), c_k / c_(k-1) = -(4 nu^2 - (2k - 1)^2) / (8k) (DLMF 10.40.1), at
    HANKEL_TERMS terms less trailing zeros.  z_h is the least z >= 20 (e^-2z below
    eps/4) at which the first dropped term is below eps/4, at most IVE_Z_MAX.
    The c_k are 0-d arrays, which a ufunc reads without converting a float."""
    mu, c = 4.0 * nu * nu, [1.0]
    for k in range(1, HANKEL_TERMS + 2):
        c.append(-c[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    z_h = max(20.0, (4.0 * abs(c.pop()) / _EPS) ** (1.0 / (HANKEL_TERMS + 1)))
    while c[-1] == 0.0:  # half-integer orders end the series
        c.pop()
    coeffs = tuple(map(np.array, c[:0:-1]))
    for a in coeffs:  # shared by every call at nu
        a.flags.writeable = False
    return min(z_h, IVE_Z_MAX), coeffs


def _log_hankel(coeffs, z: np.ndarray) -> np.ndarray:
    log_front = 0.5 * (np.log(z) + _LOG_2PI)  # no 2 pi z to overflow
    if not coeffs:  # nu = +-1/2: the series is 1, and log_front > 0 at z >= 20
        return -log_front
    w = np.reciprocal(z)
    s = coeffs[0] * w
    for c in coeffs[1:]:  # Horner in 1/z, in place (a positional out is the cheaper call)
        np.add(s, c, s)
        np.multiply(s, w, s)
    return np.log1p(s) - log_front


@lru_cache(maxsize=256)
def _ascending(nu: float):
    """z_s(nu) and a_(K-1), ..., a_0 of I_nu(z) = (z/2)^nu sum_k a_k t^k, t = z^2 / 4,
    a_k = 1 / (k! Gamma(nu + k + 1)) (DLMF 10.25.2), at K = ASCENDING_TERMS terms;
    the a_k carry the 4^-k of t, so Horner reads z^2.  z_s is the z below which
    the first dropped term is below eps/4 of the first, so of the sum; it is 0
    where a_(K-1) 4^(1-K) is not normal (nu from about 138.5), so every kept term
    keeps its digits.  The a_k are read-only 0-d arrays, as _hankel's are."""
    c = [1.0]  # c_k = a_k / a_0
    for k in range(1, ASCENDING_TERMS + 1):
        c.append(c[-1] / (k * (nu + k)))
    a_0 = float(rgamma(nu + 1.0))
    a = [math.ldexp(a_0 * c[k], -2 * k) for k in range(ASCENDING_TERMS)]
    z_s = 2.0 * (0.25 * _EPS / c[-1]) ** (0.5 / ASCENDING_TERMS) if a[-1] >= _TINY else 0.0
    coeffs = tuple(map(np.array, a[::-1]))
    for a in coeffs:
        a.flags.writeable = False
    return z_s, coeffs


def _scaled_ascending(nu: float, coeffs, z: np.ndarray, z_min: float) -> np.ndarray:
    """I_nu(z) e^-z from the ascending series, in linear space as iv works: a sum
    of logs would lose digits where log (z/2)^nu and log Gamma(nu + 1) cancel."""
    t = z * z
    s = coeffs[0] * t
    for a in coeffs[1:-1]:  # Horner in t, in place, as in _log_hankel
        np.add(s, a, s)
        np.multiply(s, t, s)
    np.add(s, coeffs[-1], s)
    if nu:  # at nu = 0 no power, so z = 0 gives I_0(0) = 1
        # z/2 = 0 (z = 0 or 5e-324) gives 0 at nu > 0 and inf at nu < 0, and a
        # subnormal z/2 may overflow at nu < 0: _log_below takes those points
        with np.errstate(divide="ignore", over="ignore") if 0.5 * z_min < _TINY else nullcontext():
            s *= np.power(0.5 * z, nu)
    s *= np.exp(-z)
    return s


def _log_half_order(nu: float, z: np.ndarray, z_min: float) -> np.ndarray:
    # I_(1/2)(z) e^-z = (1 - e^-2z) / sqrt(2 pi z), I_(-1/2)(z) e^-z = (1 + e^-2z) / sqrt(2 pi z)
    # (DLMF 10.39.1); from z ~ 19 on, e^-2z vanishes beside the front: _log_hankel's bits
    with np.errstate(divide="ignore", invalid="ignore") if z_min == 0 else nullcontext():
        out = np.log(-np.expm1(-2.0 * z)) if nu > 0 else np.log1p(np.exp(-2.0 * z))
        out -= 0.5 * (np.log(z) + _LOG_2PI)
    if z_min == 0:
        out[z == 0] = -math.inf if nu > 0 else math.inf  # the limits at z = 0
    return out


def _log_below(nu: float, z: np.ndarray, z_h: float, z_min: float) -> np.ndarray:
    if z_h > IV_Z_MAX and (mid := z > IV_Z_MAX).any():
        scaled, below = np.empty_like(z), ~mid
        scaled[mid] = ive(nu, z[mid])
        low = z[below]
        scaled[below] = iv(nu, low) * np.exp(-low)
    else:
        scaled = iv(nu, z)
        scaled *= np.exp(-z)
    # from z = _TINY on, I_nu(z) e^-z < 1e305 and iv fails only with nan
    if z_min >= _TINY and scaled.min(initial=math.inf) >= _TINY:
        return np.log(scaled)
    with np.errstate(divide="ignore"):
        out = np.log(scaled)
    outside = ~((scaled >= _TINY) & (scaled < math.inf)) & (z > 0)
    if np.any(outside):
        zu = z[outside]
        out[outside] = _log_series(nu, zu) - zu
    return out  # at z = 0, iv gives the limits 0, 1 and inf


def _log_by_band(nu: float, z: np.ndarray, z_min: float) -> np.ndarray:
    z_h, coeffs = _hankel(nu)
    if z_min >= z_h:
        return _log_hankel(coeffs, z)
    z_s, terms = _ascending(nu)
    if z_min >= z_s:  # no series point
        if not np.count_nonzero(high := z >= z_h):  # the cheaper reduction
            return _log_below(nu, z, z_h, z_min)
        out, rest = np.empty_like(z), ~high
    else:
        small = z < min(z_s, z_h)
        whole = np.count_nonzero(small) == small.size
        scaled = _scaled_ascending(nu, terms, z if whole else z[small], z_min)
        normal = scaled.min() >= _TINY and (nu >= 0 or scaled.max() < math.inf)  # <= 1 at nu >= 0
        if normal and whole:
            return np.log(scaled)
        out, high = np.empty_like(z), z >= z_h
        rest = ~(small | high)
        with nullcontext() if normal else np.errstate(divide="ignore"):
            out[small] = np.log(scaled).ravel()
        if not normal:  # where I_nu(z) e^-z leaves the normal range, _log_below takes the point
            rest[small] = ~((scaled >= _TINY) & (scaled < math.inf)).ravel()
    if np.count_nonzero(high):
        out[high] = _log_hankel(coeffs, z[high])
    if np.count_nonzero(rest):
        out[rest] = _log_below(nu, z[rest], z_h, z_min)
    return out


def log_bessel_i_scaled(nu: float, z):
    """log(I_nu(z) e^{-z}) for a finite nu > -1 and z >= 0 (z = inf gives -inf).

    At nu = +-1/2 the closed form takes every z (a call whose z all lie past
    z_h = 20 reads the expansion's front, the same bits).  Otherwise z alone picks a
    point's branch: below z_s(nu) (_ascending; 6.4 at nu = -1/4, 7.5 at 2,
    none from nu ~ 138.5) the ascending series in linear space; from z_h(nu) on
    (_hankel; 37 at nu = -1/4, 890 at 25) and past IVE_Z_MAX (to eps up to
    nu = 2.5e4) the large-argument expansion; between, scipy's iv(nu, z) e^-z
    to IV_Z_MAX and Amos's ive past it.  A point whose series value leaves the
    normal range (tiny z with large nu, or subnormal z) joins that band's one
    call (_log_below), where the log-space series takes any iv value out of it.
    """
    if not -1 < nu < math.inf:
        raise DomainError(f"log_bessel_i_scaled requires a finite nu > -1, got {nu}")
    # a float array of at least one dimension is read as it is
    array = type(z) is np.ndarray and z.dtype == np.float64 and z.ndim
    z_arr = z if array else np.atleast_1d(np.asarray(z, dtype=float))
    z_min = z_arr.min(initial=math.inf)
    if not z_min >= 0:
        raise DomainError("log_bessel_i_scaled requires z >= 0, not nan")
    if (nu == 0.5 or nu == -0.5) and z_min < _hankel(nu)[0]:  # the same bits from z_h = 20 on
        out = _log_half_order(nu, z_arr, z_min)
    else:
        out = _log_by_band(nu, z_arr, z_min)
    return out if np.ndim(z) else float(out[0])


def laguerre_rows(degree: int, alpha: float, x) -> np.ndarray:
    """L_0^alpha(x), ..., L_degree^alpha(x) as the rows of one array, in one
    pass of the upward recurrence

    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    seeded L_0 = 1, L_1 = alpha + 1 - x.  DomainError where a row is not finite.
    """
    alpha = check_above("alpha", (alpha,), -1.0)[0]
    check_integer(degree, 0, "the degree")
    x = np.asarray(x, dtype=float)
    rows = np.empty((degree + 1, *x.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan stays: the last row tells
        rows[0], rows[1:2] = 1.0, alpha + 1.0 - x  # rows[1:2] is empty at degree 0
        for j in range(1, degree):
            rows[j + 1] = ((2 * j + 1 + alpha - x) * rows[j] - (j + alpha) * rows[j - 1]) / (j + 1)
    if not np.isfinite(rows[-1]).all():
        raise DomainError(f"L_k^alpha(x) is not finite at degree {degree}, largest x {np.max(x)}")
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

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise DomainError("nodes and weights must have equal length")
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_laguerre_rule(alpha: float, n: int) -> QuadratureRule:
    """Gauss rule for the Laguerre probability measure mu_alpha, exact to degree 2n - 1
    (Golub-Welsch): the eigenvalues of its Jacobi matrix, each polished by one Newton step, and
    the Christoffel weights psi_0^2 / sum_(k<n) psi_k^2 of _laguerre_functions (0 at a node it
    leaves out).  Rules are solved once per (alpha, n) and shared, so they are read-only."""
    alpha = check_above("alpha", (alpha,), -1.0)[0]
    check_integer(n, 1, "n")
    return _gauss_laguerre_rule(alpha, n)


@lru_cache(maxsize=128)
def _gauss_laguerre_rule(alpha: float, n: int) -> QuadratureRule:
    k = np.arange(n, dtype=float)
    nodes = eigvalsh_tridiagonal(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)),
                                 lapack_driver="sterf")
    live, _, step = _laguerre_functions(alpha, n, nodes)
    nodes[live] -= step
    live, psi, _ = _laguerre_functions(alpha, n, nodes)
    weights = np.zeros(n)
    weights[live] = psi[0] ** 2 / np.einsum("ij,ij->j", psi, psi)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def _log_mu(alpha, x, log_x):
    """log of mu_alpha's density x^alpha e^-x / Gamma(alpha + 1), given log x too."""
    return alpha * log_x - x - math.lgamma(alpha + 1.0)


def _laguerre_functions(alpha: float, n: int, x: np.ndarray):
    """(live, psi, step): psi_k = sqrt(rho binom(k + alpha, k)) p_k, k < n, the Laguerre
    functions orthonormal in L^2(0, inf), at x[live], and the Newton step x p_n / (n d_n) =
    L_n / L_n', by scipy's difference form d <- (k d - x p) / (k + alpha + 1), p <- p + d of
    p_k = L_k^alpha / binom(k + alpha, k); points where sqrt(rho) < e^-1000 are left out."""
    log_seed = 0.5 * _log_mu(alpha, x, np.log(x))  # log sqrt(rho)
    live = log_seed >= -1000.0  # elsewhere every weight and analysis row rounds to 0
    x, psi, v = x[live], np.empty((n + 1, live.sum())), np.zeros(live.sum())  # v: d, in psi's units
    np.exp(np.maximum(log_seed[live], -700.0), psi[0])  # held at e^-700: a factor no ratio sees
    k = np.arange(n, dtype=float)[:, None]
    factors = np.hstack([k ** 0, k, k + alpha + 1.0]) / np.sqrt((k + alpha + 1.0) * (k + 1.0))
    for u, u_next, cx, (_, kc, rc) in zip(psi[:-1], psi[1:], factors[:, :1] * x, factors.tolist()):
        v *= kc  # in place: the loop's cost is its array calls
        v -= cx * u
        np.multiply(u, rc, u_next)
        u_next += v
    return live, psi[:-1], x * psi[-1] / (n * v)


def gauss_jacobi_rule(a: float, n: int) -> QuadratureRule:
    """Gauss rule for int_0^1 eta^a g(eta) d eta, a > -1 (Golub-Welsch),
    exact for polynomials g of degree <= 2n - 1.  The Jacobi matrix is taken
    in eta, not in xi = 2 eta - 1 (scipy.special.roots_jacobi), so nodes and
    weights near eta = 0 keep full relative precision down to a = -0.99.
    Each call solves its rule; the callers cache the rules they derive from it.
    """
    a = check_above("a", (a,), -1.0)[0]
    k = np.arange(1.0, check_integer(n, 1, "n"))
    c = 2.0 * k + a
    diag = (2.0 * k * (k + a + 1.0) + a * (a + 1.0)) / (c * (c + 2.0))
    off = k * (k + a) / (c * np.sqrt((c + 1.0) * (2.0 * k - 1.0 + a)))
    nodes, vec = eigh_tridiagonal(np.append((a + 1.0) / (a + 2.0), diag), off)
    return QuadratureRule(nodes=nodes, weights=vec[0] ** 2 / (a + 1.0))


@lru_cache(maxsize=8)
def gauss_kronrod_rule(n: int):
    """Nodes on [-1, 1], Kronrod weights and Gauss weights (0 off the Gauss
    nodes, the odd-indexed ones) of the 2n+1-node Kronrod extension of
    leggauss(n), whose nodes and weights it embeds as they are; exact to degree
    3n + 1 and symmetrised like them.  Built once per n in plain floats and
    shared, so the arrays are read-only."""
    check_integer(n, 1, "n")
    # Laurie (Math. Comp. 66, 1997): keep Legendre's b_k up to k = ceil(3n/2), a_k = 0
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, 2 * n + 1)]
    s, t = [0.0] * (n // 2 + 2), [0.0, b[n + 1]] + [0.0] * (n // 2)
    for m in range(n - 1):
        acc = 0.0
        for j in range((m + 1) // 2, -1, -1):
            acc = s[j + 1] = acc + (b[j + n + 1] * s[j] - b[m - j] * s[j + 1])
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0.0
        for j in range(n - m + (m - 1) // 2):
            acc = s[j + 1] = acc + (b[n - 1 - j] * s[j + 2] - b[j + m + 2] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    nodes, vec = eigh_tridiagonal([0.0] * (2 * n + 1), [math.sqrt(v) for v in b[1:]])
    x, wk, wg = 0.5 * (nodes - nodes[::-1]), vec[0] ** 2 + vec[0, ::-1] ** 2, np.zeros(2 * n + 1)
    x[1::2], wg[1::2] = leggauss(n)
    x.flags.writeable = wk.flags.writeable = wg.flags.writeable = False
    return x, wk, wg
