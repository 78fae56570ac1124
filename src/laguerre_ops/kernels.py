"""Pointwise heat and Poisson kernels plus quadrature-based semigroup action.

All kernel formulas are evaluated in log space, with the Bessel factor
taken from specfun.log_bessel_i_scaled (scipy.special.ive, with a
log-series fallback where ive underflows; see specfun).  The Poisson kernel is
computed through the one-sided stable-1/2 subordination weight

    g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2},

whose Laplace transform in s is e^{-t sqrt(n)}: the substitution s = -log r
turns the unit-interval kernel integral into an integral of g against the
heat kernel on (0, inf).  Time derivatives differentiate g analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import DomainError, OverflowGuardError, QuadratureError
from .expansion import MultiIndexParams, call_on_points, tensor_grid
from .specfun import gauss_laguerre_rule, log_bessel_i_scaled

__all__ = [
    "KernelQuery",
    "SubordinationRule",
    "heat_kernel",
    "heat_apply_kernel",
    "stable_density",
    "stable_density_dt",
    "stable_tail_mass",
    "poisson_kernel",
    "poisson_kernel_dt",
    "poisson_apply",
    "poisson_dt_apply",
    "l1_kernel_derivative",
]

#: upper subordination cutoff: e^{-s} < 5e-18 for s > 40, so the heat
#: semigroup is its equilibrium mean beyond it and the tail is analytic.
S_CUTOFF = 40.0


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation request for heat/Poisson kernels."""

    params: MultiIndexParams
    t: float
    x: tuple
    y: tuple = None
    derivative_order: int = 0

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError("time t must be positive")
        x = tuple(float(v) for v in np.atleast_1d(self.x))
        if len(x) != self.params.d or any(v <= 0 for v in x):
            raise DomainError("x must be a point in (0, inf)^d")
        object.__setattr__(self, "x", x)
        if self.y is not None:
            y = tuple(float(v) for v in np.atleast_1d(self.y))
            if len(y) != self.params.d or any(v <= 0 for v in y):
                raise DomainError("y must be a point in (0, inf)^d")
            object.__setattr__(self, "y", y)
        if self.derivative_order < 0:
            raise DomainError("derivative_order must be nonnegative")


@dataclass(frozen=True)
class SubordinationRule:
    """Panel scheme for integrals in log-time over (0, inf)."""

    panels: int = 48
    order: int = 12
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_refinements: int = 4

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_RULE = SubordinationRule()


def log_mu_density(params: MultiIndexParams, y) -> float:
    """log of the mu_alpha Lebesgue density at y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = 0.0
    for a, yj in zip(params.alpha, y):
        out += a * math.log(yj) - yj - math.lgamma(a + 1.0)
    return out


def _log_heat_axis(alpha, t, x, y):
    """log of one Lebesgue heat-kernel factor H_t(x, y); t or y may be an array.

    H integrates functions of y against plain dy.  The exponent is grouped
    as -(sqrt(rx) - sqrt(y))^2 / (1-r) so that no large cancellation occurs
    for small times.
    """
    t = np.asarray(t, dtype=float)
    one_r = -np.expm1(-t)
    z = 2.0 * np.sqrt(np.exp(-t) * x * y) / one_r
    sq = (np.sqrt(np.exp(-t) * x) - np.sqrt(y)) ** 2
    return (
        -np.log(one_r)
        + 0.5 * alpha * (np.log(y) - math.log(x) + t)
        - sq / one_r
        + log_bessel_i_scaled(alpha, z)
    )


def _log_heat_lebesgue(params, t, x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = 0.0
    for j, a in enumerate(params.alpha):
        out = out + _log_heat_axis(a, t, x[j], y[j])
    return out


def heat_kernel(q: KernelQuery) -> float:
    """Heat kernel G_t(x, y) against d mu_alpha(y) (Hille-Hardy product)."""
    if q.y is None:
        raise DomainError("heat_kernel requires both x and y")
    log_g = float(
        _log_heat_lebesgue(q.params, q.t, q.x, q.y) - log_mu_density(q.params, q.y)
    )
    if abs(log_g) > 700.0:
        raise OverflowGuardError(f"heat kernel log-value {log_g} out of range")
    return math.exp(log_g)


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------

_LEGGAUSS_CACHE = {}


def _leggauss(order):
    if order not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[order] = leggauss(order)
    return _LEGGAUSS_CACHE[order]


def _panel_nodes(breaks: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each consecutive panel of `breaks`."""
    xg, wg = _leggauss(order)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes.ravel(), weights.ravel()


def _heat_axis_nodes(alpha, t, x, order=12):
    """Quadrature nodes (y_i, W_i) with sum_i W_i f(y_i) ~ int H_t(x,y) f dy.

    Works in v = sqrt(y): the kernel is a Gaussian ridge centered at
    v0 = sqrt(e^-t x) with width ~ sqrt((1-e^-t)/2), resolvable uniformly
    in t; panels are graded toward v = 0 to absorb the y^alpha endpoint.
    """
    one_r = -math.expm1(-t)
    v0 = math.sqrt(math.exp(-t) * x)
    sig = math.sqrt(one_r / 2.0)
    bumps = v0 + sig * np.arange(-12.0, 16.5, 1.0)
    bumps = bumps[bumps > 0]
    if len(bumps) == 0 or bumps[0] < sig:
        # a panel whose distance to v = 0 is below its width resolves the
        # v^(2 alpha + 1) factor poorly; grade geometrically up to sig
        graded = sig * 2.0 ** (-np.arange(30.0, 0.0, -1.0))
        breaks = np.concatenate(([0.0], graded, [sig], bumps[bumps >= sig]))
    else:
        breaks = bumps
    v, pw = _panel_nodes(np.unique(breaks), order)
    y = v * v
    return y, np.exp(np.log(pw * 2.0 * v) + _log_heat_axis(alpha, t, x, y))


def heat_apply_kernel(f, q: KernelQuery, order: int = 12) -> float:
    """T_t f(x) by quadrature of the heat kernel against d mu_alpha.

    f is called with a vector of y values (d = 1) or an (m, d) array.
    """
    axes = [_heat_axis_nodes(a, q.t, q.x[j], order) for j, a in enumerate(q.params.alpha)]
    y, w = tensor_grid(*zip(*axes))
    return float(np.dot(w, call_on_points(f, y)))


# ---------------------------------------------------------------------------
# One-sided stable-1/2 subordination weight
# ---------------------------------------------------------------------------


def stable_density(t: float, s) -> float:
    """g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2}."""
    if t <= 0:
        raise DomainError("t must be positive")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0):
        raise DomainError("s must be positive")
    out = t / (2.0 * math.sqrt(math.pi)) * np.exp(-t * t / (4.0 * s_arr)) * s_arr**-1.5
    return out if np.ndim(s) else float(out)


def _hermite(m: int, u):
    if m < 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    coef = [0.0] * m + [1.0]
    return hermval(u, coef)


def stable_density_dt(m: int, t: float, s) -> np.ndarray:
    """m-th partial derivative of g(t, s) in t, analytic via Hermite polynomials.

    With a = 1/(4s) and phi(t) = e^{-a t^2}:
    d^m/dt^m [t phi] = t phi^(m) + m phi^(m-1),
    phi^(j)(t) = (-sqrt(a))^j H_j(sqrt(a) t) phi(t).
    """
    if t <= 0:
        raise DomainError("t must be positive")
    s_arr = np.asarray(s, dtype=float)
    ra = 1.0 / (2.0 * np.sqrt(s_arr))  # sqrt(a)
    phi = np.exp(-(ra * t) ** 2)
    term = t * (-ra) ** m * _hermite(m, ra * t)
    if m >= 1:
        term = term + m * (-ra) ** (m - 1) * _hermite(m - 1, ra * t)
    out = term * phi * s_arr**-1.5 / (2.0 * math.sqrt(math.pi))
    return out if np.ndim(s) else float(out)


def stable_tail_mass(m: int, t: float, s_hi: float) -> float:
    """d^m/dt^m of int_{s_hi}^inf g(t, s) ds = d^m/dt^m erf(t / (2 sqrt(s_hi)))."""
    b = 1.0 / (2.0 * math.sqrt(s_hi))
    if m == 0:
        return math.erf(b * t)
    u = b * t
    return float(
        (2.0 / math.sqrt(math.pi))
        * b**m
        * (-1.0) ** (m - 1)
        * _hermite(m - 1, u)
        * math.exp(-u * u)
    )


def _subordination_breaks(t: float, panels: int) -> np.ndarray:
    # e^{-t^2/4s} < 1e-20 below t^2/184; for large t the subordination mass
    # sits beyond S_CUTOFF and is handled by the analytic erf tail
    s_lo = min(t * t / 184.0, 0.5 * S_CUTOFF)
    return np.exp(np.linspace(math.log(s_lo), math.log(S_CUTOFF), panels + 1))


def _poisson_core_once(params, t, x, y, m, panels, order):
    breaks = _subordination_breaks(t, panels)
    s, w = _panel_nodes(np.log(breaks), order)
    s = np.exp(s)
    log_h = _log_heat_lebesgue(params, s, x, y)
    val = float(np.dot(w * s, stable_density_dt(m, t, s) * np.exp(log_h)))
    tail = math.exp(log_mu_density(params, y)) * stable_tail_mass(m, t, S_CUTOFF)
    return val + tail


def _poisson_core(params, t, x, y, m, rule: SubordinationRule):
    panels = rule.panels
    prev = _poisson_core_once(params, t, x, y, m, panels, rule.order)
    for _ in range(rule.max_refinements):
        panels *= 2
        cur = _poisson_core_once(params, t, x, y, m, panels, rule.order)
        if abs(cur - prev) <= max(rule.abs_tol, rule.rel_tol * abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"Poisson kernel quadrature did not converge at t={t}, x={x}, y={y}, m={m}"
    )


def poisson_kernel(q: KernelQuery, rule: SubordinationRule = DEFAULT_RULE) -> float:
    """Poisson kernel p_t(x, y) against Lebesgue dy, via s = -log r."""
    if q.y is None:
        raise DomainError("poisson_kernel requires both x and y")
    if q.derivative_order != 0:
        raise DomainError("poisson_kernel evaluates derivative_order = 0 only")
    return _poisson_core(q.params, q.t, q.x, q.y, 0, rule)


def poisson_kernel_dt(q: KernelQuery, rule: SubordinationRule = DEFAULT_RULE) -> float:
    """m-th time derivative of p_t(x, y), m = q.derivative_order >= 1."""
    if q.y is None:
        raise DomainError("poisson_kernel_dt requires both x and y")
    if q.derivative_order < 1:
        raise DomainError("poisson_kernel_dt requires derivative_order >= 1")
    return _poisson_core(q.params, q.t, q.x, q.y, q.derivative_order, rule)


def _mu_mean(f, params, quad_points=200):
    rules = [gauss_laguerre_rule(a, quad_points) for a in params.alpha]
    y, w = tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    return float(np.dot(w, call_on_points(f, y)))


def poisson_apply(
    f,
    params: MultiIndexParams,
    t: float,
    x,
    rule: SubordinationRule = DEFAULT_RULE,
    heat_order: int = 12,
) -> float:
    """P_t f(x) by subordination: int_0^inf g(t, s) T_s f(x) ds.

    The s-integral is truncated at S_CUTOFF where T_s f has settled at its
    mu_alpha-mean; the remainder is the analytic stable tail times the mean.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    mean = _mu_mean(f, params)
    breaks = _subordination_breaks(t, rule.panels)
    s_nodes, w = _panel_nodes(np.log(breaks), rule.order)
    s_nodes = np.exp(s_nodes)
    g = stable_density(t, s_nodes)
    total = 0.0
    for sj, wj, gj in zip(s_nodes, w, g):
        if wj * gj == 0.0:
            continue
        q = KernelQuery(params, sj, x)
        total += wj * sj * gj * heat_apply_kernel(f, q, heat_order)
    return total + mean * stable_tail_mass(0, t, S_CUTOFF)


def _kernel_y_integral(params, t, x, m, rule, integrand, epsabs, epsrel):
    """Iterated adaptive quadrature over (0, 80)^d of integrand(p, y), where
    p = d^m/dt^m p_t(x, y), with breakpoints at the coordinates of x."""
    x = tuple(float(v) for v in np.atleast_1d(x))
    y_max = 80.0
    points = [p for p in x if 0 < p < y_max]

    def inner(fixed):
        if len(fixed) == params.d:
            return integrand(_poisson_core(params, t, x, fixed, m, rule), fixed)
        val, _ = quad(
            lambda yj: inner(fixed + (yj,)),
            0.0,
            y_max,
            points=points,
            epsabs=epsabs,
            epsrel=epsrel,
            limit=400,
        )
        return val

    return inner(())


def l1_kernel_derivative(
    params: MultiIndexParams,
    t: float,
    x,
    m: int,
    rule: SubordinationRule = DEFAULT_RULE,
    epsabs: float = 1e-9,
    epsrel: float = 1e-7,
) -> float:
    """int over (0, inf)^d of |d^m/dt^m p_t(x, y)| dy."""
    return _kernel_y_integral(params, t, x, m, rule, lambda p, y: abs(p), epsabs, epsrel)


def poisson_dt_apply(
    f,
    params: MultiIndexParams,
    t: float,
    x,
    m: int,
    rule: SubordinationRule = DEFAULT_RULE,
    epsabs: float = 1e-10,
    epsrel: float = 1e-8,
) -> float:
    """d^m/dt^m P_t f(x) computed through the kernel: int d^m p_t(x,y) f(y) dy."""
    return _kernel_y_integral(
        params, t, x, m, rule, lambda p, y: p * float(call_on_points(f, y)), epsabs, epsrel
    )
