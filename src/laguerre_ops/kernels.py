"""Pointwise heat and Poisson kernels plus quadrature-based semigroup action.

All kernel formulas are evaluated in log space, with the Bessel factor
taken from specfun.log_bessel_i_scaled (scipy.special.ive, with a
log-series fallback where ive underflows; see specfun).  The Poisson kernel is
computed through the one-sided stable-1/2 subordination weight

    g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2},

whose Laplace transform in s is e^{-t sqrt(n)}: the substitution s = -log r
turns the unit-interval kernel integral into an integral of g against the
heat kernel on (0, inf).  Time derivatives differentiate g analytically.

Kernel values are evaluated in blocks: d^m/dt^m p_t(x, y) for a vector of
last coordinates y (earlier coordinates held fixed) is one (y x s-node)
array of heat-kernel factors, built at most BLOCK_POINTS entries per
log_bessel_i_scaled call, and each y is refined on its own by doubling the
subordination panels.  A single kernel value is a block of one.

poisson_apply takes a vector of times that share one subordination rule,
so T_s f(x) is needed once per shared node s; those heat applications are
one batched evaluation, and heat_apply_kernel is that engine on one time.

The y integrals behind l1_kernel_derivative and poisson_dt_apply use, on
the last axis, composite Gauss-Legendre panels in v = sqrt(y) on
(0, sqrt(Y_MAX)): graded geometrically toward v = 0 and dyadically around
sqrt(x) at scale t.  For the L1 norm the sign changes of d^m p are
bracketed on the nodes, located by vectorised bisection and made panel
breaks, so |.| is integrated piecewise smooth.  All panels are halved until
two successive sums agree, else QuadratureError.  Any earlier axes use
adaptive quad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

#: largest (y x s-node) block handed to one log_bessel_i_scaled call
BLOCK_POINTS = 8192

#: Gauss-Legendre nodes per panel of the heat-kernel rule
HEAT_ORDER = 12

#: the y integrals run over (0, Y_MAX)^d, in v = sqrt(y) on the last axis:
#: Y_ORDER Gauss-Legendre nodes per panel, geometric grading toward v = 0
#: (see _v_breaks), at most Y_HALVINGS halvings of every panel, and sign
#: changes of the integrand located to ROOT_TOL in v
Y_MAX = 80.0
Y_ORDER = 8
Y_GRADE_BITS = 20.0
Y_GRADE_MAX = 60
Y_HALVINGS = 5
ROOT_TOL = 1e-9


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
        object.__setattr__(self, "x", _point(self.params, self.x, "x"))
        if self.y is not None:
            object.__setattr__(self, "y", _point(self.params, self.y, "y"))
        if self.derivative_order < 0:
            raise DomainError("derivative_order must be nonnegative")


def _point(params, p, name):
    p = tuple(float(v) for v in np.atleast_1d(p))
    if len(p) != params.d or any(v <= 0 for v in p):
        raise DomainError(f"{name} must be a point in (0, inf)^d")
    return p


@dataclass(frozen=True)
class SubordinationRule:
    """Panel scheme for integrals in log-time over (0, inf)."""

    panels: int = 12
    order: int = 12
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_refinements: int = 4

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_RULE = SubordinationRule()


def _log_mu_axis(alpha, y):
    return alpha * np.log(y) - y - math.lgamma(alpha + 1.0)


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


def heat_kernel(q: KernelQuery) -> float:
    """Heat kernel G_t(x, y) against d mu_alpha(y) (Hille-Hardy product)."""
    if q.y is None:
        raise DomainError("heat_kernel requires both x and y")
    factors = zip(q.params.alpha, q.x, q.y)
    log_g = float(sum(_log_heat_axis(a, q.t, x, y) - _log_mu_axis(a, y) for a, x, y in factors))
    if abs(log_g) > 700.0:
        raise OverflowGuardError(f"heat kernel log-value {log_g} out of range")
    return math.exp(log_g)


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------

_leggauss = lru_cache(maxsize=None)(leggauss)


def _gauss_panels(a, b, order: int):
    """Gauss-Legendre nodes/weights on the panels [a_i, b_i], one row per panel."""
    xg, wg = _leggauss(order)
    a, b = a[:, None], b[:, None]
    return 0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg


def _panel_nodes(breaks: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each consecutive panel of `breaks`."""
    nodes, weights = _gauss_panels(breaks[:-1], breaks[1:], order)
    return nodes.ravel(), weights.ravel()


def _heat_axis_breaks(t, x):
    """Panel breaks in v = sqrt(y) for int H_t(x, y) f(y) dy on one axis.

    The kernel is a Gaussian ridge in v centered at v0 = sqrt(e^-t x) with
    width ~ sqrt((1-e^-t)/2), resolvable uniformly in t; panels are graded
    toward v = 0 to absorb the y^alpha endpoint.
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
        return np.unique(np.concatenate(([0.0], graded, [sig], bumps[bumps >= sig])))
    return np.unique(bumps)


def _heat_nodes(alpha, t, x, v, pw):
    """Nodes y = v^2 and weights 2 v pw H_t(x, y) of the v-panel rule; t may
    hold one time per node."""
    y = v * v
    return y, np.exp(np.log(pw * 2.0 * v) + _log_heat_axis(alpha, t, x, y))


def _heat_apply_grid(f, params, t, x, order):
    # one call per time, so that each tensor grid is freed before the next
    axes = [
        _heat_nodes(a, t, xj, *_panel_nodes(_heat_axis_breaks(t, xj), order))
        for a, xj in zip(params.alpha, x)
    ]
    y, w = tensor_grid(*zip(*axes))
    return np.dot(w, call_on_points(f, y))


def _heat_apply_times(f, params, times, x, order):
    """T_s f(x) for each heat time s in `times`.  At d = 1 the panels of all
    times form one flat list, taken BLOCK_POINTS nodes at a time (one
    log_bessel_i_scaled call and one call to f per chunk); at d >= 2 each
    time is one tensor grid of the per-axis rules."""
    if params.d > 1:
        return np.array([_heat_apply_grid(f, params, s, x, order) for s in times.tolist()])
    breaks = [_heat_axis_breaks(s, x[0]) for s in times.tolist()]
    panels = np.array([len(v) - 1 for v in breaks])
    lo = np.concatenate([v[:-1] for v in breaks])
    hi = np.concatenate([v[1:] for v in breaks])
    s = np.repeat(times, panels)[:, None]
    sums = np.empty(len(lo))
    step = max(1, BLOCK_POINTS // order)
    for i in range(0, len(lo), step):
        c = slice(i, i + step)
        y, w = _heat_nodes(params.alpha[0], s[c], x[0], *_gauss_panels(lo[c], hi[c], order))
        sums[c] = (w * call_on_points(f, y.reshape(-1, 1)).reshape(y.shape)).sum(axis=1)
    return np.add.reduceat(sums, np.cumsum(panels) - panels)


def heat_apply_kernel(f, q: KernelQuery, order: int = HEAT_ORDER) -> float:
    """T_t f(x) by quadrature of the heat kernel against d mu_alpha.

    f is called with a vector of y values (d = 1) or an (m, d) array.
    """
    return float(_heat_apply_times(f, q.params, np.array([q.t]), q.x, order)[0])


# ---------------------------------------------------------------------------
# One-sided stable-1/2 subordination weight
# ---------------------------------------------------------------------------


def stable_density(t: float, s) -> float:
    """g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2}."""
    if np.any(np.asarray(s, dtype=float) <= 0):
        raise DomainError("s must be positive")
    return stable_density_dt(0, t, s)


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


def _s_floor(t):
    # e^{-t^2/4s} < 1e-20 below t^2/184; for large t the subordination mass
    # sits beyond S_CUTOFF and is handled by the analytic erf tail
    return min(t * t / 184.0, 0.5 * S_CUTOFF)


def _subordination_breaks(t: float, panels: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(_s_floor(t)), math.log(S_CUTOFF), panels + 1))


@lru_cache(maxsize=256)
def _subordination_nodes(t, m, panels, order):
    """s nodes of the log-time panel rule on (0, S_CUTOFF) and the weights
    w_i s_i d^m/dt^m g(t, s_i), so that sum_i weight_i F(s_i) ~ int d^m_t g F ds."""
    s, w = _panel_nodes(np.log(_subordination_breaks(t, panels)), order)
    s = np.exp(s)
    ws = w * s * stable_density_dt(m, t, s)
    s.flags.writeable = False
    ws.flags.writeable = False
    return s, ws


def _poisson_block_once(params, t, x, fixed, y, m, panels, order):
    """d^m/dt^m p_t(x, (fixed, y_i)) for each y_i, from one subordination rule.

    The heat factors of the fixed axes are one vector over the s nodes; the
    last axis is an (y x s) block, built BLOCK_POINTS entries at a time so
    that each chunk is one log_bessel_i_scaled call.  Each row is summed on
    its own, so a value does not depend on the other y it is evaluated with.
    """
    s, ws = _subordination_nodes(t, m, panels, order)
    log_fixed = 0.0
    log_mu = 0.0
    for a, xj, yj in zip(params.alpha, x, fixed):
        log_fixed = log_fixed + _log_heat_axis(a, s, xj, yj)
        log_mu += _log_mu_axis(a, yj)
    a, xl = params.alpha[-1], x[-1]
    out = np.empty(len(y))
    step = max(1, BLOCK_POINTS // len(s))
    for i in range(0, len(y), step):
        yc = y[i : i + step, None]
        log_h = _log_heat_axis(a, s, xl, yc) + log_fixed
        out[i : i + step] = (np.exp(log_h) * ws).sum(axis=1)
    tail = stable_tail_mass(m, t, S_CUTOFF)
    return out + np.exp(log_mu + _log_mu_axis(a, y)) * tail


def _poisson_block(params, t, x, fixed, y, m, rule: SubordinationRule):
    """d^m/dt^m p_t(x, (fixed, y_i)) for a vector y of last coordinates.

    Each y_i is refined on its own: the subordination panels double until
    two successive values agree to max(abs_tol, rel_tol |value|).
    """
    y = np.asarray(y, dtype=float)
    panels = rule.panels
    prev = _poisson_block_once(params, t, x, fixed, y, m, panels, rule.order)
    out = np.empty_like(prev)
    todo = np.arange(len(y))
    for _ in range(rule.max_refinements):
        panels *= 2
        cur = _poisson_block_once(params, t, x, fixed, y[todo], m, panels, rule.order)
        done = np.abs(cur - prev) <= np.maximum(rule.abs_tol, rule.rel_tol * np.abs(cur))
        out[todo[done]] = cur[done]
        todo, prev = todo[~done], cur[~done]
        if len(todo) == 0:
            return out
    bad = (*fixed, float(y[todo[0]]))
    raise QuadratureError(
        f"Poisson kernel quadrature did not converge at t={t}, x={x}, y={bad}, m={m}"
    )


def _kernel_value(q: KernelQuery, dt: bool, rule: SubordinationRule) -> float:
    """d^m/dt^m p_t(x, y) at the query's point, m = q.derivative_order: the
    block evaluator on one column."""
    if q.y is None:
        raise DomainError("the Poisson kernel requires both x and y")
    if (q.derivative_order >= 1) != dt:
        raise DomainError("poisson_kernel takes derivative_order 0, poisson_kernel_dt >= 1")
    m = q.derivative_order
    return float(_poisson_block(q.params, q.t, q.x, q.y[:-1], q.y[-1:], m, rule)[0])


def poisson_kernel(q: KernelQuery, rule: SubordinationRule = DEFAULT_RULE) -> float:
    """Poisson kernel p_t(x, y) against Lebesgue dy, via s = -log r."""
    return _kernel_value(q, False, rule)


def poisson_kernel_dt(q: KernelQuery, rule: SubordinationRule = DEFAULT_RULE) -> float:
    """m-th time derivative of p_t(x, y), m = q.derivative_order >= 1."""
    return _kernel_value(q, True, rule)


def _mu_mean(f, params, quad_points=200):
    rules = [gauss_laguerre_rule(a, quad_points) for a in params.alpha]
    y, w = tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    return float(np.dot(w, call_on_points(f, y)))


def poisson_apply(
    f,
    params: MultiIndexParams,
    t,
    x,
    rule: SubordinationRule = DEFAULT_RULE,
):
    """P_t f(x) by subordination: int_0^inf g(t, s) T_s f(x) ds.

    t is one time (a float is returned) or an array of times (an array of
    that shape is returned).  All times share one rule: Gauss-Legendre
    panels of the log width rule.panels panels have at t = 1, laid down
    from S_CUTOFF to the floor of the smallest t, so T_s f(x) is evaluated
    once per node.  Past S_CUTOFF, T_s f is its mu_alpha-mean, taken once.
    """
    times = np.asarray(t, dtype=float)
    if times.size == 0 or not np.all((times > 0) & np.isfinite(times)):
        raise DomainError("t must be positive and finite")
    x = _point(params, x, "x")
    h = math.log(S_CUTOFF / _s_floor(1.0)) / rule.panels
    n = math.ceil(math.log(S_CUTOFF / _s_floor(times.min())) / h - 1e-9)
    u, w = _panel_nodes(math.log(S_CUTOFF) - h * np.arange(n, -1.0, -1.0), rule.order)
    s = np.exp(u)
    ws, heat = w * s, _heat_apply_times(f, params, s, x, HEAT_ORDER)
    mean = _mu_mean(f, params)
    out = [
        np.dot(ws * stable_density_dt(0, ti, s), heat) + mean * stable_tail_mass(0, ti, S_CUTOFF)
        for ti in times.ravel().tolist()
    ]
    return np.reshape(out, times.shape) if np.ndim(t) else float(out[0])


def _v_breaks(alpha, t, x):
    """Panel breaks in v = sqrt(y) on (0, sqrt(Y_MAX)).

    p_t(x, .) peaks at v = sqrt(x) with width ~t, so breaks sit at sqrt(x)
    and at dyadic steps t 2^j away from it.  Near v = 0 the integrand is
    v^(2 alpha + 1) times a smooth function; below the lowest break, panels
    halve in width until the first of them holds a share 2^-Y_GRADE_BITS of
    that power's mass.
    """
    v_max = math.sqrt(Y_MAX)
    v0 = math.sqrt(x)
    steps = t * 2.0 ** np.arange(math.ceil(math.log2(v_max / t)) + 1)
    around = np.concatenate((v0 - steps, [v0], v0 + steps))
    around = around[(around > 0) & (around < v_max)]
    low = around[0] if len(around) else v_max
    levels = min(math.ceil(Y_GRADE_BITS / (2.0 * alpha + 2.0)), Y_GRADE_MAX)
    graded = low * 2.0 ** -np.arange(float(levels), 0.0, -1.0)
    return np.unique(np.concatenate(([0.0], graded, around, [v_max])))


def _sign_changes(sign_of, v, p, known):
    """Zeros of p between neighbouring nodes v where it changes sign, found by
    vectorised bisection on sign_of(y) > 0; brackets holding a zero in
    `known` are skipped."""
    up = p > 0
    i = np.flatnonzero(up[:-1] != up[1:])
    lo, hi, up = v[i], v[i + 1], up[i]
    new = np.searchsorted(known, lo) == np.searchsorted(known, hi)
    lo, hi, up = lo[new], hi[new], up[new]
    while len(lo) and np.max(hi - lo) > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        same = (sign_of(mid * mid) > 0) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _v_integral(block, breaks, epsabs, epsrel, weight=None, sign_of=None):
    """int_0^sqrt(Y_MAX) of p(v^2) weight(v^2) 2v dv, or of |p(v^2)| 2v dv when
    weight is None, where block(y) = p(y), by composite Gauss-Legendre panels.

    For |p| the sign changes of p, located with sign_of (p to within its
    discretisation error), become breaks, so every panel integrates a smooth
    function.  All panels are halved until two successive sums agree to
    max(epsabs, epsrel |sum|).
    """
    zeros = np.empty(0)
    sums = []
    for _ in range(Y_HALVINGS + 1):
        v, w = _panel_nodes(breaks, Y_ORDER)
        p = block(v * v)
        if weight is None:
            new = _sign_changes(sign_of, v, p, zeros)
            if len(new):
                zeros = np.union1d(zeros, new)
                breaks = np.union1d(breaks, new)
                v, w = _panel_nodes(breaks, Y_ORDER)
                p = block(v * v)
            vals = np.abs(p)
        else:
            vals = p * weight(v * v)
        sums.append(float(np.dot(2.0 * v * w, vals)))
        if len(sums) > 1 and abs(sums[-1] - sums[-2]) <= max(epsabs, epsrel * abs(sums[-1])):
            return sums[-1]
        breaks = np.sort(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]))))
    raise QuadratureError(
        f"y quadrature did not reach epsabs={epsabs:g}, epsrel={epsrel:g} "
        f"after {Y_HALVINGS} halvings: last two sums {sums[-2]!r}, {sums[-1]!r}"
    )


def _kernel_y_integral(params, t, x, m, rule, f, epsabs, epsrel):
    """int over (0, Y_MAX)^d of |p| (f None) or of p f(y), p = d^m/dt^m p_t(x, y).

    The last axis is the v-panel rule of _v_integral on blocks of kernel
    values; any earlier axes are iterated adaptive quadrature with
    breakpoints at the coordinates of x.
    """
    x = tuple(float(v) for v in np.atleast_1d(x))
    points = [p for p in x if 0 < p < Y_MAX]
    breaks = _v_breaks(params.alpha[-1], t, x[-1])

    def inner(fixed):
        if len(fixed) < params.d - 1:
            val, _ = quad(
                lambda yj: inner(fixed + (yj,)),
                0.0,
                Y_MAX,
                points=points,
                epsabs=epsabs,
                epsrel=epsrel,
                limit=400,
            )
            return val
        block = lambda y: _poisson_block(params, t, x, fixed, y, m, rule)
        if f is None:
            # bisection only reads signs, so it skips the refinement test,
            # which cannot pass where p is below its own discretisation error
            sign_of = lambda y: _poisson_block_once(
                params, t, x, fixed, y, m, 2 * rule.panels, rule.order
            )
            return _v_integral(block, breaks, epsabs, epsrel, sign_of=sign_of)
        weight = lambda y: call_on_points(
            f, np.column_stack([np.broadcast_to(fixed, (len(y), len(fixed))), y])
        )
        return _v_integral(block, breaks, epsabs, epsrel, weight=weight)

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
    return _kernel_y_integral(params, t, x, m, rule, None, epsabs, epsrel)


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
    """d^m/dt^m P_t f(x) computed through the kernel: int d^m p_t(x,y) f(y) dy.

    f is called with a vector of y values (d = 1) or an (n, d) array.
    """
    return _kernel_y_integral(params, t, x, m, rule, f, epsabs, epsrel)
