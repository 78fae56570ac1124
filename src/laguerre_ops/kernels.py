"""Pointwise heat and Poisson kernels plus quadrature-based semigroup action.

All kernel formulas are evaluated in log space, with the Bessel factor taken
from specfun.log_bessel_i_scaled (the closed form at alpha = +-1/2, the
ascending series at small arguments, the large-argument expansion at large
ones, scipy's iv between, and ive or a log-series where those do not hold;
see specfun).  The Poisson kernel is
computed through the one-sided stable-1/2 subordination weight

    g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2},

whose Laplace transform in s is e^{-t sqrt(n)}: the substitution s = -log r
turns the unit-interval kernel integral into an integral of g against the
heat kernel on (0, inf).  Time derivatives differentiate g analytically.

heat_kernel, the heat-axis rule and the Poisson kernel's blocks read one
statement of the heat kernel (_log_ridge), a ridge in v = sqrt(y).  T_s f(x)
integrates one heat-axis rule per coordinate (_heat_axis_rule):
Gauss-Legendre panels in offsets from the ridge, and one Gauss-Jacobi panel
that is exact for the y^alpha endpoint.

Every integral int d^m_t g(t, s) F(s) ds over (0, S_CUTOFF) takes one
subordination rule (_subordination_rule): Gauss-Kronrod panels in log s of
one width, laid down from S_CUTOFF to the floor of the smallest time (at
least T_MIN), and the analytic erf tail past S_CUTOFF, weighted by
_sub_weights.  A read gives each value its Kronrod sum, embedded Gauss sum
and sum |terms|, whose eps multiple is its rounding; one settle loop
(_doubled) doubles the rule from KERNEL_PANELS until every value settles.
Kernel values d^m/dt^m p_t(x, y) at an (n, d) array of points y read the
rule in (y x s-node) blocks, one log_bessel_i_scaled call per axis and block
of at most BLOCK_POINTS entries, on the y-free heat factors that _kernel_nodes
caches per rule; one point (a scalar value) is read with its coordinates as
scalars, each axis's ridge one row over the s nodes.  d^m/dt^m P_t f(x)
(poisson_dt_apply), and the callable fractional operators as a linear
functional of P_s f(x), read one semigroup table (_settled_read): T_s f(x)
and sum |w f| at every node and at S_CUTOFF, which stands for s past it,
from one chunked heat-apply call.

l1_kernel_derivative (d = 1) integrates |d^m p_t(x, .)| on panels in
v = sqrt(y) (_v_breaks), dyadic around the ridge at sqrt(x) and ending where
the kernel's mass past them is below e^(-S_CUTOFF): the panel at v = 0 takes
the Gauss-Jacobi rules of 2 Y_ORDER and Y_ORDER nodes, exact for the y^alpha
endpoint, and every other panel a Gauss-Kronrod rule around Y_ORDER Gauss
nodes.  A panel has a value, a y estimate |K - G| and an s estimate, its
|weights| 2v times each node's _estimate, read at one s panel count.  Sign
changes of d^m p between nodes, and below the first node (from d^m p /
y^alpha extrapolated to y = 0), are located by bisection and made breaks.
A panel that a new break splits or whose y estimate exceeds its share of
tol = max(SUB_ABS, SUB_REL |sum|) is split and read again; an s estimate above
tol / 2 doubles the s panels and drops every value read.  The sum settles once
no sign change is new and both estimates meet tol, else QuadratureError after
SUB_DOUBLINGS passes or once no panel is left to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.hermite import hermval
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainccinv

from .errors import DomainError, OverflowGuardError, QuadratureError, check_above, check_integer
from .expansion import MultiIndexParams, call_on_points
from .specfun import _log_mu, gauss_jacobi_rule, gauss_kronrod_rule, log_bessel_i_scaled

__all__ = [
    "KernelQuery",
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


def __getattr__(name):
    """kernels.quad, imported where it is first looked up: bench/tracing.py
    patches it, and nothing else needs scipy.integrate loaded."""
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: the one cutoff of every integral to infinity: e^{-s} < 5e-18 for s > 40.
#: The subordination rule and fractional._time_rule end there with an
#: analytic tail, and the L1 y range where the mass past it is below e^{-40}.
S_CUTOFF = 40.0

#: the subordination rule: Gauss-Kronrod panels in log s around SUB_ORDER
#: Gauss nodes, KERNEL_PANELS of them at t = 1, where every integral starts,
#: doubled at most SUB_DOUBLINGS times until a value settles to max(SUB_ABS,
#: SUB_REL |value|) or to SUB_ROUND sum |terms| (a zero derivative's terms
#: cancel).  KERNEL_PANELS is the least count at which the rule's Laplace
#: transform e^{-t sqrt(n)} holds to 1e-14 at every t in [1e-4, 30] (worst
#: 5.6e-16 at 6 panels, 1.0e-14 at 5, 1.3e-12 at 4).  The L1 y rule settles
#: to the same SUB_ABS, SUB_REL within SUB_DOUBLINGS passes
KERNEL_PANELS = 6
SUB_ORDER = 12
#: the rule's smallest time: below t ~ 5e-102, s^(-3/2) at its floor t^2 / 184 overflows
T_MIN = 1e-100
SUB_ABS = 1e-10
SUB_REL = 1e-8
_EPS = np.finfo(float).eps
SUB_ROUND = 8 * _EPS
SUB_DOUBLINGS = 4

#: largest (y x s-node) block handed to one log_bessel_i_scaled call
BLOCK_POINTS = 8192

#: nodes per panel of the heat-axis rule (Gauss-Legendre and Gauss-Jacobi)
HEAT_ORDER = 12

#: the L1 y integral runs in v = sqrt(y) on Kronrod panels around Y_ORDER
#: Gauss nodes, and sign changes of the integrand are located to ROOT_TOL in v
Y_ORDER = 8
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
        point, y = self.params.point, self.y
        # one write of the checked fields past the frozen __setattr__
        self.__dict__.update(t=check_above("t", (self.t,))[0], x=point(self.x),
                             y=y if y is None else point(y, "y"))
        check_integer(self.derivative_order, 0, "derivative_order")


def _heat_scales(s, x):
    """The ridge v0 = sqrt(e^-s x), width sigma = sqrt((1 - e^-s) / 2) and 1 - e^-s
    of H_s(x, .) in v = sqrt(y), at a heat time s or an array of them.  A time
    whose Bessel argument v0^2 / sigma^2 is 0 or overflows raises DomainError."""
    one_r = -np.expm1(-s)
    v0, sig = np.sqrt(np.exp(-s) * x), np.sqrt(0.5 * one_r)
    with np.errstate(divide="ignore", over="ignore"):
        ok = (v0 > 0) & (v0 * v0 / (sig * sig) < math.inf)
    if not ok.all():
        raise DomainError(f"the heat kernel at t={np.ravel(s)[np.argmin(ok)]:g}, x={x:g} "
                          "leaves the float range: e^-t x underflows or x / t overflows")
    return v0, sig, one_r


def _log_ridge(alpha, v, u, v0, sig2):
    """log((1 - e^-s) H_s(x, y)), the one statement of the heat kernel against
    dy, at v = sqrt(y), u = (v - v0) / sigma and the scales v0, sigma^2 of
    _heat_scales: a ridge e^(-u^2/2) times (v / v0)^alpha I_alpha(v0 v / sigma^2)
    e^(-v0 v / sigma^2)."""
    return alpha * np.log(v / v0) - 0.5 * u * u + log_bessel_i_scaled(alpha, v0 * v / sig2)


def heat_kernel(q: KernelQuery) -> float:
    """Heat kernel G_t(x, y) against d mu_alpha(y) (Hille-Hardy product)."""
    if q.y is None or q.derivative_order:
        raise DomainError("heat_kernel requires both x and y, and derivative_order 0")
    log_g = 0.0
    for a, x, y in zip(q.params.alpha, q.x, q.y):
        (v0, sig, one_r), v = _heat_scales(q.t, x), math.sqrt(y)
        log_h = _log_ridge(a, v, (v - v0) / sig, v0, sig * sig) - math.log(one_r)
        log_g += log_h - _log_mu(a, y, math.log(y))
    if abs(log_g) > 700.0:
        raise OverflowGuardError(f"heat kernel log-value {log_g} out of range")
    return math.exp(log_g)


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------

_leggauss = lru_cache(maxsize=None)(leggauss)


def _panels(breaks: np.ndarray, nodes, *weights):
    """A rule on [-1, 1] (its nodes and any number of weight rows) laid on each
    consecutive panel of `breaks`: nodes and weight rows, one row per panel."""
    a, b = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * nodes, *(half * w for w in weights))


@lru_cache(maxsize=256)
def _jacobi_panel(alpha, order):
    """Nodes g and weights of the endpoint panel on g = v / b in (0, 1), exact
    for g^(2 alpha + 1) p(g^2) with deg p < 2 order: the Gauss-Jacobi rule in
    eta = g^2 with weight eta^alpha, taken in g."""
    rule = gauss_jacobi_rule(alpha, order)
    g = np.sqrt(rule.nodes)
    w = rule.weights / (2.0 * rule.nodes**alpha * g)
    g.flags.writeable = w.flags.writeable = False
    return g, w


def _heat_axis_rule(alpha, times, x):
    """The heat-axis rule for int H_s(x, y) f(y) dy at each heat time s.

    In v = sqrt(y) the kernel (_log_ridge) is a ridge e^(-u^2/2) in u =
    (v - v0) / sigma, taken from the offsets u, times the factor of order
    alpha that moves its mass out to v ~ sqrt(E y), E y = v0^2 + (2 alpha +
    2) sigma^2.  Gauss-Legendre panels 2 wide in u cover [-12, 16] around
    sqrt(E y) above v = sigma, and where they reach v = sigma the Jacobi panel
    takes y below sigma^2.  Returns per panel its time's index, and nodes y and
    weights 2 v sigma du H_s(x, y) as one row of HEAT_ORDER per panel.
    """
    v0, sig, one_r = _heat_scales(times, x)
    floor = 1.0 - v0 / sig  # u at v = sigma
    center = (np.hypot(v0, math.sqrt(2.0 * alpha + 2.0) * sig) - v0) / sig  # u at sqrt(E y)
    ridge = center[:, None] + np.arange(-12.0, 16.5, 2.0)
    lo = np.column_stack((-v0 / sig, np.maximum(ridge[:, :-1], floor[:, None])))
    width = np.column_stack((np.ones_like(v0), ridge[:, 1:] - lo[:, 1:]))
    used = np.column_stack((floor > ridge[:, 0], width[:, 1:] > 0))
    idx, col = np.nonzero(used)
    lo, width, jac = lo[used][:, None], width[used][:, None], (col == 0)[:, None]
    one_r, sig, v0 = one_r[idx, None], sig[idx, None], v0[idx, None]
    (xg, wg), (g, wj) = _leggauss(HEAT_ORDER), _jacobi_panel(alpha, HEAT_ORDER)
    unit = np.where(jac, g, 0.5 * (xg + 1.0))
    u = lo + width * unit
    v = np.where(jac, sig * unit, v0 + sig * u)
    pw = np.where(jac, wj, 0.5 * wg) * width * 2.0 * v * sig / one_r
    return idx, v * v, pw * np.exp(_log_ridge(alpha, v, u, v0, sig * sig))


def _heat_apply_times(f, params, times, x):
    """Rows T_s f(x) and sum |w f| over the heat times s in `times`, taken in
    chunks of at most BLOCK_POINTS nodes per axis: one heat-axis rule (one
    log_bessel_i_scaled call) per axis and chunk.  f is read (call_on_points) at
    d = 1 once per chunk; at d >= 2 once per time, on the tensor grid of its rows
    of the per-axis rules, and contracted with the weights one axis at a time,
    the last first.  A sum |w f| that is not finite raises DomainError."""
    out = np.empty((2, len(times)))
    step = max(1, BLOCK_POINTS // (15 * HEAT_ORDER))  # a time has at most 15 panels
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the magnitude row
        for i in range(0, len(times), step):
            chunk = times[i : i + step]
            rules = [_heat_axis_rule(a, chunk, xj) for a, xj in zip(params.alpha, x)]
            if params.d == 1:
                idx, y, w = rules[0]
                terms = w * call_on_points(f, params, y.reshape(-1, 1)).reshape(y.shape)
                for row, g in zip(out, (terms, np.abs(terms))):
                    row[i : i + step] = np.bincount(idx, g.sum(axis=1), minlength=len(chunk))
                continue
            # idx is sorted, so the rows of each time are one run of them
            starts = [np.searchsorted(idx, np.arange(1, len(chunk))) for idx, _, _ in rules]
            axes = [zip(np.split(y, c), np.split(w, c)) for (_, y, w), c in zip(rules, starts)]
            for j, rows in enumerate(zip(*axes)):
                values = call_on_points(f, params, tuple(y.ravel() for y, _ in rows))
                # the weights are >= 0, so |w| contracts with |f| as w with f
                out[:, i + j] = [reduce(np.matmul, [w.ravel() for _, w in rows[::-1]], g)
                                 for g in (values, np.abs(values))]
    if not np.isfinite(out[1]).all():
        k = np.argmin(np.isfinite(out[1]))
        raise DomainError(f"sum |w f| of T_s f(x) at s={times[k]:g}, x={x} is {out[1, k]!r}")
    return out


def heat_apply_kernel(f, q: KernelQuery) -> float:
    """T_t f(x) by quadrature of the heat kernel against d mu_alpha; f is a
    callable or an expansion of q.params, read as call_on_points describes."""
    if q.y is not None or q.derivative_order:
        raise DomainError("heat_apply_kernel takes a query with no y and derivative_order 0")
    return float(_heat_apply_times(f, q.params, np.array([q.t]), q.x)[0, 0])


# ---------------------------------------------------------------------------
# One-sided stable-1/2 subordination weight
# ---------------------------------------------------------------------------


def stable_density(t, s):
    """g(t, s) = (t / 2 sqrt(pi)) e^{-t^2/4s} s^{-3/2}."""
    return stable_density_dt(0, t, s)


def stable_density_dt(m: int, t, s):
    """m-th partial derivative of g(t, s) in t, analytic via Hermite polynomials,
    at t and s broadcast against each other.

    With a = 1/(4s) and phi(t) = e^{-a t^2}:
    d^m/dt^m [t phi] = t phi^(m) + m phi^(m-1),
    phi^(j)(t) = (-sqrt(a))^j H_j(sqrt(a) t) phi(t).  An overflow raises DomainError.
    """
    check_integer(m, 0, "m")
    t, s = np.asarray(check_above("t", t)), np.asarray(check_above("s", s))
    try:
        np.broadcast_shapes(t.shape, s.shape)
    except ValueError:
        raise DomainError("t must be a scalar or an array that broadcasts against s") from None
    ra = 1.0 / (2.0 * np.sqrt(s))  # sqrt(a)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.exp(-(ra * t) ** 2)
        term = t * (-ra) ** m * hermval(ra * t, [0.0] * m + [1.0])
        if m >= 1:
            term = term + m * (-ra) ** (m - 1) * hermval(ra * t, [0.0] * (m - 1) + [1.0])
        out = term * phi * s**-1.5 / (2.0 * math.sqrt(math.pi))
    if not np.isfinite(out).all():
        raise DomainError(f"d^{m}/dt^{m} g at t={np.min(t):g}, m={m} overflows at s={s.min():.3g}")
    return out if np.ndim(out) else float(out)


def stable_tail_mass(m: int, t, s_hi: float):
    """d^m/dt^m of int_{s_hi}^inf g(t, s) ds = d^m/dt^m erf(t / (2 sqrt(s_hi))),
    at a scalar s_hi and t a scalar or an array.  erf and exp come from math,
    so each time of an array gets the value of its scalar call."""
    check_integer(m, 0, "m")
    b = 1.0 / (2.0 * math.sqrt(check_above("s_hi", (s_hi,))[0]))
    u = b * np.asarray(check_above("t", t))
    if m == 0:
        out = np.frompyfunc(math.erf, 1, 1)(u)
    else:
        gauss = np.frompyfunc(lambda v: math.exp(-v * v), 1, 1)(u)
        h = hermval(u, [0.0] * (m - 1) + [1.0])
        out = (2.0 / math.sqrt(math.pi)) * b**m * (-1.0) ** (m - 1) * h * gauss
    return np.asarray(out, dtype=float) if np.ndim(out) else float(out)


def _s_floor(t):
    # e^{-t^2/4s} < 1e-20 below t^2/184; for large t the subordination mass
    # sits beyond S_CUTOFF and is handled by the analytic erf tail
    return min(t * t / 184.0, 0.5 * S_CUTOFF)


def _above_t_min(t):
    if t < T_MIN:
        raise DomainError(f"t={t:g} is below T_MIN={T_MIN:g}, the rule's smallest time")
    return t


def _subordination_rule(t_min, panels):
    """Nodes s, Kronrod weights w s and Gauss weights (0 off the embedded
    Gauss nodes) as flat arrays, so that sum_i (w s)_i F(s_i) ~
    int_0^S_CUTOFF F(s) ds for F smooth in log s: Gauss-Kronrod panels in
    log s, as wide as `panels` are at t = 1, laid down from S_CUTOFF to the
    floor of t_min, for every t >= t_min >= T_MIN."""
    h = math.log(S_CUTOFF / _s_floor(1.0)) / panels
    n = math.ceil(math.log(S_CUTOFF / _s_floor(_above_t_min(t_min))) / h - 1e-9)
    breaks = math.log(S_CUTOFF) - h * np.arange(n, -1.0, -1.0)
    u, wk, wg = _panels(breaks, *gauss_kronrod_rule(SUB_ORDER))
    s = np.exp(u)
    return s.ravel(), (wk * s).ravel(), (wg * s).ravel()


def _sub_weights(m, t, s, wk, wg):
    """The rows that read d^m/dt^m int_0^inf g(t, s) F(s) ds off the rule
    (s, wk, wg) and F(S_CUTOFF), which stands for F past it: the Kronrod,
    embedded Gauss and |Kronrod| weights times d^m_t g(t, s_i), and the same
    three of the mass of d^m_t g past S_CUTOFF.  t is one time, or a 1-d
    array of them that gives each row a row per time."""
    density = stable_density_dt(m, t[:, None] if np.ndim(t) else t, s)
    kron, tail = wk * density, stable_tail_mass(m, t, S_CUTOFF)
    return np.array([kron, wg * density, np.abs(kron)]), np.array([tail, tail, abs(tail)])


def _estimate(rows):
    """max(|K - G|, eps sum |terms|) of rows (K, G, sum |terms|): K and G share rounding."""
    return np.maximum(np.abs(rows[0] - rows[1]), _EPS * rows[2])


def _doubled(value, panels, where):
    """The Kronrod row of value(panels), the rows _estimate reads, doubling
    panels until each index keeps a finite value that its estimate meets to tol
    = max(SUB_ABS, SUB_REL |value|), or, where eps sum |terms| <= SUB_ROUND / eps
    tol = 8 tol, that the last panel count's value meets or that is below
    SUB_ROUND sum |terms| with its Gauss value.  Else QuadratureError naming
    where(i): after SUB_DOUBLINGS doublings, or at once above that floor."""
    for doubling in range(SUB_DOUBLINGS + 1):
        rows = value(panels * 2**doubling)
        kron = rows[0]
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan settles nowhere
            tol, err = np.maximum(SUB_ABS, SUB_REL * np.abs(kron)), _estimate(rows)
            floor = np.isfinite(kron)
            done = floor & (err <= tol)
            if not done.all():
                gauss, size = rows[1], rows[2]
                floor &= _EPS * size <= SUB_ROUND / _EPS * tol
                near = np.maximum(np.abs(kron), np.abs(gauss)) <= SUB_ROUND * size
                done |= floor & (near | (doubling > 0 and np.abs(kron - out) <= tol))
            elif not doubling:
                return kron  # the first pass settles every value: nothing to merge
        out, settled = (np.where(settled, out, kron), settled | done) if doubling else (kron, done)
        if settled.all():
            return out
        if not (settled | floor).all():
            break
    i = np.flatnonzero(~settled)[np.argmin(floor[~settled])]  # one above the floor first
    raise QuadratureError(f"{where(i)} did not settle in {doubling} doublings: value "
                          f"{float(kron[i])!r}, estimate {err[i]:.3g} against tol {tol[i]:.3g}")


@lru_cache(maxsize=16)
def _kernel_nodes(t, m, panels, x):
    """The subordination rule at t, shared by every y of one kernel
    integral: its weights and tail weights _sub_weights(m, t, ...), and per
    coordinate the y-free heat factors at its nodes s, the scales v0, sigma
    and sigma^2 of _heat_scales(s, x_j) and log(1 - e^-s)."""
    s, wk, wg = _subordination_rule(t, panels)
    weights, tails = _sub_weights(m, t, s, wk, wg)
    scales = [(v0, sig, sig * sig, np.log(one_r))
              for v0, sig, one_r in (_heat_scales(s, xj) for xj in x)]
    for a in (weights, tails, *sum(scales, ())):
        a.flags.writeable = False
    return weights, tails, scales


def _block_sums(alpha, v, scales, weights):
    """The Kronrod, Gauss and magnitude sums over the s nodes of one block, at
    v = sqrt(y) per axis: one point's coordinates (scalars, each axis's ridge a
    row over the nodes) or columns of them (a row per point).  The axes are
    added by reduce, as sum would first add the first axis to 0."""
    log_h = reduce(np.add, [_log_ridge(a, vj, (vj - v0) / sig, v0, sig2) - log_one_r
                            for a, vj, (v0, sig, sig2, log_one_r) in zip(alpha, v, scales)])
    return (np.exp(log_h)[..., None, :] * weights).sum(axis=-1)


def _poisson_block_once(params, t, x, y, m, panels):
    """d^m/dt^m p_t(x, y_i) for each row y_i of an (n, d) array of points, as
    the (3, n) rows _doubled reads, from one pass of (y x s-node) blocks of
    at most BLOCK_POINTS entries, one log_bessel_i_scaled call per axis and
    block; each point's row is summed on its own, independent of the others,
    and a block of one point is read with scalar coordinates (no (1, 1) x (N,)
    broadcasts)."""
    weights, tails, scales = _kernel_nodes(t, m, panels, x)
    if len(y) == 1:
        y = y[0]
        rows = _block_sums(params.alpha, np.sqrt(y), scales, weights)
    else:
        root_y, rows = np.sqrt(y).T[:, :, None], np.empty((len(y), 3))
        step = max(1, BLOCK_POINTS // weights.shape[1])
        for i in range(0, len(y), step):
            rows[i : i + step] = _block_sums(params.alpha, root_y[:, i : i + step], scales, weights)
    # mu_alpha(y)'s density, which the tail weights take for s past S_CUTOFF
    past = np.exp(reduce(np.add, map(_log_mu, params.alpha, y.T, np.log(y).T)))
    return (rows + past[..., None] * tails).T.reshape(3, -1)


def _kernel_value(q: KernelQuery, dt: bool) -> float:
    """d^m/dt^m p_t(x, y) at the query's point, m = q.derivative_order: the
    block evaluator on a block of one point, doubled from KERNEL_PANELS."""
    if q.y is None:
        raise DomainError("the Poisson kernel requires both x and y")
    if (q.derivative_order >= 1) != dt:
        raise DomainError("poisson_kernel takes derivative_order 0, poisson_kernel_dt >= 1")
    y, m = np.array([q.y]), q.derivative_order
    read = lambda panels: _poisson_block_once(q.params, q.t, q.x, y, m, panels)
    where = lambda i: f"the Poisson kernel at t={q.t}, x={q.x}, y={q.y}, m={m}"
    return float(_doubled(read, KERNEL_PANELS, where)[0])


def poisson_kernel(q: KernelQuery) -> float:
    """Poisson kernel p_t(x, y) against Lebesgue dy, via s = -log r."""
    return _kernel_value(q, False)


def poisson_kernel_dt(q: KernelQuery) -> float:
    """m-th time derivative of p_t(x, y), m = q.derivative_order >= 1."""
    return _kernel_value(q, True)


def _read_table(f, params, x, times, m, rule):
    """d^m/dt^m P_t f(x) at each of the 1-d array `times`, as the (3, n) rows
    _doubled reads, off the rule (s, wk, wg): T_s f(x) and sum |w f| at its nodes
    and S_CUTOFF (for s past it) from one _heat_apply_times call, each time's row
    one dot product (a matrix product sums in another order, which Delta^k amplifies)."""
    table, mag = _heat_apply_times(f, params, np.append(rule[0], S_CUTOFF), x)
    out, step = [], max(1, BLOCK_POINTS // len(rule[0]))
    for i in range(0, len(times), step):
        weights, tails = _sub_weights(m, times[i : i + step], *rule)
        # the Kronrod and Gauss rows read T_s f(x), the magnitude row sum |w f|
        out += zip(*[[np.dot(r, v[:-1]) + c * v[-1] for r, c in zip(w, tail)]
                     for w, tail, v in zip(weights, tails, (table, table, mag))])
    return np.array(out).T.copy()  # C order: a row of it is read with np.dot


def _settled_read(f, params, x, times, m, where, functional=lambda rows: rows):
    """d^m/dt^m P_t f(x) at the 1-d array `times`, or the rows functional(rows) of a linear
    functional of their rows, settled by _doubled, each pass one _read_table."""
    read = lambda n: _read_table(f, params, x, times, m, _subordination_rule(times.min(), n))
    return _doubled(lambda n: np.reshape(functional(read(n)), (3, -1)), KERNEL_PANELS, where)


def poisson_apply(f, params: MultiIndexParams, t, x):
    """P_t f(x) = int_0^inf g(t, s) T_s f(x) ds by subordination: m = 0 of
    poisson_dt_apply; f is a callable or an expansion of params (call_on_points)."""
    return poisson_dt_apply(f, params, t, x, 0)


def poisson_dt_apply(f, params: MultiIndexParams, t, x, m: int):
    """d^m/dt^m P_t f(x) = int d^m_t g(t, s) T_s f(x) ds at one time t (a float
    is returned) or an array of times (an array of that shape): _settled_read."""
    flat, x = np.ravel(check_above("t", t)), params.point(x)
    check_integer(m, 0, "m")
    where = lambda i: f"d^{m}/dt^{m} P_t f(x) at x={x}, t={flat[i]:g}"
    out = _settled_read(f, params, x, flat, m, where)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def _v_breaks(t, x, alpha):
    """Panel breaks in v = sqrt(y) on (0, v_max).

    The heat kernel of time s is the law of |sqrt(r x) e_1 + sqrt(1 - r) Z|^2,
    r = e^-s and |Z|^2 of law mu_alpha, so the mass of p_t(x, .) past v_max =
    sqrt(x) + sqrt(y_alpha) is below mu_alpha's past y_alpha, e^(-S_CUTOFF).
    p_t(x, .) peaks at v = sqrt(x) with width ~t, so breaks sit at sqrt(x)
    and at dyadic steps t 2^j away from it; on its left flank they also sit
    at halvings of the first break below sqrt(x) down to v = 1.
    """
    v0 = math.sqrt(x)
    v_max = v0 + math.sqrt(gammainccinv(alpha + 1.0, math.exp(-S_CUTOFF)))
    steps = t * 2.0 ** np.arange(math.ceil(math.log2(v_max / t)) + 1)
    low = v0 - t if t < v0 else v0
    flank = low * 0.5 ** np.arange(1.0, math.floor(math.log2(low)) + 1.0) if low > 1.0 else []
    around = np.concatenate((v0 - steps, [v0], v0 + steps, flank))
    around = around[(around > 0) & (around < v_max)]
    return np.unique(np.concatenate(([0.0], around, [v_max])))


def _sign_changes(value_of, v, p, known):
    """Zeros of p between neighbouring nodes v where it changes sign, found by
    vectorised bisection on value_of(v) > 0; brackets holding a zero in
    `known` are skipped."""
    up = p > 0
    i = np.flatnonzero(up[:-1] != up[1:])
    i = i[np.searchsorted(known, v[i]) == np.searchsorted(known, v[i + 1])]
    lo, hi, up = v[i], v[i + 1], up[i]
    while len(lo) and np.max(hi - lo) > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        same = (value_of(mid) > 0) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _endpoint_rule(alpha):
    """The L1 panel at v = 0 as a rule on [-1, 1]: the nodes of
    _jacobi_panel(alpha, 2 Y_ORDER), whose weights are its value row, and of
    _jacobi_panel(alpha, Y_ORDER), whose weights are its estimate row, sorted."""
    (gk, wk), (gg, wg) = _jacobi_panel(alpha, 2 * Y_ORDER), _jacobi_panel(alpha, Y_ORDER)
    order = np.argsort(np.concatenate((gk, gg)))
    g, wk, wg = (np.concatenate(r)[order] for r in ((gk, gg), (wk, 0 * wg), (0 * wk, wg)))
    return 2.0 * g - 1.0, 2.0 * wk, 2.0 * wg


def _l1_integral(params, t, x, m):
    """int of |p(y)| dy for p = d^m/dt^m p_t(x, .) at d = 1 by the L1 panel
    rule of the module docstring, and the values of p at its last panels'
    nodes.  A panel is read once per s panel count and kept until it is split."""
    alpha, breaks = params.alpha[0], _v_breaks(_above_t_min(t), x[0], params.alpha[0])
    sub, read, zeros = KERNEL_PANELS, {}, np.empty(0)
    kernel = lambda v: _poisson_block_once(params, t, x, (v * v)[:, None], m, sub)
    for _ in range(SUB_DOUBLINGS + 1):
        panels = list(zip(breaks[:-1], breaks[1:]))
        kron = _panels(breaks, *gauss_kronrod_rule(Y_ORDER))
        end = _panels(breaks[:2], *_endpoint_rule(alpha))
        new = [i for i, key in enumerate(panels) if key not in read]
        if not new:  # no panel could be split, and the s panels stand
            break
        rules = [[r[i] for r in (end if i == 0 else kron)] for i in new]
        rows = kernel(np.concatenate([v for v, _, _ in rules]))
        kron_p, errs = rows[0], _estimate(rows)
        at = np.cumsum([len(v) for v, _, _ in rules])[:-1]
        for i, (v, wk, wg), p, e in zip(new, rules, np.split(kron_p, at), np.split(errs, at)):
            f = 2.0 * v * np.abs(p)
            read[panels[i]] = v, p, np.dot(wk, f), np.dot(wg, f), np.dot(np.abs(wk), 2.0 * v * e)
        v, p, sums, gauss, s_err = (np.hstack(c) for c in zip(*(read[key] for key in panels)))
        # p / y^alpha at y = 0 from the parabola through the first three nodes, in y / y_1
        r = (v[:3] / v[0]) ** 2
        c0 = sum(p[i] / r[i] ** alpha * np.prod(np.delete(r, i) / (np.delete(r, i) - r[i]))
                 for i in range(3))
        found = _sign_changes(lambda u: kernel(u)[0], np.append(0.0, v), np.append(c0, p), zeros)
        total, err, s_err = float(sums.sum()), np.abs(sums - gauss), float(s_err.sum())
        tol = max(SUB_ABS, SUB_REL * abs(total))
        if not len(found) and err.sum() + s_err <= tol:
            return total, p
        if s_err > 0.5 * tol:
            sub, read = 2 * sub, {}
        # a panel that a zero splits is not halved as well
        halve = err > tol / len(panels)
        halve[np.searchsorted(breaks, found) - 1] = False
        mids = 0.5 * (breaks[:-1] + breaks[1:])[halve]
        zeros, breaks = np.union1d(zeros, found), np.union1d(breaks, np.append(found, mids))
    raise QuadratureError(f"the L1 y integral at t={t}, x={x}, m={m} did not settle in "
                          f"{SUB_DOUBLINGS} passes or ran out of panels to split: sum {total!r}, y "
                          f"estimate {err.sum():.3g}, s estimate {s_err:.3g} against tol {tol:.3g}")


def l1_kernel_derivative(params: MultiIndexParams, t: float, x, m: int) -> float:
    """int over (0, inf) of |d^m/dt^m p_t(x, y)| dy, at d = 1, by the v-panel
    rule of _l1_integral on blocks of kernel values."""
    if params.d != 1:
        raise DomainError("l1_kernel_derivative is one-dimensional; d must be 1")
    q = KernelQuery(params, t, x, derivative_order=m)
    return _l1_integral(params, q.t, q.x, m)[0]
