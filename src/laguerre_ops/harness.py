"""Claim table, scenario runner and command-line interface of the verification suite.

Each entry of _TABLE states one scenario's claim once.  Its runner returns
(rows, max_ratio, passed[, extra]), and run_scenario alone builds and times
the BoundReport from them; check_equivalence, check_approximation and
check_pminusI_power report their claim's reader on a given input.  An
entry's hypothesis on (beta, lam) is stated there alone, and applied
(_Scenario.admit) as a ConfigError to a config and as a DomainError to a
public check.  Every tolerance is a fixed literal that the row checked
against it carries as its bound: bounds with explicit tolerances PASS or
FAIL outright; existence-only claims report measured constants and PASS by
finiteness plus stability under grid refinement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, check_above, check_integer
from .expansion import (
    OPERATORS,
    LaguerreExpansion,
    MultiIndexParams,
    SpectralMultiplier,
    pi0,
    random_expansion,
    spectral_apply,
)
from .fractional import (
    FracOpConfig,
    _apply_expansion,
    forward_difference,
    smallest_integer_above,
)
from .kernels import (
    KernelQuery,
    S_CUTOFF,
    _leggauss,
    _l1_integral,
    _panels,
    _s_floor,
    heat_apply_kernel,
    l1_kernel_derivative,
    poisson_apply,
    stable_density,
    stable_tail_mass,
)
from .lipschitz import _measure, default_t_grid
from .report import BoundReport, ReportRow, emit_report
from .specfun import laguerre_poly


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one verification scenario."""

    scenario: str
    d: int = 1
    alpha: tuple = (0.5,)
    beta: float = None
    lam: float = None
    seed: int = 0
    degree: int = 6
    t_levels: int = 11

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        try:
            for name, low in (("seed", 0), ("degree", 0), ("t_levels", 1)):
                check_integer(getattr(self, name), low, name)
            object.__setattr__(self, "alpha", MultiIndexParams(self.d, self.alpha).alpha)
            for name in ("beta", "lam"):
                if getattr(self, name) is not None:
                    check_above(name, (getattr(self, name),))
        except DomainError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        # the first time of the theorem grids to underflow as t_levels grows is
        # _refined_t_grid's first midpoint sqrt(a * 2a), a = 5 * 2^-(t_levels-1)
        a = math.ldexp(5.0, 1 - self.t_levels)
        if not math.sqrt(a * (2.0 * a)) >= sys.float_info.min:
            raise ConfigError("t_levels is so large that the smallest grid times underflow")
        entry = _TABLE[self.scenario]
        defaults = {f.name: f.default for f in fields(self)}
        unread = [n for n in _OPTIONAL if n not in entry.reads and getattr(self, n) != defaults[n]]
        if unread:
            raise ConfigError(f"scenario {self.scenario} does not read {', '.join(unread)}")
        if entry.one_dim and self.d != 1:
            raise ConfigError(f"scenario {self.scenario} is one-dimensional; d must be 1")
        entry.admit(*entry.beta_lam(self), ConfigError)

    @property
    def params(self) -> MultiIndexParams:
        return MultiIndexParams(self.d, self.alpha)

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or "scenario" not in doc:
            raise ConfigError("config must be a JSON object with a scenario")
        bad = set(doc) - {f.name for f in fields(ScenarioConfig)}
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        return ScenarioConfig(**doc)


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------


def _run_subordination(cfg):
    tol = 1e-8
    rows = []
    for t in (0.1, 1.0, 5.0):
        # 96 Gauss-Legendre panels in log s from the floor of t to S_CUTOFF
        breaks = np.exp(np.linspace(math.log(_s_floor(t)), math.log(S_CUTOFF), 97))
        s, w = _panels(np.log(breaks), *_leggauss(12))
        s, w = np.exp(s.ravel()), w.ravel()
        g = stable_density(t, s) * s
        mass_past = stable_tail_mass(0, t, S_CUTOFF)
        for n in range(11):
            body = float(np.dot(w, g * np.exp(-n * s)))
            tail = math.exp(-n * S_CUTOFF) * mass_past
            err = abs(body + tail - math.exp(-t * math.sqrt(n)))
            rows.append(ReportRow(f"t={t:g},n={n}", err, tol))
    return rows, max(r.measured for r in rows) / tol, all(r.measured <= r.bound for r in rows)


def _run_kernel_mass(cfg):
    tol = 1e-6
    rows = []
    min_val = math.inf
    for t in (0.25, 1.0):
        for x in (0.5, 1.0, 2.0):
            mass, vals = _l1_integral(cfg.params, t, (x,), 0)
            min_val = min(min_val, float(np.min(vals)))
            rows.append(ReportRow(f"t={t:g},x={x:g}", abs(mass - 1.0), tol))
    rows.append(ReportRow("min-node-value", -min_val, 0.0))
    passed = all(r.measured <= r.bound for r in rows)
    return rows, max(r.measured for r in rows[:-1]) / tol, passed, {"min_node_value": min_val}


#: report-row name of each operator with a time-integral route, and the order lam
#: at which spectral-vs-kernel checks its quadrature route
_FRACTIONAL_ROWS = {
    "bessel_potential": ("potential", 1.0),
    "fractional_integral": ("integral", 0.7),
    "fractional_derivative": ("derivative", 0.7),
    "bessel_derivative": ("bessel-derivative", 0.7),
}


def _run_spectral_vs_kernel(cfg):
    tol = 1e-6
    params = cfg.params
    (alpha,) = cfg.alpha
    heat_t, poisson_t, x, degree = 0.5, 0.75, 1.3, 6
    # every quadrature multiplier against its symbol, all orders at once
    ones = LaguerreExpansion(params, degree, np.ones(degree + 1))
    frac_err = {}
    for kind, (_, lam) in _FRACTIONAL_ROWS.items():
        m = SpectralMultiplier(kind, lam)
        source = pi0(ones) if m.zero_mean else ones
        want = spectral_apply(m, source).vector
        got = _apply_expansion(kind, source, FracOpConfig(lam)).vector
        frac_err[kind] = (np.abs(got - want) / np.maximum(np.abs(want), 1.0)).tolist()
    rows = []
    for k in range(degree + 1):
        f = lambda y, k=k: laguerre_poly(k, alpha, y)
        fx = laguerre_poly(k, alpha, x)
        denom = max(abs(fx), 1.0)
        got = heat_apply_kernel(f, KernelQuery(params, heat_t, (x,)))
        want = math.exp(-heat_t * k) * fx
        rows.append(ReportRow(f"heat,a={alpha:g},k={k}", abs(got - want) / denom, tol))
        got = poisson_apply(f, params, poisson_t, (x,))
        want = math.exp(-poisson_t * math.sqrt(k)) * fx
        rows.append(ReportRow(f"poisson,a={alpha:g},k={k}", abs(got - want) / denom, tol))
        for kind, err in frac_err.items():
            if k > 0 or not OPERATORS[kind].zero_mean:
                name = _FRACTIONAL_ROWS[kind][0]
                rows.append(ReportRow(f"{name},a={alpha:g},k={k}", err[k], tol))
    return rows, max(r.measured for r in rows) / tol, all(r.measured <= r.bound for r in rows)


def _run_lemma21(cfg):
    # dyadic points 0.05 * 2^j inside [0.05, 5]
    t_grid = [0.05 * 2.0**j for j in range(7)]
    rows, ratios = [], {}
    for m in (1, 2):
        for t in t_grid:
            for x in (0.5, 1.0, 2.0):
                q = t**m * l1_kernel_derivative(cfg.params, t, (x,), m)
                rows.append(ReportRow(f"m={m},t={t:g},x={x:g}", q, math.inf))
                ratios.setdefault(m, []).append(q)
    spreads = {m: max(v) / min(v) for m, v in ratios.items()}
    worst = max(spreads.values())
    passed = all(math.isfinite(v) for v in spreads.values()) and worst < 50.0
    return rows, worst, passed, {f"spread_m{m}": v for m, v in spreads.items()}


def _seeded_function(cfg):
    return random_expansion(cfg.params, cfg.degree, seed=cfg.seed)


def _equivalence(f, params, beta, k, l, t_grid=None, x_grid=None):
    """The order-k and order-l seminorms of f and their ratio (spectral path).

    Both are finite for smooth inputs; the measured ratio is recorded, with
    PASS meaning finite values inside the declared comparability window
    [1/50, 50] (the underlying equivalence provides no explicit constant).
    """
    beta = check_above("beta", (beta,))[0]
    k, l = check_integer(k, 1, "k"), check_integer(l, 1, "l")
    if k <= beta or l <= beta:
        raise DomainError("both derivative orders must exceed beta")
    _, _, ((a_k, _), (a_l, _)) = _measure(params, t_grid, x_grid, (f, k, beta), (f, l, beta))
    ratio = a_k / a_l if a_l != 0.0 else (1.0 if a_k == 0.0 else math.inf)
    rows = [ReportRow(f"order={k}", a_k, math.inf), ReportRow(f"order={l}", a_l, math.inf),
            ReportRow("ratio", ratio, 50.0)]
    return rows, ratio, math.isfinite(ratio) and 1.0 / 50.0 <= ratio <= 50.0


def _approximation(f, params, beta, t_grid=None, x_grid=None):
    """||P_t f - f||_inf against 1.05 A_beta(f) t^beta on the grids (spectral path)."""
    beta = check_above("beta", (beta,))[0]
    n = smallest_integer_above(beta)
    t_grid, _, ((a_beta, _), sups) = _measure(params, t_grid, x_grid, (f, n, beta), (f, 1))
    rows = [ReportRow(f"t={t:.6g}", measured, 1.05 * a_beta * t**beta)
            for t, measured in zip(t_grid, sups.tolist())]
    worst = max([r.measured / r.bound for r in rows if r.bound > 0], default=0.0)
    return rows, worst, all(r.measured <= r.bound for r in rows)


def _pminusI(f, params, beta, t_grid=None, x_grid=None):
    """Grid sup of |(P_t - I)^n f| against 2^n ||f||_inf and A_beta t^beta,
    n = smallest_integer_above(beta) (spectral path)."""
    beta = check_above("beta", (beta,))[0]
    n = smallest_integer_above(beta)
    t_grid, _, ((a_beta, _), (f_sup,), sups) = _measure(
        params, t_grid, x_grid, (f, n, beta), (f, 0), (f, n))
    # n-fold simplex integral of v^(beta-n) over [0,t]^n equals
    # C(n, beta) t^beta with C = Delta_1^n(x^beta, 0) / prod_(i<n) (beta-i)
    denom = math.prod(beta - i for i in range(n))
    simplex_c = forward_difference(lambda u: u**beta, n, 1.0, 0.0) / denom
    rows, uniform = [], 2.0**n * float(f_sup)
    for t, measured in zip(t_grid, sups.tolist()):
        rows.append(ReportRow(f"t={t:.6g},uniform", measured, uniform))
        rows.append(ReportRow(f"t={t:.6g},holder", measured, simplex_c * a_beta * t**beta))
    ratios = [r.measured / r.bound for r in rows if r.bound > 0]
    return rows, max(ratios, default=0.0), all(r.measured <= r.bound * (1 + 1e-12) for r in rows)


def _refined_t_grid(levels):
    """Same span as the dyadic grid with geometric midpoints inserted."""
    base = default_t_grid(levels)
    mids = [math.sqrt(a * b) for a, b in zip(base[:-1], base[1:])]
    return [v for pair in zip(base, mids) for v in pair] + base[-1:]


def _orders(kinds, cfg):
    """Per operator, A_beta' of its output over the Lipschitz norm of its input,
    where beta' = beta + lam for a potential and beta - lam for a derivative,
    on the dyadic t-grid and on the refined one, and the drift between them:
    every seminorm from one stacked synthesis.  The input is the seeded
    expansion f, or pi0 f where one of the operators needs a zero-mean input."""
    beta, lam, f = cfg.beta, cfg.lam, _seeded_function(cfg)
    if any(OPERATORS[kind].zero_mean for kind in kinds):
        f = pi0(f)
    grids = (default_t_grid(cfg.t_levels), _refined_t_grid(cfg.t_levels))
    # f at beta, then each operator's output at its own order
    targets = [(f, beta)] + [
        (_apply_expansion(kind, f, FracOpConfig(lam)),
         beta + lam if OPERATORS[kind].route[1] == "laplace" else beta - lam) for kind in kinds]
    _, _, (*seminorms, (f_sup,)) = _measure(cfg.params, grids[0], None, *[
        (g, smallest_integer_above(b), b, ts) for g, b in targets for ts in grids], (f, 0))
    a = [a_beta for a_beta, _ in seminorms]  # each target's A on the dyadic, then the refined grid
    norms = (float(f_sup) + a[0], float(f_sup) + a[1])
    drift_tol = 0.10
    rows, worst_drift, finite = [], 0.0, True
    for kind, coarse, fine in zip(kinds, a[2::2], a[3::2]):
        coarse, fine = coarse / norms[0], fine / norms[1]
        drift = abs(fine - coarse) / coarse if coarse > 0 else math.inf
        finite = finite and math.isfinite(coarse) and math.isfinite(fine)
        worst_drift = max(worst_drift, drift)
        name = _FRACTIONAL_ROWS[kind][0]
        rows.append(ReportRow(f"{name},ratio", coarse, math.inf))
        rows.append(ReportRow(f"{name},refined", fine, math.inf))
        rows.append(ReportRow(f"{name},drift", drift, drift_tol))
    return rows, worst_drift, finite and worst_drift <= drift_tol


def _run_fdiff(cfg):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.uniform(-1.0, 1.0, 5)
    poly = np.polynomial.Polynomial(coeffs)
    tol_exact = 5e-13
    # iteration identity
    for k in (2, 3, 4):
        s, t = 0.37, 0.6
        lhs = forward_difference(poly, k, s, t)
        rhs = forward_difference(
            lambda u: forward_difference(poly, k - 1, s, u), 1, s, t
        )
        rows.append(ReportRow(f"iterate,k={k}", abs(lhs - rhs), tol_exact))
    # k-fold integral of the k-th derivative (f = exp makes both sides exact)
    for k in (1, 2, 3):
        s, t = 0.2, 0.1
        lhs = forward_difference(math.exp, k, s, t)
        rhs = math.exp(t) * math.expm1(s) ** k
        rows.append(ReportRow(f"integral,k={k}", abs(lhs - rhs), 1e-10))
    # commutation with d/dt on polynomials: Delta_s^k(poly, .) taken at the
    # polynomial t is a polynomial in t; differentiate, compare with the
    # difference of the derivative polynomial
    for j, k in ((1, 2), (2, 2)):
        s, t = 0.45, 0.8
        lhs = forward_difference(poly, k, s, np.polynomial.Polynomial([0, 1])).deriv(j)(t)
        rhs = forward_difference(poly.deriv(j), k, s, t)
        rows.append(ReportRow(f"commute,j={j},k={k}", abs(lhs - rhs), tol_exact))
    # ratio bound for power functions
    for delta in (0.3, 0.7):
        for k in (1, 2):
            cap = math.prod(abs(delta - i) for i in range(k))
            # 16 values of s in [1e-3, t] down each column of the t grid
            t = np.linspace(0.1, 2.0, 16)
            s = np.linspace(1e-3, t, 16)
            val = np.abs(forward_difference(lambda u: u**delta, k, s, t))
            worst = float(np.max(val / (s**k * t ** (delta - k))))
            rows.append(ReportRow(f"power,delta={delta:g},k={k}", worst, cap))
    passed = all(r.measured <= r.bound for r in rows if math.isfinite(r.bound))
    return rows, max(r.measured / r.bound for r in rows if r.bound > 0), passed


class _Scenario(NamedTuple):
    """A scenario's runner and the claim it checks; the fields among beta,
    lam, degree and t_levels that it reads, and the beta and lam it takes
    where the config leaves them None; whether it is one-dimensional; and
    its hypothesis on (beta, lam), with the error text of an input that
    breaks it (admit)."""

    run: object
    claim: str
    reads: tuple = ()
    defaults: tuple = (None, None)
    one_dim: bool = False
    hypothesis: tuple = None

    def beta_lam(self, cfg):
        """cfg's beta and lam, each the default where cfg leaves it None."""
        return tuple(d if v is None else v for v, d in zip((cfg.beta, cfg.lam), self.defaults))

    def admit(self, beta, lam=None, error=DomainError):
        """Raise error, with the hypothesis's text, where (beta, lam) breaks it."""
        if self.hypothesis and not self.hypothesis[0](beta, lam):
            raise error(self.hypothesis[1])


#: the fields a scenario reads only where its entry says so; a theorem reads them all
_OPTIONAL = ("beta", "lam", "degree", "t_levels")
_BELOW_ONE = (lambda b, l: 0 < l < b < 1, "this scenario requires 0 < lambda < beta < 1")

#: every scenario, in the order list-scenarios prints them
_TABLE = {
    "subordination": _Scenario(
        _run_subordination,
        "the one-sided stable-1/2 weight Laplace-transforms to the square-root exponential"),
    "kernel-mass": _Scenario(
        _run_kernel_mass,
        "the Poisson kernel integrates to one in y and is nonnegative at the quadrature nodes",
        one_dim=True),
    "spectral-vs-kernel": _Scenario(
        _run_spectral_vs_kernel,
        "kernel and time-integral quadratures reproduce the diagonal eigenvalues of every "
        "operator", one_dim=True),
    "lemma21": _Scenario(
        _run_lemma21,
        "scaled L1 norms of Poisson kernel time derivatives stay uniformly comparable across "
        "times and centers", one_dim=True),
    "prop31": _Scenario(
        lambda c: _equivalence(_seeded_function(c), c.params, c.beta,
                               smallest_integer_above(c.beta), smallest_integer_above(c.beta) + 1),
        "seminorms built from any two derivative orders above beta are equivalent up to a "
        "constant", ("beta", "degree"), (0.5, None)),
    "prop33": _Scenario(
        lambda c: _approximation(_seeded_function(c), c.params, c.beta),
        "the semigroup approximates a Lipschitz function at rate t^beta with constant A_beta",
        ("beta", "degree"), (0.9, None),
        hypothesis=(lambda b, l: b < 1, "prop33 requires 0 < beta < 1")),
    "pminusI": _Scenario(
        lambda c: _pminusI(_seeded_function(c), c.params, c.beta),
        "powers of (P_t - I) are uniformly bounded by 2^n ||f|| and decay like t^beta on "
        "Lipschitz inputs", ("beta", "degree"), (0.5, None),
        hypothesis=(lambda b, l: not float(b).is_integer(),
                    "pminusI requires a beta that is not an integer")),
    "thm31": _Scenario(
        partial(_orders, ("bessel_potential",)),
        "the smoothing potential raises the Lipschitz order by lambda", _OPTIONAL, (0.5, 1.0)),
    "thm-frac-integral": _Scenario(
        partial(_orders, ("fractional_integral",)),
        "the fractional integral raises the Lipschitz order of a zero-mean input by lambda",
        _OPTIONAL, (0.5, 1.0)),
    "thm42": _Scenario(
        partial(_orders, ("fractional_derivative",)),
        "the fractional derivative lowers the Lipschitz order by lambda for 0 < lambda < beta "
        "< 1", _OPTIONAL, (0.8, 0.3), hypothesis=_BELOW_ONE),
    "thm33": _Scenario(
        partial(_orders, ("bessel_derivative",)),
        "the damped fractional derivative lowers the Lipschitz order by lambda",
        _OPTIONAL, (0.8, 0.3), hypothesis=_BELOW_ONE),
    "thm44": _Scenario(
        partial(_orders, ("fractional_derivative", "bessel_derivative")),
        "both fractional derivatives stay bounded between Lipschitz classes for 1 <= lambda "
        "< beta", _OPTIONAL, (2.3, 1.5),
        hypothesis=(lambda b, l: 1 <= l < b, "this scenario requires 1 <= lambda < beta")),
    "fdiff-identities": _Scenario(
        _run_fdiff,
        "forward differences obey the iteration, integral, and derivative-commutation "
        "identities and the power-function ratio bound"),
}
SCENARIOS = tuple(_TABLE)


def _report(scenario, config, rows, max_ratio, passed, extra=None, started=None):
    """The report of a runner's result under the scenario's claim; its
    wall time is the time since the perf_counter value started, if given."""
    wall_time = 0.0 if started is None else time.perf_counter() - started
    return BoundReport(scenario, _TABLE[scenario].claim, config, rows, max_ratio, passed,
                       wall_time, extra or {})


def run_scenario(cfg: ScenarioConfig) -> BoundReport:
    """Run cfg's scenario and report its rows, verdict and wall time."""
    started = time.perf_counter()
    entry = _TABLE[cfg.scenario]
    # the runner reads beta and lam with the scenario's defaults filled in
    beta, lam = entry.beta_lam(cfg)
    result = entry.run(replace(cfg, beta=beta, lam=lam))
    return _report(cfg.scenario, {**asdict(cfg), "alpha": list(cfg.alpha)}, *result,
                   started=started)


def check_equivalence(f, params: MultiIndexParams, beta: float, k: int, l: int,
                      t_grid=None, x_grid=None) -> BoundReport:
    """The prop31 report of f: its order-k and order-l seminorms (_equivalence)."""
    result = _equivalence(f, params, beta, k, l, t_grid, x_grid)
    return _report("prop31", {"beta": float(beta), "k": int(k), "l": int(l)}, *result)


def check_approximation(f, params: MultiIndexParams, beta: float,
                        t_grid=None, x_grid=None) -> BoundReport:
    """The prop33 report of f: ||P_t f - f|| against 1.05 A_beta t^beta (_approximation)."""
    _TABLE["prop33"].admit(check_above("beta", (beta,))[0])
    result = _approximation(f, params, beta, t_grid, x_grid)
    return _report("prop33", {"beta": float(beta)}, *result)


def check_pminusI_power(f, params: MultiIndexParams, beta: float,
                        t_grid=None, x_grid=None) -> BoundReport:
    """The pminusI report of f: (P_t - I)^n f against its two bounds (_pminusI)."""
    _TABLE["pminusI"].admit(check_above("beta", (beta,))[0])
    result = _pminusI(f, params, beta, t_grid, x_grid)
    return _report("pminusI", {"beta": float(beta), "n": smallest_integer_above(beta)}, *result)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="laguerre-ops",
        description="verification suite for Laguerre semigroup operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("--scenario", required=True, choices=SCENARIOS)
    runp.add_argument("--config", help="JSON ScenarioConfig file")
    runp.add_argument("--out", help="report output path")
    runp.add_argument("--format", choices=("json", "csv"), default="json")
    runp.add_argument("--seed", type=int, default=None)
    sub.add_parser("list-scenarios", help="print known scenario tags")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for tag in SCENARIOS:
            print(tag)
        return 0

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = ScenarioConfig.from_json(fh.read())
            if cfg.scenario != args.scenario:
                raise ConfigError(
                    f"--scenario {args.scenario} does not match config file "
                    f"scenario {cfg.scenario}"
                )
        else:
            cfg = ScenarioConfig(scenario=args.scenario)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out:
            open(args.out, "a").close()  # an unwritable path fails here, before the run
        report = run_scenario(cfg)
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.scenario}: {status} (max ratio {report.max_ratio:.6g})")
        if args.out:
            emit_report(report, args.out, args.format)
            print(f"report written to {args.out}")
    except (ConfigError, DomainError, OSError) as exc:  # OSError: a config or out path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
