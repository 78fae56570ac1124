"""The benchmark's workloads: seeded rounds of checked items.

A workload is a generator of rounds.  Every round of a workload has the same
item types in the same numbers; the seed draws each item's inputs.  An item
holds the library calls to time (``run``) and a check of their result, plus
what the self-test needs to prove the check fires: a value the check accepts
(``ideal``) and values pushed past the tolerance (``perturb``).

Tolerances are the ones the package's tests and scenarios already state:

* l1_kernel_derivative vs the stored quad reference: 1e-6 relative
  (ROADMAP item 1's "current quad reference").
* kernel mass |int p_t(x, y) dy - 1|: 1e-6 (kernel-mass scenario).
* heat and Poisson kernel route vs the spectral route: 1e-6 relative with a
  floor of 1 on |f(x)| (spectral-vs-kernel scenario); the same for the
  quadrature multipliers of the four *_expansion operators.
* callable Bessel potential: 1e-6 absolute, callable fractional derivative:
  1e-4 absolute (tests/test_fractional.py).  The callable fractional
  integral runs through the same Laplace route as the potential and is held
  to the potential's 1e-6.
* analyze of synthesize_many: 1e-12 absolute per coefficient
  (tests/test_expansion.py).
* scenario (passed, max_ratio), seminorm values and theorem ratios: 1e-9
  relative (tests/fixtures/theorem_ratios.json, acceptance criterion 7).

The workloads draw only inputs on which the package meets these
tolerances at the seed, so any failed item is a regression.  The known
defects stay visible in bench/defects.py, which reruns them:

* the callable routes of the fractional operators miss the tests'
  tolerances for many lambda (the Laplace route of bessel_potential_apply
  and fractional_integral_apply below 1, the difference route of
  fractional_derivative_apply from about 0.8 up).  The pointwise workload
  draws its callable items from the entries of refs/callable.json that
  passed when the table was built;
* the expansion route's difference quadrature
  (fractional_derivative_expansion, bessel_derivative_expansion) misses
  1e-6 within about 0.015 below an integer lambda, so the spectral
  workload draws no derivative lambda with k - lambda < NEAR_ORDER.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
import pools

L1_REL = 1e-6
MASS_ABS = 1e-6
KERNEL_REL = 1e-6
LAPLACE_ABS = 1e-6
DERIVATIVE_ABS = 1e-4
ROUNDTRIP_ABS = 1e-12
RATIO_REL = 1e-9
# the difference-route multipliers lose accuracy as lambda rises to its
# difference order k: 4e-8 at k - lambda = 0.02, 1e-5 at 0.01, 4e-4 at 0.005
NEAR_ORDER = 0.02

ALPHAS = pools.L1_ALPHAS
MAX_K = {1: 6, 2: 3}  # largest k_j a pointwise input draws, per dimension
SPECTRAL_DEGREE = {1: 10, 2: 6, 3: 4}  # 11, 28 and 35 coefficients
THEOREM_SCENARIOS = ("thm31", "thm42", "thm33", "thm44")


@dataclass
class Item:
    kind: str
    inputs: dict
    run: Callable[[], object]
    check: Callable[[object], object]  # None when correct, else the reason
    perturb: Callable[[object], list]
    ideal: Callable[[], object] = None  # None: run() itself is cheap enough


def load_refs(bench_dir, names):
    refs = {}
    for name in names:
        with open(os.path.join(bench_dir, "refs", name + ".json")) as fh:
            refs[name] = json.load(fh)
    return refs


def _within(err, tol, what):
    return None if err <= tol else f"{what} {err:.3g} exceeds {tol:g}"


def _rel(got, want):
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else math.inf


# ---------------------------------------------------------------------------
# l1-kernel
# ---------------------------------------------------------------------------

L1_PAIRS_PER_ROUND = 1


def l1_item(lo, refs, key, alpha, t, x, m):
    want = float(refs["l1_kernel"]["items"][key]["value"])
    return Item(
        "l1", {"alpha": alpha, "t": t, "x": x, "m": m},
        run=lambda: lo.l1_kernel_derivative(lo.MultiIndexParams(1, (alpha,)), t, (x,), m),
        check=lambda v: _within(_rel(v, want), L1_REL, "relative error"),
        ideal=lambda: want,
        perturb=lambda v: [v * (1 + 1e-5)],
    )


def mass_item(lo, alpha, t, x):
    y_nodes, weights = pools.mass_y_rule()

    def run():
        params = lo.MultiIndexParams(1, (alpha,))
        values = [lo.poisson_kernel(lo.KernelQuery(params, t, (x,), (float(y),)))
                  for y in y_nodes]
        return float(np.dot(weights, values))

    return Item(
        "mass", {"alpha": alpha, "t": t, "x": x}, run,
        check=lambda v: _within(abs(v - 1.0), MASS_ABS, "|mass - 1|"),
        ideal=lambda: 1.0,
        perturb=lambda v: [v + 1e-5],
    )


def _cost_pairs(entries, cost):
    """Pair the cheapest entry with the dearest, the second with the second
    dearest, and so on, so that every pair costs about the same."""
    ranked = sorted(entries, key=cost)
    n = len(ranked)
    return [(ranked[i], ranked[n - 1 - i]) for i in range(n // 2)]


def l1_rounds(lo, refs, seed, workdir, wrap):
    """Per round: one pair of lemma21-grid items and one pair of mass items.

    Pairs join items ranked by their time at the seed (``refs/costs.json``),
    so every round carries about the same work while the seed picks the pairs.
    """
    rng = np.random.default_rng(seed)
    costs = refs["costs"]["items"]
    l1_pairs = _cost_pairs(pools.l1_pool(), lambda p: (costs[p[0]]["seconds"], p[0]))
    mass_pairs = _cost_pairs(
        pools.mass_pool(), lambda p: (costs["mass:" + pools.mass_key(*p)]["seconds"], p))
    l1_order = rng.permutation(len(l1_pairs))
    mass_order = rng.permutation(len(mass_pairs))
    per = L1_PAIRS_PER_ROUND
    for r in range(len(l1_pairs) // per):
        chosen = [p for j in l1_order[r * per:(r + 1) * per] for p in l1_pairs[j]]
        items = [l1_item(lo, refs, key, a, t, x, m) for key, a, t, x, m in chosen]
        items += [mass_item(lo, *p) for p in mass_pairs[mass_order[r % len(mass_pairs)]]]
        yield [items[i] for i in rng.permutation(len(items))]


def l1_warm_up(lo, workdir):
    params = lo.MultiIndexParams(1, (0.5,))
    lo.poisson_kernel(lo.KernelQuery(params, 0.5, (1.0,), (1.0,)))
    lo.poisson_kernel_dt(lo.KernelQuery(params, 0.5, (1.0,), (1.0,), derivative_order=1))


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

# (kind, d, count) per round, plus one callable-operator item of each kind
# in pools.CALLABLE_KINDS
POINTWISE_ROUND = (("heat", 1, 12), ("heat", 2, 4), ("poisson", 1, 3), ("poisson", 2, 1))


def _spectral_value(lo, symbol, params, k, x):
    basis = lo.LaguerreExpansion(params, sum(k), {k: 1.0})
    return lo.synthesize(lo.spectral_apply(symbol, basis), np.asarray(x))


def route_item(lo, kind, params, k, t, x, wrap):
    """heat_apply_kernel or poisson_apply on f = L_k^alpha against the spectral route."""
    f = wrap(oracle.laguerre_input(k, params.alpha, MAX_K[params.d]))
    floor = max(abs(oracle.laguerre_at(k, params.alpha, x)), 1.0)
    if kind == "heat":
        kernel = lambda: lo.heat_apply_kernel(f, lo.KernelQuery(params, t, x))
        spectral = lambda: _spectral_value(lo, lo.heat(t), params, k, x)
    else:
        kernel = lambda: lo.poisson_apply(f, params, t, x)
        spectral = lambda: _spectral_value(lo, lo.poisson(t), params, k, x)
    return Item(
        kind, {"d": params.d, "alpha": params.alpha, "k": k, "t": t, "x": x},
        run=lambda: (kernel(), spectral()),
        check=lambda v: _within(abs(v[0] - v[1]) / floor, KERNEL_REL,
                                "error relative to max(|f(x)|, 1)"),
        ideal=lambda: (spectral(),) * 2,
        perturb=lambda v: [(v[0] + 1e-5 * floor, v[1])],
    )


def callable_op_item(lo, kind, params, k, lam, x, wrap):
    """A callable-route fractional operator on f = L_k^alpha against its symbol."""
    f = wrap(oracle.laguerre_input(k, params.alpha, MAX_K[params.d]))
    symbol = getattr(lo, kind)(lam)
    tol = DERIVATIVE_ABS if kind == "fractional_derivative" else LAPLACE_ABS
    spectral = lambda: _spectral_value(lo, symbol, params, k, x)
    return Item(
        kind, {"alpha": params.alpha, "k": k, "lambda": lam, "x": x},
        run=lambda: (getattr(lo, kind + "_apply")(f, params, lam, x), spectral()),
        check=lambda v: _within(abs(v[0] - v[1]), tol, "absolute error"),
        ideal=lambda: (spectral(),) * 2,
        perturb=lambda v: [(v[0] + 10 * tol, v[1])],
    )


def passing_callable_entries(refs):
    """{kind: [(alpha, k, lam, x)]} of the callable pool entries that met their tolerance."""
    table = refs["callable"]["items"]
    entries = {kind: [] for kind in pools.CALLABLE_KINDS}
    for key, kind, alpha, k, lam, x in pools.callable_pool():
        if table[key]["passed"]:
            entries[kind].append((alpha, k, lam, x))
    return entries


def pointwise_rounds(lo, refs, seed, workdir, wrap):
    """Kernel-route values at one point with f = L_k^alpha as a callable."""
    rng = np.random.default_rng(seed)
    callables = passing_callable_entries(refs)

    def params(d):
        return lo.MultiIndexParams(d, tuple(float(rng.choice(ALPHAS)) for _ in range(d)))

    def point(d):
        return tuple(float(v) for v in rng.uniform(0.3, 3.0, d))

    def log_uniform(lo_, hi):
        return float(math.exp(rng.uniform(math.log(lo_), math.log(hi))))

    while True:
        items = []
        for kind, d, count in POINTWISE_ROUND:
            for _ in range(count):
                p = params(d)
                k = tuple(int(v) for v in rng.integers(0, MAX_K[d] + 1, d))
                t = log_uniform(0.1, 2.0) if kind == "heat" else log_uniform(0.25, 2.0)
                items.append(route_item(lo, kind, p, k, t, point(d), wrap))
        for kind in pools.CALLABLE_KINDS:
            alpha, k, lam, x = callables[kind][int(rng.integers(len(callables[kind])))]
            items.append(callable_op_item(lo, kind, lo.MultiIndexParams(1, (alpha,)), (k,), lam,
                                          (x,), wrap))
        yield items


def pointwise_warm_up(lo, workdir):
    for d in (1, 2):
        params = lo.MultiIndexParams(d, (0.5,) * d)
        q = lo.KernelQuery(params, 0.5, (1.0,) * d)
        lo.heat_apply_kernel(lambda y: np.ones(np.shape(y)[0]), q)
    lo.gauss_laguerre_rule(0.5, 200)
    _spectral_value(lo, lo.poisson(0.5), lo.MultiIndexParams(1, (0.5,)), (1,), (1.0,))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def seminorm_item(lo, e, beta):
    def check(est):
        a_beta, f_sup = oracle.seminorm(e, beta)
        return (_within(_rel(est.A_beta, a_beta), RATIO_REL, "A_beta relative error")
                or _within(_rel(est.f_sup, f_sup), RATIO_REL, "sup|f| relative error"))

    return Item(
        "seminorm", _expansion_inputs(e, beta=beta),
        run=lambda: lo.lipschitz_seminorm(e, e.params, beta),
        check=check,
        perturb=lambda est: [dataclasses.replace(est, A_beta=est.A_beta * (1 + 1e-8)),
                             dataclasses.replace(est, f_sup=est.f_sup * (1 + 1e-8))],
    )


def _verdict_check(want_passed, want_ratio):
    def check(report):
        if report.passed != want_passed:
            return f"verdict {report.passed} != reference {want_passed}"
        return _within(_rel(report.max_ratio, want_ratio), RATIO_REL, "max_ratio relative error")

    return check


def _verdict_perturb(report):
    return [dataclasses.replace(report, passed=not report.passed),
            dataclasses.replace(report, max_ratio=report.max_ratio * (1 + 1e-8) + 1e-300)]


def equivalence_item(lo, e, beta):
    k, l = 1 + int(beta), 2 + int(beta)  # the orders prop31 uses
    return Item(
        "equivalence", _expansion_inputs(e, beta=beta, k=k, l=l),
        run=lambda: lo.check_equivalence(e, e.params, beta, k, l),
        check=lambda r: _verdict_check(*oracle.equivalence(e, beta, k, l))(r),
        perturb=_verdict_perturb,
    )


def approximation_item(lo, e, beta):
    return Item(
        "approximation", _expansion_inputs(e, beta=beta),
        run=lambda: lo.check_approximation(e, e.params, beta),
        check=lambda r: _verdict_check(*oracle.approximation(e, beta))(r),
        perturb=_verdict_perturb,
    )


def expansion_op_item(lo, kind, e, lam):
    """Quadrature multipliers of a *_expansion operator against its symbol."""
    source = lo.pi0(e) if kind == "fractional_integral" else e
    symbol = getattr(lo, kind)(lam)

    def check(v):
        got, want = v
        if set(got.coeffs) != set(want.coeffs):
            return "coefficient index sets differ"
        err = max(abs(got.coeffs[k] - c) / max(abs(c), 1.0) for k, c in want.coeffs.items())
        return _within(err, KERNEL_REL, "coefficient error relative to max(|c|, 1)")

    def perturb(v):
        got, want = v
        k = next(iter(got.coeffs))
        bumped = dict(got.coeffs)
        bumped[k] += 1e-5 * max(abs(bumped[k]), 1.0)
        return [(lo.LaguerreExpansion(got.params, got.degree, bumped), want)]

    return Item(
        kind + "_expansion", _expansion_inputs(e, **{"lambda": lam}),
        run=lambda: (getattr(lo, kind + "_expansion")(source, lo.FracOpConfig(lam)),
                     lo.spectral_apply(symbol, source)),
        check=check, perturb=perturb,
    )


def roundtrip_item(lo, e):
    def check(back):
        err = max(abs(back.coeff(k) - c) for k, c in e.coeffs.items())
        return _within(err, ROUNDTRIP_ABS, "coefficient error")

    def perturb(back):
        coeffs = dict(back.coeffs)
        k = next(iter(coeffs))
        coeffs[k] += 1e-11
        return [lo.LaguerreExpansion(back.params, back.degree, coeffs)]

    return Item(
        "roundtrip", _expansion_inputs(e),
        run=lambda: lo.analyze(lambda pts: lo.synthesize_many(e, pts), e.params, e.degree),
        check=check, perturb=perturb,
    )


def _expansion_inputs(e, **extra):
    return {"d": e.params.d, "alpha": e.params.alpha, "degree": e.degree, **extra}


def _csv_rows(text):
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append((fields[0], ",".join(fields[1:-3]), *map(float, fields[-3:])))
    return lines[0], rows


def scenario_item(lo, refs, scenario, d, alpha, seed, workdir):
    """run_scenario, then an emit_report/parse_report round trip in JSON and CSV."""
    key = pools.scenario_key(scenario, d, alpha, seed)
    ref = refs["scenarios"]["items"][key]
    verdict = _verdict_check(ref["passed"], float(ref["max_ratio"]))
    fixture = {}
    if scenario in THEOREM_SCENARIOS and (d, alpha, seed) == (1, (0.5,), 0):
        fixture = {k: float(v) for k, v in refs["scenarios"]["theorem_ratios"].items()
                   if k.startswith(scenario + ":")}
    stem = os.path.join(workdir, key.replace(",", "_").replace("=", "-"))

    def run():
        report = lo.run_scenario(lo.ScenarioConfig(scenario=scenario, d=d, alpha=alpha, seed=seed))
        lo.emit_report(report, stem + ".json", "json")
        with open(stem + ".json") as fh:
            parsed = lo.parse_report(fh.read())
        lo.emit_report(report, stem + ".csv", "csv")
        with open(stem + ".csv") as fh:
            csv_text = fh.read()
        return report, parsed, csv_text

    def check(v):
        report, parsed, csv_text = v
        problem = verdict(report)
        if problem:
            return problem
        if not parsed.same_results(report):
            return "JSON report round trip is not bit-exact"
        header, rows = _csv_rows(csv_text)
        want = [(report.scenario, r.point, r.measured, r.bound, r.margin) for r in report.rows]
        if header != "scenario,point,measured,bound,margin" or rows != want:
            return "CSV report round trip is not bit-exact"
        for row in report.rows if fixture else ():
            op, _, what = row.point.partition(",")
            if what == "ratio" and f"{scenario}:{op}" in fixture:
                problem = _within(_rel(row.measured, fixture[f"{scenario}:{op}"]), RATIO_REL,
                                  f"{scenario}:{op} ratio vs theorem_ratios.json, relative error")
                if problem:
                    return problem
        return None

    def perturb(v):
        report, parsed, csv_text = v
        out = [(r, parsed, csv_text) for r in _verdict_perturb(report)]
        row = report.rows[0]
        shifted = dataclasses.replace(row, measured=row.measured + 1e-9 * max(abs(row.measured), 1))
        out.append((report, dataclasses.replace(parsed, rows=(shifted,) + parsed.rows[1:]), csv_text))
        lines = csv_text.splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1e300\n"
        out.append((report, parsed, "".join(lines)))
        if fixture:
            rows = tuple(dataclasses.replace(r, measured=r.measured * (1 + 1e-8))
                         if r.point.endswith(",ratio") else r for r in report.rows)
            bent = dataclasses.replace(report, rows=rows)
            out.append((bent, dataclasses.replace(parsed, rows=rows), lo.report.report_to_csv(bent)))
        return out

    return Item(
        "scenario", {"scenario": scenario, "d": d, "alpha": alpha, "seed": seed},
        run, check, perturb=perturb,
    )


def spectral_rounds(lo, refs, seed, workdir, wrap):
    """Expansion-route items on random_expansion inputs, plus the fast scenarios."""
    rng = np.random.default_rng(seed)
    scenario_configs = {}
    for key, scenario, d, alpha, s in pools.scenario_pool():
        scenario_configs.setdefault((scenario, d), []).append((alpha, s))
    while True:
        items = []
        for d, degree in SPECTRAL_DEGREE.items():
            params = lo.MultiIndexParams(d, tuple(float(rng.choice(ALPHAS)) for _ in range(d)))
            e = lo.random_expansion(params, degree, seed=int(rng.integers(2**31)))
            items.append(seminorm_item(lo, e, float(rng.uniform(0.2, 2.5))))
            items.append(equivalence_item(lo, e, float(rng.uniform(0.2, 2.5))))
            items.append(approximation_item(lo, e, float(rng.uniform(0.1, 0.9))))
            for kind in ("bessel_potential", "fractional_integral",
                         "fractional_derivative", "bessel_derivative"):
                lam = float(rng.uniform(0.1, 1.9 - NEAR_ORDER))
                if kind.endswith("_derivative") and lam >= 1.0 - NEAR_ORDER:
                    lam += NEAR_ORDER  # skip [1 - NEAR_ORDER, 1): the known defect
                items.append(expansion_op_item(lo, kind, e, lam))
            items.append(roundtrip_item(lo, e))
        for scenario in pools.SPECTRAL_SCENARIOS:
            for d in (1, 2):
                configs = scenario_configs[(scenario, d)]
                alpha, s = configs[int(rng.integers(len(configs)))]
                items.append(scenario_item(lo, refs, scenario, d, alpha, s, workdir))
        yield items


def spectral_warm_up(lo, workdir):
    params = lo.MultiIndexParams(1, (0.5,))
    e = lo.random_expansion(params, 2, seed=0)
    lo.analyze(lambda pts: lo.synthesize_many(e, pts), params, 2)
    report = lo.run_scenario(lo.ScenarioConfig(scenario="subordination"))
    path = os.path.join(workdir, "warm-up.json")
    lo.emit_report(report, path, "json")
    with open(path) as fh:
        lo.parse_report(fh.read())


WORKLOADS = {
    "l1-kernel": (l1_rounds, l1_warm_up, ("l1_kernel", "costs")),
    "pointwise": (pointwise_rounds, pointwise_warm_up, ("callable",)),
    "spectral": (spectral_rounds, spectral_warm_up, ("scenarios",)),
}
