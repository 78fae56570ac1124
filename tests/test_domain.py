"""One table of every entry point that takes a time, order, point or alpha.

Each row names a slot of one public entry point, the lower bound of its
domain (0 for times, orders and coordinates, -1 for alpha, -inf for a bare
order), a valid value and the shape the slot takes.  Every bad value raises
DomainError there (ConfigError for a ScenarioConfig field), and every
accepted form of the valid value gives the output of the plain float.
"""

import json
import math

import numpy as np
import pytest

from laguerre_ops import (
    ConfigError,
    DomainError,
    FracOpConfig,
    KernelQuery,
    LaguerreExpansion,
    LipschitzEstimate,
    MultiIndexParams,
    NonzeroMeanError,
    QuadratureRule,
    ScenarioConfig,
    SpectralMultiplier,
    bessel_derivative_apply,
    bessel_potential,
    bessel_potential_apply,
    bessel_potential_expansion,
    c_lambda,
    check_approximation,
    check_equivalence,
    check_pminusI_power,
    default_t_grid,
    default_x_grid,
    enumerate_indices,
    expansion_from_json,
    fractional_derivative_apply,
    fractional_integral,
    fractional_integral_apply,
    fractional_integral_expansion,
    gauss_laguerre_rule,
    heat,
    l1_kernel_derivative,
    laguerre_poly,
    lipschitz_seminorm,
    pi0,
    poisson,
    poisson_apply,
    poisson_dt_apply,
    poisson_kernel,
    random_expansion,
    smallest_integer_above,
    spectral_apply,
    stable_density_dt,
    stable_tail_mass,
    sup_norm,
    synthesize,
    synthesize_many,
)
from laguerre_ops.lipschitz import poisson_dt_expansion
from laguerre_ops.specfun import gauss_jacobi_rule

P = MultiIndexParams(1, (0.5,))
E = random_expansion(P, 4, seed=1)
E0 = pi0(E)
f = lambda y: np.exp(-0.3 * y)
T_SHORT = (0.5, 1.0)
rule_values = lambda r: np.concatenate((r.nodes, r.weights))

#: (id, call, low, good, shape).  shape is "number" (one number), "times"
#: (a number or a sequence of them), "point" (a d = 1 point: a number or a
#: sequence of one), "grid" (a sequence of numbers or points), "points" (a
#: grid that is a sequence, not one number), "alpha" (a sequence of one
#: number) or "integer" (one integer, which no float stands for)
ROWS = [
    ("KernelQuery.t",
     lambda v: poisson_kernel(KernelQuery(P, v, (1.0,), (2.0,))), 0.0, 1.0, "number"),
    ("KernelQuery.x", lambda v: poisson_kernel(KernelQuery(P, 1.0, v, (2.0,))), 0.0, 1.0, "point"),
    ("KernelQuery.y", lambda v: poisson_kernel(KernelQuery(P, 1.0, (1.0,), v)), 0.0, 2.0, "point"),
    ("poisson_apply.t", lambda v: poisson_apply(f, P, v, (1.0,)), 0.0, 1.0, "times"),
    ("poisson_apply.x", lambda v: poisson_apply(f, P, 1.0, v), 0.0, 1.0, "point"),
    ("poisson_dt_apply.t", lambda v: poisson_dt_apply(f, P, v, (1.0,), 1), 0.0, 1.0, "times"),
    ("poisson_dt_apply.x", lambda v: poisson_dt_apply(f, P, 1.0, v, 1), 0.0, 1.0, "point"),
    ("l1_kernel_derivative.t",
     lambda v: l1_kernel_derivative(P, v, (1.0,), 1), 0.0, 1.0, "number"),
    ("l1_kernel_derivative.x", lambda v: l1_kernel_derivative(P, 1.0, v, 1), 0.0, 1.0, "point"),
    ("stable_density_dt.t", lambda v: stable_density_dt(1, v, 0.5), 0.0, 1.0, "times"),
    ("stable_density_dt.s", lambda v: stable_density_dt(1, 1.0, v), 0.0, 2.0, "times"),
    ("stable_tail_mass.t", lambda v: stable_tail_mass(1, v, 40.0), 0.0, 1.0, "times"),
    ("stable_tail_mass.s_hi", lambda v: stable_tail_mass(0, 0.5, v), 0.0, 40.0, "number"),
    ("synthesize.x", lambda v: synthesize(E, v), 0.0, 1.0, "point"),
    ("synthesize_many.xs", lambda v: synthesize_many(E, v), 0.0, (1.0, 2.0), "points"),
    ("poisson_dt_expansion.t", lambda v: poisson_dt_expansion(E, v, 1).vector, 0.0, 1.0, "number"),
    ("lipschitz_seminorm.beta", lambda v: lipschitz_seminorm(E, P, v).A_beta, 0.0, 2.0, "number"),
    ("lipschitz_seminorm.t_grid",
     lambda v: lipschitz_seminorm(E, P, 0.5, t_grid=v).A_beta, 0.0, (1.0, 2.0), "grid"),
    ("lipschitz_seminorm.x_grid",
     lambda v: lipschitz_seminorm(E, P, 0.5, x_grid=v).A_beta, 0.0, (1.0, 2.0), "points"),
    ("check_equivalence.beta",
     lambda v: check_equivalence(E, P, v, 3, 4).max_ratio, 0.0, 2.0, "number"),
    ("check_equivalence.k",
     lambda v: check_equivalence(E, P, 2.0, v, 4).max_ratio, 0, 3, "integer"),
    ("check_equivalence.l",
     lambda v: check_equivalence(E, P, 2.0, 3, v).max_ratio, 0, 4, "integer"),
    ("check_approximation.beta",
     lambda v: check_approximation(E, P, v, t_grid=T_SHORT).max_ratio, 0.0, 0.5, "number"),
    ("check_pminusI_power.beta",
     lambda v: check_pminusI_power(E, P, v, t_grid=T_SHORT).max_ratio, 0.0, 0.5, "number"),
    ("FracOpConfig.lam", lambda v: FracOpConfig(v).lam, 0.0, 1.0, "number"),
    ("c_lambda.lam", lambda v: c_lambda(v, 2), 0.0, 1.0, "number"),
    ("smallest_integer_above", smallest_integer_above, -math.inf, 1.0, "number"),
    ("bessel_potential_apply.lam",
     lambda v: bessel_potential_apply(E, P, v, 1.3), 0.0, 1.0, "number"),
    ("fractional_integral_apply.lam",
     lambda v: fractional_integral_apply(E0, P, v, 1.3), 0.0, 1.0, "number"),
    ("fractional_derivative_apply.lam",
     lambda v: fractional_derivative_apply(E, P, v, 1.3), 0.0, 1.0, "number"),
    ("bessel_derivative_apply.lam",
     lambda v: bessel_derivative_apply(E, P, v, 1.3), 0.0, 1.0, "number"),
    ("bessel_potential_apply.x",
     lambda v: bessel_potential_apply(E, P, 0.5, v), 0.0, 1.0, "point"),
    ("fractional_integral_apply.x",
     lambda v: fractional_integral_apply(E0, P, 0.5, v), 0.0, 1.0, "point"),
    ("fractional_derivative_apply.x",
     lambda v: fractional_derivative_apply(E, P, 0.5, v), 0.0, 1.0, "point"),
    ("bessel_derivative_apply.x",
     lambda v: bessel_derivative_apply(E, P, 0.5, v), 0.0, 1.0, "point"),
    ("fractional_derivative_apply.x callable",
     lambda v: fractional_derivative_apply(f, P, 0.5, v), 0.0, 1.0, "point"),
    ("MultiIndexParams.alpha", lambda v: MultiIndexParams(1, v).alpha, -1.0, 1.0, "alpha"),
    ("laguerre_poly.alpha", lambda v: laguerre_poly(2, v, 1.0), -1.0, 0.5, "number"),
    ("gauss_laguerre_rule.alpha",
     lambda v: rule_values(gauss_laguerre_rule(v, 10)), -1.0, 0.5, "number"),
    ("gauss_jacobi_rule.alpha",
     lambda v: rule_values(gauss_jacobi_rule(v, 10)), -1.0, 0.5, "number"),
    ("heat", lambda v: spectral_apply(heat(v), E).vector, 0.0, 1.0, "number"),
    ("poisson", lambda v: spectral_apply(poisson(v), E).vector, 0.0, 1.0, "number"),
    ("bessel_potential",
     lambda v: spectral_apply(bessel_potential(v), E).vector, 0.0, 1.0, "number"),
    ("ScenarioConfig.alpha",
     lambda v: ScenarioConfig("prop31", alpha=v).alpha, -1.0, 1.0, "alpha"),
    ("ScenarioConfig.beta", lambda v: ScenarioConfig("prop31", beta=v).beta, 0.0, 2.0, "number"),
    ("ScenarioConfig.lam", lambda v: ScenarioConfig("thm44", lam=v).lam, 0.0, 1.0, "number"),
    ("default_t_grid.levels", default_t_grid, 0, 3, "integer"),
    ("default_x_grid.d", lambda v: default_x_grid(v, 4), 0, 2, "integer"),
    ("default_x_grid.points", lambda v: default_x_grid(1, v), 0, 4, "integer"),
]


def _bad_values(low):
    """nan, inf, the bound and a value below it (none for an order bounded
    by -inf), a bool, a str, a complex and an empty list."""
    edge = [] if low == -math.inf else [low, low - 1.0]
    return [math.nan, math.inf, *edge, True, "0.5", 1 + 0j, []]


def _bad_forms(value, shape):
    """value in each form the slot takes: a number slot gets it bare, a
    sequence slot inside a list, and a point or times slot both ways."""
    if value == []:
        return [value]
    return {"number": [value], "integer": [value], "grid": [[value]], "points": [[value]],
            "alpha": [[value], value]}.get(shape, [value, [value]])


#: values that are bad only for their slot's shape: a float, integral or
#: not, for an integer, and one number for a grid of points
SHAPE_BAD = {"integer": [2.5, 3.0], "points": [1.0]}

BAD = [
    pytest.param(call, form, ConfigError if name.startswith("ScenarioConfig") else DomainError,
                 id=f"{name}-{value!r}-{type(form).__name__}")
    for name, call, low, _, shape in ROWS
    for value in _bad_values(low)
    for form in _bad_forms(value, shape)
] + [
    pytest.param(call, value, DomainError, id=f"{name}-{value!r}")
    for name, call, _, _, shape in ROWS
    for value in SHAPE_BAD.get(shape, [])
]


@pytest.mark.parametrize("call, value, error", BAD)
def test_bad_value_raises(call, value, error):
    with pytest.raises(error):
        call(value)


def _number_forms(good):
    forms = [np.float64(good), np.float32(good)]
    if float(good).is_integer():
        forms += [int(good), np.int64(good)]
    return forms


def _good_forms(good, shape):
    """Every accepted form of the valid value, and its plain float form (an
    int for an integer slot)."""
    if shape == "integer":
        return good, [np.int64(good), np.int32(good)]
    if shape in ("grid", "points"):
        return list(good), [tuple(good), np.array(good), [np.float32(v) for v in good],
                            [int(v) for v in good], np.array(good, dtype=np.int64)]
    if shape == "alpha":
        return (good,), [[good], np.array([good]), (np.float32(good),), (int(good),),
                         (np.int64(good),)]
    forms = _number_forms(good)
    if shape != "number":
        forms += [(good,), [good], np.array([good])]
    return good, forms


GOOD = [
    pytest.param(call, *_good_forms(good, shape), id=name)
    for name, call, _, good, shape in ROWS
]


@pytest.mark.parametrize("call, plain, forms", GOOD)
def test_accepted_forms_give_the_float_output(call, plain, forms):
    want = np.ravel(call(plain))
    for form in forms:
        assert np.array_equal(np.ravel(call(form)), want), form


f0 = lambda y: 1.5 - y  # L_1^0.5, zero mean
E2 = LaguerreExpansion(P, 1, [2.0, 3.0])
json_nan = json.dumps({"d": 1, "alpha": [0.5], "N": 1, "coeffs": [{"k": [1], "c": math.nan}]})

#: calls whose arguments lie in their slots' domains but that would compute
#: a number that is not finite: Gamma(lambda) past the float range on the
#: Laplace route (lambda >= 171.7), a coefficient or a sampled value of g
#: that is nan or inf, and a grid that is no iterable of points
NOT_FINITE = {
    "bessel_potential_apply.lam=172": lambda: bessel_potential_apply(E, P, 172.0, 1.3),
    "bessel_potential_apply.lam=300 callable": lambda: bessel_potential_apply(f, P, 300.0, 1.3),
    "fractional_integral_apply.lam=172": lambda: fractional_integral_apply(E0, P, 172.0, 1.3),
    "fractional_integral_apply.lam=200 callable":
        lambda: fractional_integral_apply(f0, P, 200.0, 1.3),
    "bessel_potential_expansion.lam=190":
        lambda: bessel_potential_expansion(E, FracOpConfig(190.0)),
    "fractional_integral_expansion.lam=172":
        lambda: fractional_integral_expansion(E0, FracOpConfig(172.0)),
    "LaguerreExpansion.vector-nan": lambda: LaguerreExpansion(P, 1, [1.0, math.nan]),
    "LaguerreExpansion.vector-inf": lambda: LaguerreExpansion(P, 1, np.array([-math.inf, 1.0])),
    "LaguerreExpansion.mapping-nan": lambda: LaguerreExpansion(P, 1, {(1,): math.nan}),
    "LaguerreExpansion.mapping-inf": lambda: LaguerreExpansion(P, 1, {(0,): math.inf}),
    "expansion_from_json.NaN": lambda: expansion_from_json(json_nan),
    "LaguerreExpansion.scaled-overflow": lambda: E2.scaled(np.array([1.0, 1e308])),
    "sup_norm.nan-first": lambda: sup_norm(lambda x: math.nan if x[0] < 1.5 else 1.0,
                                           [(1.0,), (2.0,)]),
    "sup_norm.nan-second": lambda: sup_norm(lambda x: 1.0 if x[0] < 1.5 else math.nan,
                                            [(1.0,), (2.0,)]),
    "sup_norm.inf": lambda: sup_norm(lambda x: math.inf, [(1.0,)]),
    "sup_norm.x_grid-number": lambda: sup_norm(lambda x: 1.0, 3.0),
    "sup_norm.x_grid-empty-generator": lambda: sup_norm(lambda x: 1.0, iter(())),
}


@pytest.mark.parametrize("call", NOT_FINITE.values(), ids=NOT_FINITE.keys())
def test_value_that_is_not_finite_raises(call):
    with pytest.raises(DomainError):
        call()


def test_checks_leave_their_domain_edges_open():
    # Gamma(171.6) is finite, so the Laplace route still runs there, and a
    # grid may be any iterable of points
    assert np.isfinite(bessel_potential_apply(E, P, 171.6, 1.3))
    grid = default_x_grid(points=6)
    g = lambda x: 1.0 / x[0]
    assert sup_norm(g, (p for p in grid)) == sup_norm(g, grid) == 20.0


#: calls that their entry point refuses: an unknown method or kind, an
#: order below 0 or at the undefined mean mode, a grid or rule out of order,
#: a kernel query with no y, a callable where the spectral path reads an
#: expansion, a derivative order n <= beta, an index that is not a tuple of
#: integers, a coefficient that is not a number, and a dimension that is not
#: an integer >= 1
REFUSED = {
    "lipschitz_seminorm.method": (lambda: lipschitz_seminorm(E, P, 0.5, method="bogus"),
                                  DomainError),
    "lipschitz_seminorm.t_grid-unsorted":
        (lambda: lipschitz_seminorm(E, P, 0.5, t_grid=(2.0, 1.0)), DomainError),
    "lipschitz_seminorm.callable": (lambda: lipschitz_seminorm(f, P, 0.5), DomainError),
    "check_approximation.callable": (lambda: check_approximation(f, P, 0.5), DomainError),
    "check_pminusI_power.callable": (lambda: check_pminusI_power(f, P, 0.5), DomainError),
    "SpectralMultiplier.kind": (lambda: SpectralMultiplier("bogus", 1.0), DomainError),
    "heat.value-negative": (lambda: heat(1.0).value(-1), DomainError),
    "fractional_integral.value-0": (lambda: fractional_integral(1.0).value(0), NonzeroMeanError),
    "poisson_kernel.no-y": (lambda: poisson_kernel(KernelQuery(P, 1.0, (1.0,))), DomainError),
    "QuadratureRule.unsorted":
        (lambda: QuadratureRule(np.array([2.0, 1.0]), np.array([0.5, 0.5])), DomainError),
    "QuadratureRule.unequal":
        (lambda: QuadratureRule(np.array([1.0, 2.0]), np.array([1.0])), DomainError),
    "LipschitzEstimate.n-below-beta":
        (lambda: LipschitzEstimate(1.5, 1, (1.0,), ((1.0,),), {}, 0.0, 0.0), DomainError),
    "LaguerreExpansion.index-1.7": (lambda: LaguerreExpansion(P, 2, {(1.7,): 1.0}), DomainError),
    "LaguerreExpansion.index-True":
        (lambda: LaguerreExpansion(P, 2, {(True,): 1.0}), DomainError),
    "LaguerreExpansion.key-str": (lambda: LaguerreExpansion(P, 2, {"0": 1.0}), DomainError),
    "LaguerreExpansion.key-int": (lambda: LaguerreExpansion(P, 2, {1: 1.0}), DomainError),
    "LaguerreExpansion.coeff-str": (lambda: LaguerreExpansion(P, 2, {(0,): "2.5"}), DomainError),
    "LaguerreExpansion.coeff-True": (lambda: LaguerreExpansion(P, 2, {(0,): True}), DomainError),
    "LaguerreExpansion.vector-True":
        (lambda: LaguerreExpansion(P, 2, [True, 1.0, 2.0]), DomainError),
    "LaguerreExpansion.vector-str":
        (lambda: LaguerreExpansion(P, 2, ["1", "2", "3"]), DomainError),
    "enumerate_indices.d-0": (lambda: enumerate_indices(0, 2), DomainError),
    "enumerate_indices.d-negative": (lambda: enumerate_indices(-1, 2), DomainError),
    "enumerate_indices.d-1.5": (lambda: enumerate_indices(1.5, 2), DomainError),
    "enumerate_indices.d-True": (lambda: enumerate_indices(True, 2), DomainError),
}


@pytest.mark.parametrize("call, error", REFUSED.values(), ids=REFUSED.keys())
def test_refused_call_raises(call, error):
    with pytest.raises(error):
        call()


def test_expansion_is_not_equal_to_a_number():
    assert (E == 3) is False
