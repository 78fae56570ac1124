import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from laguerre_ops.errors import DomainError, NonzeroMeanError
from laguerre_ops.expansion import (
    LaguerreExpansion,
    MultiIndexParams,
    analyze,
    bessel_potential,
    enumerate_indices,
    expansion_from_json,
    expansion_to_json,
    fractional_derivative,
    fractional_integral,
    heat,
    pi0,
    poisson,
    random_expansion,
    spectral_apply,
    synthesize,
    synthesize_many,
    tensor_grid,
)
from laguerre_ops.expansion import _BLOCK_VALUES, _analysis_axis, _synthesize
from laguerre_ops.specfun import gauss_laguerre_rule, laguerre_poly


def test_enumerate_counts():
    # compositions of total degree <= N in d slots: C(N+d, d)
    assert len(enumerate_indices(1, 6)) == 7
    assert len(enumerate_indices(2, 3)) == 10
    assert len(enumerate_indices(3, 2)) == 10


def test_enumerate_graded_order():
    idx = enumerate_indices(2, 2)
    orders = [sum(k) for k in idx]
    assert orders == sorted(orders)


def test_params_validation():
    with pytest.raises(DomainError):
        MultiIndexParams(1, (-1.0,))
    with pytest.raises(DomainError):
        MultiIndexParams(2, (0.5,))
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            MultiIndexParams(1, (alpha,))
    for d in (1.0, True, 0):
        with pytest.raises(DomainError):
            MultiIndexParams(d, (0.5,))
    assert MultiIndexParams(1, (0.5,)).half_regime
    assert not MultiIndexParams(1, (-0.6,)).half_regime


def test_analyze_linear_function():
    p = MultiIndexParams(1, (0.5,))
    e = analyze(lambda x: x, p, 3)
    # x = (alpha+1) - L_1 in the alpha basis
    assert e.coeff((0,)) == pytest.approx(1.5, abs=1e-12)
    assert e.coeff((1,)) == pytest.approx(-1.0, abs=1e-12)
    assert abs(e.coeff((2,))) < 1e-12


@pytest.mark.parametrize("d,alpha", [(1, (0.5,)), (2, (0.5, -0.25)), (3, (0.5, -0.25, 2.0))])
def test_analyze_synthesize_roundtrip(d, alpha):
    p = MultiIndexParams(d, alpha)
    e = random_expansion(p, 4, seed=11)
    f = lambda x: synthesize_many(e, np.atleast_2d(x) if d > 1 else np.asarray(x))
    if d == 1:
        back = analyze(lambda x: synthesize_many(e, x[:, None]), p, 4)
    else:
        back = analyze(lambda x: synthesize_many(e, x), p, 4)
    for k in e.coeffs:
        assert back.coeff(k) == pytest.approx(e.coeff(k), abs=1e-12)


def test_multiplier_values():
    assert heat(2.0).value(3) == pytest.approx(math.exp(-6.0))
    assert poisson(2.0).value(4) == pytest.approx(math.exp(-4.0))
    assert bessel_potential(1.5).value(4) == pytest.approx(3.0**-1.5)
    assert fractional_integral(1.0).value(4) == pytest.approx(0.5)
    assert fractional_derivative(1.0).value(4) == pytest.approx(2.0)


def test_fractional_integral_needs_zero_mean():
    p = MultiIndexParams(1, (0.5,))
    e = LaguerreExpansion(p, 1, {(0,): 1.0, (1,): 2.0})
    with pytest.raises(NonzeroMeanError):
        spectral_apply(fractional_integral(0.5), e)
    ok = spectral_apply(fractional_integral(0.5), pi0(e))
    assert ok.coeff((1,)) == pytest.approx(2.0)


def test_pi0_removes_mean_only():
    p = MultiIndexParams(1, (0.5,))
    e = LaguerreExpansion(p, 2, {(0,): 3.0, (2,): -1.0})
    z = pi0(e)
    assert z.mean == 0.0
    assert z.coeff((2,)) == -1.0


def test_inverse_pair_spectral():
    p = MultiIndexParams(1, (0.5,))
    e = pi0(random_expansion(p, 6, seed=2))
    lam = 0.7
    back = spectral_apply(
        fractional_derivative(lam), spectral_apply(fractional_integral(lam), e)
    )
    for k in e.coeffs:
        assert back.coeff(k) == pytest.approx(e.coeff(k), abs=1e-14)


def test_synthesize_single_point():
    p = MultiIndexParams(1, (0.5,))
    e = LaguerreExpansion(p, 1, {(1,): 2.0})
    assert synthesize(e, np.array([1.0])) == pytest.approx(
        2.0 * laguerre_poly(1, 0.5, 1.0)
    )


def _per_axis_reference(e, x):
    """sum_k c_k L_k^alpha(x) by a plain loop, one axis at a time: axis j
    takes s_j[rest] = sum over k = 0, ..., degree - |rest| of
    s_(j-1)[(k,) + rest] L_k(x_j), k ascending, from s_0 = the coefficients."""
    s = dict(e.coeffs)
    for j, a in enumerate(e.params.alpha):
        rows = [laguerre_poly(k, a, x[j]) for k in range(e.degree + 1)]
        rests, s_j = {k[1:] for k in s}, {}
        for r in rests:
            total = s[(0,) + r] * rows[0]
            for k in range(1, e.degree + 1 - sum(r)):
                total = total + s[(k,) + r] * rows[k]
            s_j[r] = total
        s = s_j
    return s[()]


@pytest.mark.parametrize("d, degree", [(1, 8), (2, 6), (3, 4)])
def test_synthesize_many_sums_terms_in_index_order_bitwise(d, degree):
    # the axes are contracted in order, and along each axis the terms are
    # added k ascending: the reference the stacked time-grid synthesis of
    # the lipschitz checks is held to
    p = MultiIndexParams(d, (0.5, -0.25, 2.0)[:d])
    e = random_expansion(p, degree, seed=3)
    xs = np.random.default_rng(0).uniform(0.05, 20.0, (50, d))
    want = [_per_axis_reference(e, x) for x in xs]
    np.testing.assert_array_equal(synthesize_many(e, xs), want)


@pytest.mark.parametrize("d, degree", [(1, 8), (2, 6), (3, 4)])
def test_value_at_a_point_is_the_same_however_it_is_reached(d, degree):
    # one point, scattered points, a tensor grid and one column of a stack
    # all give the same value bit for bit
    p = MultiIndexParams(d, (0.5, -0.25, 2.0)[:d])
    e = random_expansion(p, degree, seed=8)
    axes = tuple(np.geomspace(0.05, 20.0, 5 + j) for j in range(d))
    pts = tensor_grid(axes)
    scattered = synthesize_many(e, pts)
    np.testing.assert_array_equal(_synthesize(e, e.vector, axes), scattered)
    factors = np.random.default_rng(1).uniform(-2.0, 2.0, (len(e.vector), 3))
    stack = _synthesize(e, e.vector[:, None] * factors, axes)
    for i in range(3):
        column = synthesize_many(e.scaled(factors[:, i]), pts)
        np.testing.assert_array_equal(stack[i], column)
        np.testing.assert_array_equal(_synthesize(e, e.vector * factors[:, i], pts), column)
    for i in (0, len(pts) // 2, len(pts) - 1):
        assert synthesize(e, pts[i]) == scattered[i]
        assert synthesize(e, tuple(pts[i])) == scattered[i]


def test_scattered_points_in_many_blocks_match_one_by_one():
    # past one block of points the synthesis runs block by block; at d = 2,
    # degree 6, a block holds _BLOCK_VALUES // 7 points
    p = MultiIndexParams(2, (0.5, -0.25))
    e = random_expansion(p, 6, seed=2)
    block = _BLOCK_VALUES // 7
    xs = np.random.default_rng(3).uniform(0.05, 20.0, (2 * block + 5, 2))
    got = synthesize_many(e, xs)
    for i in (0, block - 1, block, 2 * block - 1, 2 * block, len(xs) - 1):
        assert got[i] == synthesize(e, xs[i])


@pytest.mark.parametrize("xs", [
    np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.ones((2, 1)), [[1.0, 2.0], [3.0]],
    [(1.0, 2.0), (3.0, -1.0)], [(1.0, 2.0), (3.0, math.nan)], np.empty((0, 2)),
])
def test_synthesize_many_takes_only_m_points_of_d_coordinates(xs):
    # at d = 2, a (2, 3) array is not 3 points of 6 numbers, and a (3,) one
    # is not a point set (it raised a raw ValueError)
    e = random_expansion(MultiIndexParams(2, (0.5, -0.25)), 3, seed=1)
    with pytest.raises(DomainError):
        synthesize_many(e, xs)


def test_synthesize_many_takes_a_list_of_points():
    e = random_expansion(MultiIndexParams(2, (0.5, -0.25)), 3, seed=1)
    xs = [(0.5, 1.0), (2.0, 3.0)]
    np.testing.assert_array_equal(synthesize_many(e, xs), synthesize_many(e, np.array(xs)))


@pytest.mark.parametrize("f", [
    lambda x: np.full(np.shape(x)[0], math.nan),
    lambda x: np.where(x[:, 0] > 5.0, math.inf, 1.0),
    lambda x: np.ones(3),
    lambda x: np.ones((np.shape(x)[0], 2)),
    lambda x: None,
], ids=["nan", "inf", "three values", "two per point", "None"])
def test_analyze_rejects_a_function_without_one_finite_value_per_point(f):
    # a nan gave nan coefficients, a wrong count a raw ValueError
    p = MultiIndexParams(2, (0.5, -0.25))
    with pytest.raises(DomainError):
        analyze(f, p, 3)


def test_analyze_takes_a_constant_return():
    p = MultiIndexParams(2, (0.5, -0.25))
    e = analyze(lambda x: 2.5, p, 3)
    assert e.mean == pytest.approx(2.5, abs=1e-13)
    assert np.abs(e.vector[1:]).max() < 1e-13


def exp_coefficients(a, alpha, k):
    """c_k of e^(-a y) = sum_k c_k L_k^alpha(y): (1 - r)^(alpha + 1) r^k, r = a / (1 + a)."""
    r = a / (1.0 + a)
    return np.exp((alpha + 1.0) * math.log1p(-r) + k * math.log(r))


@pytest.mark.parametrize("degree", [170, 300])
@pytest.mark.parametrize("alpha", [-0.9, -0.25, 0.5, 2.0])
def test_analyze_synthesize_roundtrip_at_high_degree(degree, alpha):
    # the scipy rule raised QuadratureError from degree 180, and its weights
    # underflowed past x ~ 745: 1.3e-8 off at degree 170, alpha = -1/4
    p = MultiIndexParams(1, (alpha,))
    e = random_expansion(p, degree, seed=11)
    back = analyze(lambda x: synthesize_many(e, x[:, None]), p, degree)
    assert np.abs(back.vector - e.vector).max() <= 1e-11


@pytest.mark.parametrize("degree", [500, 1000])
@pytest.mark.parametrize("alpha", [-0.99, -0.25, 0.5, 2.0, 300.0])
def test_analyze_exponential_against_its_coefficients(degree, alpha):
    p = MultiIndexParams(1, (alpha,))
    for a in (0.25, 1.0, 4.0):
        e = analyze(lambda y: np.exp(-a * y), p, degree)
        c = exp_coefficients(a, alpha, np.arange(degree + 1))
        assert np.abs(e.vector - c).max() <= 1e-12 * c[0]


def test_analyze_exponential_product_at_d2():
    p = MultiIndexParams(2, (0.5, -0.25))
    e = analyze(lambda y: np.exp(-y[:, 0] / 4 - y[:, 1]), p, 200)
    k1, k2 = np.array(e.indices).T
    c = exp_coefficients(0.25, 0.5, k1) * exp_coefficients(1.0, -0.25, k2)
    assert np.abs(e.vector - c).max() <= 1e-13


def test_analyze_reads_f_only_where_a_row_is_nonzero():
    # the rule's 808 nodes reach x ~ 3200; past x ~ 1450 every weighted row
    # w L_k / ||L_k||^2 rounds to 0, and f is not read there
    p = MultiIndexParams(1, (0.5,))
    seen = []
    analyze(lambda y: seen.append(y.copy()) or np.exp(-y / 4), p, 400)
    nodes, rows = _analysis_axis(0.5, 400)
    rule = gauss_laguerre_rule(0.5, 808)
    assert len(seen) == 1 and np.array_equal(seen[0], nodes)
    assert np.isin(nodes, rule.nodes).all() and rows.any(axis=0).all()
    assert nodes.size < rule.nodes.size and nodes.max() < 1500.0 < rule.nodes.max()


def test_analyze_of_an_expansion_that_overflows_at_its_nodes_raises():
    # from degree ~325 the expansion's values overflow at the nodes near x = 1450
    p = MultiIndexParams(1, (0.5,))
    e = random_expansion(p, 340, seed=11)
    with pytest.raises(DomainError, match="degree 340"):
        analyze(lambda x: synthesize_many(e, x[:, None]), p, 340)
    with pytest.raises(DomainError, match="degree 200, largest x 3000"):
        synthesize_many(random_expansion(p, 200, seed=11), [1.0, 3000.0])


def test_synthesize_many_zero_expansion_and_degree_zero():
    p = MultiIndexParams(2, (0.5, -0.25))
    xs = np.array([[0.1, 2.0], [3.0, 0.5], [7.5, 7.5]])
    np.testing.assert_array_equal(synthesize_many(LaguerreExpansion(p, 3), xs), np.zeros(3))
    constant = LaguerreExpansion(p, 0, [-1.75])
    np.testing.assert_array_equal(synthesize_many(constant, xs), np.full(3, -1.75))
    p1 = MultiIndexParams(1, (0.5,))
    np.testing.assert_array_equal(
        synthesize_many(LaguerreExpansion(p1, 0, [2.5]), np.array([0.2, 9.0])), [2.5, 2.5])
    np.testing.assert_array_equal(
        synthesize_many(LaguerreExpansion(p1, 4), np.array([0.2, 9.0])), [0.0, 0.0])


def test_json_roundtrip_bit_exact():
    p = MultiIndexParams(2, (0.5, -0.25))
    e = random_expansion(p, 3, seed=9)
    text = expansion_to_json(e)
    back = expansion_from_json(text)
    assert back.params == e.params
    assert back.degree == e.degree
    for k, c in e.coeffs.items():
        assert back.coeffs[k] == c  # exact, not approx

    # serializing again yields the identical document
    assert expansion_to_json(back) == text


@pytest.mark.parametrize("d,alpha", [(1, (0.1,)), (3, (0.5, -0.25, 2.0))])
def test_json_roundtrip_bit_exact_at_d(d, alpha):
    e = random_expansion(MultiIndexParams(d, alpha), 4, seed=3)
    assert expansion_from_json(expansion_to_json(e)) == e


def test_json_writes_plain_numbers():
    # every coefficient, zeros included, in sorted index order; a float as its shortest repr
    e = LaguerreExpansion(MultiIndexParams(1, (0.1,)), 2, [0.1, 0.0, -2.5])
    assert expansion_to_json(e) == ('{"d":1,"alpha":[0.1],"N":2,"coeffs":[{"k":[0],"c":0.1},'
                                     '{"k":[1],"c":0.0},{"k":[2],"c":-2.5}]}')


@pytest.mark.parametrize("text", [
    '{"d": 1}',  # a missing key
    "[]",  # no object
    '{"d": 1, "alpha": [0.5], "N": 1, "coeffs": [{"k": [0], "c": "x"}]}',  # a non-numeric c
    "not json",
    '{"d": 1, "alpha": [0.5], "N": 1.7, "coeffs": []}',  # a degree that is not an integer
    '{"d": true, "alpha": [0.5], "N": 1, "coeffs": []}',  # a dimension that is a bool
    '{"d": 1, "alpha": [0.5], "N": 1, "coeffs": [{"k": "0", "c": 1}]}',  # a string index
    # one index given twice
    '{"d": 1, "alpha": [0.5], "N": 1, "coeffs": [{"k": [0], "c": 1}, {"k": [0], "c": 2}]}',
])
def test_json_malformed_text_is_domain_error(text):
    with pytest.raises(DomainError):
        expansion_from_json(text)


def test_vector_and_mapping_constructors_agree():
    p = MultiIndexParams(2, (0.5, -0.25))
    e = random_expansion(p, 3, seed=9)
    from_map = LaguerreExpansion(p, 3, dict(e.coeffs))
    from_vec = LaguerreExpansion(p, 3, list(e.vector))
    assert from_map == from_vec == e
    assert list(e.coeffs) == enumerate_indices(2, 3)
    assert list(e.orders) == [sum(k) for k in enumerate_indices(2, 3)]


def test_coeffs_list_every_index_and_are_read_only():
    p = MultiIndexParams(2, (0.5, 0.5))
    e = LaguerreExpansion(p, 2, {(1, 0): 2.0})
    assert dict(e.coeffs) == {k: (2.0 if k == (1, 0) else 0.0) for k in enumerate_indices(2, 2)}
    with pytest.raises(TypeError):
        e.coeffs[(0, 0)] = 1.0
    with pytest.raises(ValueError):
        e.vector[0] = 1.0


def test_expansion_is_immutable():
    e = LaguerreExpansion(MultiIndexParams(1, (0.5,)), 2, {(1,): 1.0})
    for name, value in (("degree", 9), ("coeffs", {(1,): 5.0}), ("vector", np.zeros(3))):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, value)
    assert e.degree == 2 and e.coeffs[(1,)] == 1.0 and e.vector[1] == 1.0


def test_constructor_rejects_bad_coefficients():
    p = MultiIndexParams(1, (0.5,))
    with pytest.raises(DomainError):
        LaguerreExpansion(p, 2, [1.0, 2.0])
    with pytest.raises(DomainError):
        LaguerreExpansion(p, 2, {(3,): 1.0})
    with pytest.raises(DomainError):
        LaguerreExpansion(p, 2, {(1, 0): 1.0})
    for degree in (2.5, 2.0, -1):
        with pytest.raises(DomainError):
            LaguerreExpansion(p, degree)


def test_random_expansion_seeded():
    p = MultiIndexParams(1, (0.5,))
    a = random_expansion(p, 5, seed=4)
    b = random_expansion(p, 5, seed=4)
    assert a.coeffs == b.coeffs
    assert all(-1.0 <= c <= 1.0 for c in a.coeffs.values())
    for seed in (-1, 1.5):
        with pytest.raises(DomainError):
            random_expansion(p, 3, seed=seed)
