import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from laguerre_ops.errors import DomainError, NonzeroMeanError
from laguerre_ops.expansion import (
    LaguerreExpansion,
    MultiIndexParams,
    analyze,
    basis_norm_sq,
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
)
from laguerre_ops.specfun import laguerre_poly


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
    assert MultiIndexParams(1, (0.5,)).half_regime
    assert not MultiIndexParams(1, (-0.6,)).half_regime


def test_basis_norm_closed_form():
    p = MultiIndexParams(1, (0.5,))
    # ||L_k||^2 = Gamma(k+alpha+1) / (k! Gamma(alpha+1))
    for k in range(5):
        ref = math.gamma(k + 1.5) / (math.factorial(k) * math.gamma(1.5))
        assert basis_norm_sq((k,), p) == pytest.approx(ref, rel=1e-13)


def test_analyze_linear_function():
    p = MultiIndexParams(1, (0.5,))
    e = analyze(lambda x: x, p, 3)
    # x = (alpha+1) - L_1 in the alpha basis
    assert e.coeff((0,)) == pytest.approx(1.5, abs=1e-12)
    assert e.coeff((1,)) == pytest.approx(-1.0, abs=1e-12)
    assert abs(e.coeff((2,))) < 1e-12


@pytest.mark.parametrize("d,alpha", [(1, (0.5,)), (2, (0.5, -0.25))])
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


@pytest.mark.parametrize("d, degree", [(1, 8), (2, 6), (3, 4)])
def test_synthesize_many_sums_terms_in_index_order_bitwise(d, degree):
    # ((c_k L_k0(x0)) L_k1(x1)) ..., added in index order: the reference the
    # stacked time-grid synthesis of the lipschitz checks is held to
    p = MultiIndexParams(d, (0.5, -0.25, 2.0)[:d])
    e = random_expansion(p, degree, seed=3)
    xs = np.random.default_rng(0).uniform(0.05, 20.0, (50, d))
    want = np.zeros(50)
    for c, k in zip(e.vector.tolist(), e.indices):
        term = c * laguerre_poly(k[0], p.alpha[0], xs[:, 0])
        for j in range(1, d):
            term = term * laguerre_poly(k[j], p.alpha[j], xs[:, j])
        want += term
    np.testing.assert_array_equal(synthesize_many(e, xs), want)


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


def test_random_expansion_seeded():
    p = MultiIndexParams(1, (0.5,))
    a = random_expansion(p, 5, seed=4)
    b = random_expansion(p, 5, seed=4)
    assert a.coeffs == b.coeffs
    assert all(-1.0 <= c <= 1.0 for c in a.coeffs.values())
