import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, iv, ive, kve

from laguerre_ops.errors import DomainError, PoleError, QuadratureError
from laguerre_ops.specfun import (
    IVE_Z_MAX,
    _ive,
    _log_series,
    gamma,
    gauss_jacobi_rule,
    gauss_laguerre_rule,
    laguerre_poly,
    laguerre_rows,
    log_bessel_i_scaled,
)


def mp_log_bessel_i_scaled(nu, z):
    """Reference log(I_nu(z) e^{-z}) at 40 significant digits."""
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besseli(nu, z)) - z)


def assert_log_close(got, ref):
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestGamma:
    def test_positive_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert abs(gamma(-0.5) + 2.0 * math.sqrt(math.pi)) < 1e-14

    def test_poles_raise(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma(bad)


class TestBesselI:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        nu=st.floats(min_value=-1.0, max_value=50.0, exclude_min=True),
        log10_z=st.floats(min_value=-12.0, max_value=4.0),
    )
    @example(nu=-5e-324, log10_z=0.0)  # Amos's K routine fails on subnormal orders
    def test_matches_mpmath(self, nu, log10_z):
        z = 10.0**log10_z
        assert_log_close(log_bessel_i_scaled(nu, z), mp_log_bessel_i_scaled(nu, z))

    @pytest.mark.parametrize("nu", [25.0, 50.0])
    def test_underflow_fallback(self, nu):
        # I_nu(1e-12) e^{-z} is far below the smallest normal double here,
        # so these points take the log-series path
        z = np.array([1e-12, 1e-9, 1e-3, 1.0, 30.0])
        got = log_bessel_i_scaled(nu, z)
        assert got.shape == z.shape
        for g, zi in zip(got, z):
            assert_log_close(g, mp_log_bessel_i_scaled(nu, zi))
        assert got[0] < math.log(np.finfo(float).tiny)

    @pytest.mark.parametrize("nu,z", [(700.0, 250.0), (1000.0, 400.0), (2000.0, 900.0), (1000.0, 100.0)])
    def test_series_at_large_order(self, nu, z):
        # ive underflows here, and the series peaks near term
        # sqrt((z/2)^2 + (nu/2)^2) - nu/2, far past a fixed 40 terms
        got = log_bessel_i_scaled(nu, np.array([1e-3, z]))
        assert got[1] == pytest.approx(mp_log_bessel_i_scaled(nu, z), rel=0.0, abs=1e-12)
        # a small z in the same call shares the term count of the largest
        assert_log_close(got[0], mp_log_bessel_i_scaled(nu, 1e-3))

    @pytest.mark.parametrize("nu", [-0.25, 0.0, 0.3, 0.5, 1.5, 4.0])
    @pytest.mark.parametrize("z", [1e-6, 0.1, 1.0, 5.0, 14.0])
    def test_series_matches_scipy(self, nu, z):
        """The fallback ascending series on its own, against scipy's iv."""
        got = math.exp(float(_log_series(nu, np.array([z]))[0]))
        assert got == pytest.approx(iv(nu, z), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.25, 0.0, 0.5, 1.5])
    def test_branch_overlap(self, nu):
        """The fallback series and ive agree wherever both are representable,
        so switching between them by value leaves no seam."""
        z = np.geomspace(1e-8, 15.0, 9)
        series = _log_series(nu, z) - z
        np.testing.assert_allclose(log_bessel_i_scaled(nu, z), series, rtol=1e-12, atol=1e-12)

    def test_half_order_closed_form(self):
        # I_{1/2}(z) e^{-z} = (1 - e^{-2z}) / sqrt(2 pi z)
        for z in (0.3, 1.0, 7.0):
            ref = math.log(-math.expm1(-2.0 * z) / math.sqrt(2.0 * math.pi * z))
            assert log_bessel_i_scaled(0.5, z) == pytest.approx(ref, rel=1e-12)

    def test_z_zero(self):
        assert log_bessel_i_scaled(0.0, 0.0) == 0.0
        assert log_bessel_i_scaled(1.5, 0.0) == -math.inf
        assert log_bessel_i_scaled(-0.25, 0.0) == math.inf
        got = log_bessel_i_scaled(1.5, np.array([0.0, 1.0]))
        assert got[0] == -math.inf and math.isfinite(got[1])

    @pytest.mark.parametrize("z", [1e-8, 0.5, 10.0, 15.0, 40.0, 200.0])
    def test_log_scaled_consistency(self, z):
        assert_log_close(log_bessel_i_scaled(0.3, z), mp_log_bessel_i_scaled(0.3, z))

    def test_large_argument_no_overflow(self):
        # scaled log stays finite far beyond the overflow point of I itself
        val = log_bessel_i_scaled(0.5, 1e6)
        assert val == pytest.approx(-0.5 * math.log(2.0 * math.pi * 1e6), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.75, 0.0, 0.5, 25.0, 50.0])
    def test_past_ive_range(self, nu):
        # ive returns nan from z = (2^31 - 1) / 2 on; both sides of the
        # switch to the large-argument expansion must be right
        z = np.array([IVE_Z_MAX, 1.001 * IVE_Z_MAX, 1e10, 1e15])
        for g, zi in zip(log_bessel_i_scaled(nu, z), z):
            assert_log_close(g, mp_log_bessel_i_scaled(nu, zi))

    @pytest.mark.parametrize("nu", [-1.0 + 2.0**-52, -0.999999999, -0.9999])
    def test_order_near_minus_one(self, nu):
        # the reflection from positive order must keep the digits of
        # sin(nu pi) as nu -> -1; at subnormal z, K_{-nu} overflows
        for z in (5e-324, 1e-12, 1e-6, 1e-3, 1.0, 30.0):
            assert_log_close(log_bessel_i_scaled(nu, z), mp_log_bessel_i_scaled(nu, z))

    @pytest.mark.parametrize("nu", [-0.999, -0.5, -0.25, -1e-9])
    def test_reflection_drops_vanishing_k_term(self, nu):
        # the K term is left out from z = 20 on, where it is below half an
        # ulp of ive: the result must equal the full reflection bit for bit
        v = -nu
        z = np.concatenate(
            (np.geomspace(15.0, 1e4, 4000), np.random.default_rng(1).uniform(15.0, 30.0, 4000))
        )
        k_term = kve(v, z) * np.exp(-2.0 * z)
        full = ive(v, z) + (2.0 / math.pi) * math.sin(math.pi * min(v, 1.0 - v)) * k_term
        np.testing.assert_array_equal(_ive(nu, z), full)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            log_bessel_i_scaled(-1.5, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i_scaled(-1.0, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i_scaled(0.5, np.array([1.0, -1e-3]))


class TestLaguerrePoly:
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_matches_scipy(self, k, alpha):
        x = np.array([0.05, 0.7, 3.0, 18.0])
        np.testing.assert_allclose(
            laguerre_poly(k, alpha, x), eval_genlaguerre(k, alpha, x), rtol=1e-12
        )

    def test_low_orders(self):
        x = 2.0
        assert laguerre_poly(0, 0.5, x) == 1.0
        assert laguerre_poly(1, 0.5, x) == pytest.approx(1.5 - x)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            laguerre_poly(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_rows(2, -1.0, 1.0)

    @pytest.mark.parametrize("alpha", [-0.99, -0.25, 0.5, 25.0])
    def test_rows_match_laguerre_poly_bitwise(self, alpha):
        # every row of the one-pass table is the polynomial of its own degree,
        # and both equal the two-term rolling recurrence bit for bit
        x = np.geomspace(1e-3, 60.0, 17)
        rows = laguerre_rows(12, alpha, x)
        assert rows.shape == (13, 17)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in range(13):
            np.testing.assert_array_equal(rows[k], laguerre_poly(k, alpha, x))
            np.testing.assert_array_equal(rows[k], cur)
            assert laguerre_poly(k, alpha, float(x[5])) == rows[k, 5]
            if k == 0:
                prev, cur = cur, alpha + 1.0 - x
            else:
                prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)

    def test_rows_at_degree_zero(self):
        np.testing.assert_array_equal(laguerre_rows(0, 0.5, np.array([0.1, 4.0])), [[1.0, 1.0]])


class TestGaussLaguerre:
    def test_weights_sum_to_one(self):
        for alpha in (-0.25, 0.5, 3.0):
            rule = gauss_laguerre_rule(alpha, 30)
            assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-13)

    def test_moments(self):
        # against mu_alpha the first two moments are alpha+1 and (alpha+1)(alpha+2)
        alpha = 0.5
        rule = gauss_laguerre_rule(alpha, 20)
        assert rule.integrate(lambda x: x) == pytest.approx(alpha + 1.0, rel=1e-13)
        assert rule.integrate(lambda x: x * x) == pytest.approx(
            (alpha + 1.0) * (alpha + 2.0), rel=1e-13
        )

    def test_exact_degree(self):
        rule = gauss_laguerre_rule(0.0, 5)
        assert rule.exact_degree == 9
        # degree-9 polynomial integrates exactly: moment E x^9 = 9!
        assert rule.integrate(lambda x: x**9) == pytest.approx(
            math.factorial(9), rel=1e-12
        )

    def test_orthonormality(self):
        alpha = -0.25
        rule = gauss_laguerre_rule(alpha, 40)
        for j in range(1, 5):
            inner = rule.integrate(
                lambda x: laguerre_poly(j, alpha, x) * laguerre_poly(j - 1, alpha, x)
            )
            assert abs(inner) < 1e-12

    def test_bad_node_count(self):
        with pytest.raises((DomainError, QuadratureError)):
            gauss_laguerre_rule(0.5, 0)

    def test_rules_are_shared_and_read_only(self):
        rule = gauss_laguerre_rule(0.5, 200)
        assert gauss_laguerre_rule(0.5, 200) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestGaussJacobi:
    @pytest.mark.parametrize("a", [-0.99, -0.5, 0.0, 2.5, 300.0])
    def test_moments_exact_to_degree(self, a):
        # int_0^1 eta^(a + j) d eta = 1 / (a + j + 1) for j <= 2n - 1; at
        # a = -0.99 the lowest node carries 96 % of the j = 0 moment
        rule = gauss_jacobi_rule(a, 8)
        assert rule.exact_degree == 15
        for j in range(16):
            got = rule.integrate(lambda eta: eta**j)
            assert got == pytest.approx(1.0 / (a + j + 1.0), rel=1e-13), j

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(-1.0, 8)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.5, 0)

    def test_rules_are_shared_and_read_only(self):
        rule = gauss_jacobi_rule(0.5, 16)
        assert gauss_jacobi_rule(0.5, 16) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
