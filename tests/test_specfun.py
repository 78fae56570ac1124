import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, iv

from laguerre_ops.errors import DomainError, PoleError, QuadratureError
from laguerre_ops.specfun import (
    IV_Z_MAX,
    IVE_Z_MAX,
    _ascending,
    _hankel,
    _log_hankel,
    _log_series,
    gamma,
    gauss_jacobi_rule,
    gauss_kronrod_rule,
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
        # iv(nu, z) e^-z underflows here, and the series peaks near term
        # sqrt((z/2)^2 + (nu/2)^2) - nu/2, far past a fixed 40 terms
        got = log_bessel_i_scaled(nu, np.array([1e-3, z]))
        assert got[1] == pytest.approx(mp_log_bessel_i_scaled(nu, z), rel=0.0, abs=1e-12)
        # a small z in the same call shares the term count of the largest
        assert_log_close(got[0], mp_log_bessel_i_scaled(nu, 1e-3))

    def test_series_at_an_order_whose_square_overflows(self):
        # nu^2 overflows a float from nu ~ 1.3e154; the series' term count
        # is taken without it
        assert_log_close(log_bessel_i_scaled(1e200, 1.0), mp_log_bessel_i_scaled(1e200, 1.0))

    @pytest.mark.parametrize("nu", [-0.25, 0.0, 0.3, 0.5, 1.5, 4.0])
    @pytest.mark.parametrize("z", [1e-6, 0.1, 1.0, 5.0, 14.0])
    def test_series_matches_scipy(self, nu, z):
        """The fallback ascending series on its own, against scipy's iv."""
        got = math.exp(float(_log_series(nu, np.array([z]))[0]))
        assert got == pytest.approx(iv(nu, z), rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.25, 0.0, 0.5, 1.5])
    def test_branch_overlap(self, nu):
        """The fallback series and iv agree wherever both are representable,
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
        # iv takes these orders directly and must keep their digits as
        # nu -> -1; at subnormal z the log-series takes over
        for z in (5e-324, 1e-12, 1e-6, 1e-3, 1.0, 30.0):
            assert_log_close(log_bessel_i_scaled(nu, z), mp_log_bessel_i_scaled(nu, z))

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            log_bessel_i_scaled(-1.5, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i_scaled(-1.0, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i_scaled(0.5, np.array([1.0, -1e-3]))

    @pytest.mark.parametrize("nu, z", [
        (math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, np.array([1.0, math.nan])),
    ])
    def test_rejects_nan_and_infinite_order(self, nu, z):
        with pytest.raises(DomainError):
            log_bessel_i_scaled(nu, z)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
    def test_infinite_argument(self, nu):
        # I_nu(z) e^{-z} ~ (2 pi z)^{-1/2} -> 0
        assert log_bessel_i_scaled(nu, math.inf) == -math.inf

    @pytest.mark.parametrize("nu", [-0.99, -0.25, 0.0, 0.5, 2.0, 25.0, 60.0, 300.0])
    def test_mixed_arrays_equal_scalar_calls(self, nu):
        # arrays that mix the z of every branch (zero, series, iv, ive from
        # IV_Z_MAX to z_h(nu) at orders from 25 on, the large-argument
        # expansion from z_h and past IVE_Z_MAX) give each z its scalar value
        # exactly, on each side of z_h and IV_Z_MAX too
        z = [0.0, 5e-324, 1e-300, 1e-3, 20.0, 2e9]
        for edge in (_hankel(nu)[0], IV_Z_MAX):
            z += [0.5 * edge, np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf), 2.0 * edge]
        z = np.array(z)
        for order in (z, z[::-1], np.roll(z, 3), np.random.default_rng(0).permutation(z)):
            want = [log_bessel_i_scaled(nu, float(v)) for v in order]
            assert log_bessel_i_scaled(nu, order).tolist() == want

    @pytest.mark.parametrize("nu", [-0.999999, -0.9, -0.25, 0.3, 0.5])
    def test_moderate_argument_within_4e_15(self, nu):
        # z in [5, 60] spans Amos's own region switch (z ~ 11-21), where ive
        # is off by up to 6e-14; iv below z_h and the expansion above it are
        # within 4e-15 of I_nu(z) e^-z, relative
        z = np.linspace(5.0, 60.0, 200)
        ref = np.array([mp_log_bessel_i_scaled(nu, v) for v in z])
        assert np.max(np.abs(log_bessel_i_scaled(nu, z) - ref)) <= 4e-15

    @pytest.mark.parametrize("nu", [-0.25, 0.5, 2.0, 10.0, 25.0, 60.0, 300.0])
    def test_each_side_of_each_switch(self, nu):
        # z_h(nu): 37, 20, 39, 74, 890, 5564 and 1.4e5; at 25 and up ive
        # takes the z between IV_Z_MAX and z_h
        for edge in (_hankel(nu)[0], IV_Z_MAX):
            for z in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
                assert_log_close(log_bessel_i_scaled(nu, z), mp_log_bessel_i_scaled(nu, z))


#: orders of the ascending-series band; at 300 it is empty (a_19 4^-19 underflows)
ASCENDING_ORDERS = [-0.99, -0.25, 0.0, 0.3, 2.0, 25.0, 300.0]


def ascending_edge(nu):
    """The z below which the ascending series takes a point, or 40 (about
    where it would end) at an order whose band is empty."""
    return min(_ascending(nu)[0], _hankel(nu)[0]) or 40.0


def ascending_points(nu):
    edge = ascending_edge(nu)
    return np.concatenate((np.geomspace(1e-6, edge, 60), [np.nextafter(edge, 0.0), edge,
                                                           np.nextafter(edge, math.inf)]))


class TestAscendingSeries:
    """The ascending series (DLMF 10.25.2) at 20 terms below z_s(nu), in linear
    space, and iv, then the log-space series, where its value leaves the normal
    range."""

    @pytest.mark.parametrize("nu, z_s", [(-0.25, 6.36), (0.5, 6.79), (2.0, 7.47), (135.0, 27.26)])
    def test_band_edge(self, nu, z_s):
        # the first dropped term is eps/4 of the first there
        assert _ascending(nu)[0] == pytest.approx(z_s, abs=0.01)

    @pytest.mark.parametrize("nu", [145.0, 300.0, 1e15])
    def test_band_is_empty_where_a_term_underflows(self, nu):
        assert _ascending(nu)[0] == 0.0

    @pytest.mark.parametrize("nu", ASCENDING_ORDERS)
    def test_matches_mpmath(self, nu):
        z = ascending_points(nu)
        for g, zi in zip(log_bessel_i_scaled(nu, z), z):
            assert_log_close(g, mp_log_bessel_i_scaled(nu, zi))

    @pytest.mark.parametrize("nu", ASCENDING_ORDERS)
    def test_no_less_accurate_than_iv(self, nu):
        # each point's error is at most that of log(iv(nu, z) e^-z) plus 2 ulp
        # of max(1, |value|), the scale of assert_log_close: below 1 an error
        # of the log is a relative error of I_nu(z) e^-z
        z = ascending_points(nu)
        with np.errstate(under="ignore"):
            scaled = iv(nu, z) * np.exp(-z)
        keep = scaled >= np.finfo(float).tiny
        assert keep.any()
        for g, via_iv, zi in zip(log_bessel_i_scaled(nu, z[keep]), np.log(scaled[keep]), z[keep]):
            with mpmath.workdps(40):
                ref = mpmath.log(mpmath.besseli(nu, zi)) - zi
                err, iv_err = abs(g - ref), abs(via_iv - ref)
            assert err <= iv_err + 2.0 * np.spacing(max(1.0, abs(g))), zi

    @pytest.mark.parametrize("nu, z", [(25.0, 1e-12), (50.0, 1e-6), (300.0, 1.0)])
    def test_underflow_keeps_the_log_series(self, nu, z):
        # I_nu(z) e^-z is below the normal range: the point takes iv, which
        # underflows, and then the log-space series, as before the band
        want = float(_log_series(nu, np.array([z]))[0] - z)
        assert want < math.log(np.finfo(float).tiny)
        assert log_bessel_i_scaled(nu, z) == want
        assert log_bessel_i_scaled(nu, np.array([z, 1.0, 2.0 * ascending_edge(nu)]))[0] == want

    @pytest.mark.parametrize("nu", [-0.99, -0.5, -0.25, 0.0, 0.3, 0.5, 2.0, 25.0, 60.0, 135.0, 300.0])
    def test_mixed_arrays_with_band_edges_equal_scalar_calls(self, nu):
        # the zero, series, iv, ive and expansion mixes with z_s(nu) as one
        # more edge: each z keeps its scalar value, in any order and in 2-d
        z = [0.0, 5e-324, 1e-300, 1e-12, 1e-3, 1.0, 20.0, 2e9]
        for edge in (_ascending(nu)[0], _hankel(nu)[0], IV_Z_MAX):
            if edge:
                z += [0.5 * edge, np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)]
        z = np.array(z)
        for order in (z, z[::-1], np.random.default_rng(1).permutation(z)):
            want = [log_bessel_i_scaled(nu, float(v)) for v in order]
            assert log_bessel_i_scaled(nu, order).tolist() == want
        assert log_bessel_i_scaled(nu, z.reshape(2, -1)).ravel().tolist() == log_bessel_i_scaled(nu, z).tolist()


class TestHalfOrder:
    """I_(+-1/2)(z) e^-z = (1 -+ e^-2z) / sqrt(2 pi z) (DLMF 10.39.1) at every z."""

    @pytest.mark.parametrize("nu", [0.5, -0.5])
    @pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-3, 1.0, 18.9, 19.0, 20.0, 1e6])
    def test_matches_mpmath(self, nu, z):
        assert_log_close(log_bessel_i_scaled(nu, z), mp_log_bessel_i_scaled(nu, z))

    @pytest.mark.parametrize("nu, at_zero", [(0.5, -math.inf), (-0.5, math.inf)])
    def test_limits(self, nu, at_zero):
        assert log_bessel_i_scaled(nu, 0.0) == at_zero
        assert log_bessel_i_scaled(nu, math.inf) == -math.inf
        got = log_bessel_i_scaled(nu, np.array([0.0, 1.0, math.inf]))
        assert got[0] == at_zero and math.isfinite(got[1]) and got[2] == -math.inf

    @pytest.mark.parametrize("nu", [0.5, -0.5])
    def test_large_argument_keeps_the_expansion_bits(self, nu):
        # from z_h = 20 on the expansion is its front alone, and e^-2z is below
        # half an ulp of it, so the closed form (which a call with a z below
        # 20 takes at every z) gives the same bits
        z = np.geomspace(20.0, 1e9, 500)
        assert _hankel(nu)[0] == 20.0
        want = _log_hankel(_hankel(0.5)[1], z)
        assert log_bessel_i_scaled(nu, np.append(1.0, z))[1:].tolist() == want.tolist()
        assert log_bessel_i_scaled(nu, z).tolist() == want.tolist()


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

    @pytest.mark.parametrize("degree", [2.5, -1, True])
    def test_non_integer_degree(self, degree):
        with pytest.raises(DomainError):
            laguerre_rows(degree, 0.5, 1.0)

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

    @pytest.mark.parametrize("x", [3000.0, np.array([1.0, 3000.0]), np.array([[2.0], [np.inf]]),
                                   math.nan])
    def test_a_row_that_is_not_finite_raises(self, x):
        # the recurrence overflowed to inf - inf: laguerre_poly(200, 0.5, 3000.0) was nan,
        # with a RuntimeWarning
        with pytest.raises(DomainError, match=r"degree 200, largest x (3000|inf|nan)"):
            laguerre_rows(200, 0.5, x)
        with pytest.raises(DomainError, match="degree 200"):
            laguerre_poly(200, 0.5, x)

    @pytest.mark.parametrize("alpha", [-0.9, 0.5, 300.0])
    def test_finite_rows_keep_their_bits_up_to_the_overflow(self, alpha):
        # values up to ~1e240 at degree 200 are the plain recurrence's, bit for bit
        x = np.array([1e-3, 0.5, 40.0, 700.0, 1400.0])
        rows = laguerre_rows(200, alpha, x)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in range(201):
            np.testing.assert_array_equal(rows[k], cur)
            if k == 0:
                prev, cur = cur, alpha + 1.0 - x
            else:
                prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        assert np.abs(rows[-1]).max() > 1e200


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
        # 5 nodes: a degree-9 polynomial integrates exactly: moment E x^9 = 9!
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

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_non_integer_node_count(self, n):
        with pytest.raises(DomainError):
            gauss_laguerre_rule(0.5, n)

    def test_rules_are_shared_and_read_only(self):
        rule = gauss_laguerre_rule(0.5, 200)
        assert gauss_laguerre_rule(0.5, 200) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("n", [368, 1008])
    @pytest.mark.parametrize("alpha", [-0.99, -0.25, 0.5, 2.0, 171.0, 300.0])
    def test_large_rules_keep_their_mass_and_mean(self, alpha, n):
        # scipy's roots_genlaguerre returned non-finite values from 368 nodes on,
        # and at alpha >= 171 for every n (QuadratureError)
        rule = gauss_laguerre_rule(alpha, n)
        tol = 5e-13 if alpha > 100 else 2e-13
        assert np.isfinite(rule.nodes).all() and (rule.weights >= 0).all()
        assert abs(rule.weights.sum() - 1.0) <= tol
        assert abs(rule.integrate(lambda x: x) / (alpha + 1.0) - 1.0) <= tol

    @pytest.mark.parametrize("alpha,n", [(-0.9, 150), (0.5, 200)])
    def test_smallest_nodes_are_the_roots(self, alpha, n):
        # the eigenvalues alone are up to 3.5e-13 off here; one Newton step
        # through the difference-form recurrence brings them to rounding
        nodes = gauss_laguerre_rule(alpha, n).nodes
        with mpmath.workdps(40):
            for x in nodes[:3]:
                root = mpmath.findroot(lambda t: mpmath.laguerre(n, alpha, t), mpmath.mpf(x))
                assert float(abs(x - root) / root) <= 2e-15

    def test_large_rules_are_shared_and_read_only(self):
        rule = gauss_laguerre_rule(300.0, 1008)
        assert gauss_laguerre_rule(300.0, 1008) is rule
        assert (rule.weights == 0).any()  # the nodes far out in mu_300's tail
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestGaussJacobi:
    @pytest.mark.parametrize("a", [-0.99, -0.5, 0.0, 2.5, 300.0])
    def test_moments_exact_to_degree(self, a):
        # int_0^1 eta^(a + j) d eta = 1 / (a + j + 1) for j <= 2n - 1; at
        # a = -0.99 the lowest node carries 96 % of the j = 0 moment
        rule = gauss_jacobi_rule(a, 8)
        for j in range(16):
            got = rule.integrate(lambda eta: eta**j)
            assert got == pytest.approx(1.0 / (a + j + 1.0), rel=1e-13), j

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(-1.0, 8)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.5, 0)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.5, 2.5)


#: QUADPACK's 15-point Kronrod rule (dqk15): nodes from 1 down to 0, their
#: Kronrod weights, and the 7-point Gauss weights of the even-numbered nodes
K15_NODES = [
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
]
K15_WEIGHTS = [
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
]
G7_WEIGHTS = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
]


class TestGaussKronrod:
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 12, 20])
    def test_embeds_leggauss(self, n):
        # the odd-indexed nodes and their Gauss weights are leggauss(n)'s
        # own, bit for bit, and the Gauss weights are 0 elsewhere
        x, wk, wg = gauss_kronrod_rule(n)
        xg, wgl = leggauss(n)
        assert len(x) == len(wk) == len(wg) == 2 * n + 1
        assert x[1::2].tolist() == xg.tolist()
        assert wg[1::2].tolist() == wgl.tolist()
        assert not wg[::2].any()

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 12, 20])
    def test_exact_to_degree(self, n):
        # int_-1^1 x^j dx = 2 / (j + 1) for even j and 0 for odd j, to degree
        # 3n + 1 with the Kronrod weights; nodes increase, weights are positive
        x, wk, _ = gauss_kronrod_rule(n)
        assert np.all(np.diff(x) > 0) and np.all(wk > 0)
        for j in range(3 * n + 2):
            want = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.dot(wk, x**j) - want) <= 1e-14, j

    def test_matches_quadpack_k15(self):
        x, wk, wg = gauss_kronrod_rule(7)
        np.testing.assert_allclose(x[:8], -np.array(K15_NODES), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(x[7:], K15_NODES[::-1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wk[:8], K15_WEIGHTS, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wk[7:], K15_WEIGHTS[::-1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wg[1:8:2], G7_WEIGHTS, rtol=0.0, atol=1e-15)

    def test_rules_are_shared_and_read_only(self):
        rule = gauss_kronrod_rule(12)
        assert gauss_kronrod_rule(12) is rule
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            gauss_kronrod_rule(0)
        with pytest.raises(DomainError):
            gauss_kronrod_rule(2.5)
