import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import comb
from scipy.special import gamma as scipy_gamma

import laguerre_ops
from laguerre_ops.errors import DomainError, NonzeroMeanError, QuadratureError
from laguerre_ops.expansion import (
    OPERATORS,
    LaguerreExpansion,
    MultiIndexParams,
    bessel_derivative,
    bessel_potential,
    fractional_derivative,
    fractional_integral,
    pi0,
    random_expansion,
    spectral_apply,
)
from laguerre_ops.fractional import (
    ROUTES,
    _route_integral,
    _time_rule,
    FracOpConfig,
    bessel_derivative_apply,
    bessel_derivative_expansion,
    bessel_potential_apply,
    bessel_potential_expansion,
    c_lambda,
    forward_difference,
    fractional_derivative_apply,
    fractional_derivative_expansion,
    fractional_integral_apply,
    fractional_integral_expansion,
    smallest_integer_above,
)
from laguerre_ops import kernels
from laguerre_ops.kernels import S_CUTOFF
from laguerre_ops.specfun import laguerre_poly

P = MultiIndexParams(1, (0.5,))


def c_lambda_closed(lam, k):
    """Independent oracle: Gamma(-lam) sum_j C(k,j) (-1)^(k-j) j^lam."""
    return scipy_gamma(-lam) * sum(
        comb(k, j, exact=True) * (-1.0) ** (k - j) * j**lam for j in range(1, k + 1)
    )


class TestKSelection:
    def test_strictly_greater(self):
        assert smallest_integer_above(0.5) == 1
        assert smallest_integer_above(1.0) == 2
        assert smallest_integer_above(1.5) == 2
        assert smallest_integer_above(2.3) == 3

    def test_config(self):
        with pytest.raises(DomainError):
            FracOpConfig(-0.5)

    @pytest.mark.parametrize(
        "call, args",
        [
            (smallest_integer_above, (math.inf,)),
            (smallest_integer_above, (math.nan,)),
            (FracOpConfig, (math.inf,)),
            (c_lambda, (0.5, 1.5)),
            (c_lambda, (math.nan, 1)),
            (forward_difference, (math.exp, 1.5, 0.1, 0.2)),
            (forward_difference, (math.exp, True, 0.1, 0.2)),
            (fractional_derivative_apply, (lambda y: y, P, math.inf, (1.3,))),
        ],
    )
    def test_bad_orders_raise_domain_error(self, call, args):
        # an order that is not finite, or a difference order k that is not a
        # positive integer, is a DomainError, not an OverflowError, a
        # TypeError or a nan
        with pytest.raises(DomainError):
            call(*args)


class TestCLambda:
    def test_half_closed_form(self):
        # c_(1/2) = Gamma(-1/2) = -2 sqrt(pi)
        assert c_lambda(0.5, 1) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_quarter_closed_form(self):
        assert c_lambda(0.25, 1) == pytest.approx(
            -math.gamma(0.75) / 0.25, rel=1e-12
        )

    def test_lambda_one_k_two(self):
        # integration by parts twice gives 2 log 2
        assert c_lambda(1.0, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("lam,k", [(0.3, 1), (0.7, 2), (1.5, 2), (2.3, 3)])
    def test_general_closed_form(self, lam, k):
        assert c_lambda(lam, k) == pytest.approx(c_lambda_closed(lam, k), rel=1e-12)

    @pytest.mark.parametrize("lam,k", [(0.4, 1), (1.2, 2), (2.6, 3)])
    def test_sign(self, lam, k):
        assert math.copysign(1.0, c_lambda(lam, k)) == (-1.0) ** k

    def test_rule_past_the_float_range_raises(self):
        # at k = 110 the Jacobi weights w / s^k overflow; the constant was nan
        with pytest.raises(DomainError, match="overflow"):
            c_lambda(109.5, 110)

    def test_divergence(self):
        with pytest.raises(DomainError):
            c_lambda(1.0, 1)
        with pytest.raises(DomainError):
            c_lambda(2.5, 2)


class TestForwardDifference:
    def test_k_one_is_plain_difference(self):
        f = math.sin
        s, t = 0.2, 1.0
        assert forward_difference(f, 1, s, t) == pytest.approx(f(t + s) - f(t))

    def test_annihilates_low_degree(self):
        assert forward_difference(lambda u: u * u, 3, 0.37, 1.1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_leading_coefficient(self):
        s = 0.5
        assert forward_difference(lambda u: u**3, 3, s, 2.0) == pytest.approx(
            6.0 * s**3
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_iteration_identity(self, k):
        rng = np.random.default_rng(5)
        poly = np.polynomial.Polynomial(rng.uniform(-1, 1, 6))
        s, t = 0.37, 0.6
        lhs = forward_difference(poly, k, s, t)
        rhs = forward_difference(
            lambda u: forward_difference(poly, k - 1, s, u), 1, s, t
        )
        assert lhs == pytest.approx(rhs, abs=5e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterated_integral_of_derivative(self, k):
        # for f = exp, the k-fold integral of f^(k) over [t, t+s]^k
        # collapses to e^t (e^s - 1)^k
        s, t = 0.2, 0.1
        lhs = forward_difference(math.exp, k, s, t)
        assert lhs == pytest.approx(math.exp(t) * math.expm1(s) ** k, abs=1e-10)

    @pytest.mark.parametrize("j,k", [(1, 2), (2, 2), (1, 3)])
    def test_commutes_with_derivative(self, j, k):
        rng = np.random.default_rng(8)
        poly = np.polynomial.Polynomial(rng.uniform(-1, 1, 7))
        s, t = 0.45, 0.8
        shift = np.polynomial.Polynomial([0.0, 1.0])
        q = sum(
            comb(k, i, exact=True) * (-1.0) ** i * poly(shift + (k - i) * s)
            for i in range(k + 1)
        )
        assert q.deriv(j)(t) == pytest.approx(
            forward_difference(poly.deriv(j), k, s, t), abs=5e-12
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_arrays_match_scalar_calls(self, k):
        # s and t broadcast; each element is the scalar call's value, bit for
        # bit, for an f that computes the same on arrays as on scalars (numpy's
        # array power need not round as the scalar one does)
        t = np.linspace(0.1, 2.0, 16)
        s = np.linspace(1e-3, t, 16)
        f = np.polynomial.Polynomial(np.random.default_rng(3).uniform(-1, 1, 6))
        got = forward_difference(f, k, s, t)
        want = [[forward_difference(f, k, sv, tv) for sv, tv in zip(row_s, t.tolist())]
                for row_s in s.tolist()]
        assert got.tolist() == want

    @pytest.mark.parametrize("delta", [0.3, 0.7])
    @pytest.mark.parametrize("k", [1, 2])
    def test_power_ratio_bound(self, delta, k):
        # |Delta_s^k(r^delta, t)| <= |delta (delta-1) ... (delta-k+1)| s^k t^(delta-k)
        cap = 1.0
        for i in range(k):
            cap *= abs(delta - i)
        for t in np.linspace(0.1, 2.0, 8):
            for s in np.linspace(1e-3, t, 8):
                val = abs(forward_difference(lambda u: u**delta, k, s, t))
                assert val <= cap * s**k * t ** (delta - k) * (1 + 1e-12)


class TestExpansionRoutes:
    """Quadrature route against the exact diagonal action."""

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.5])
    def test_all_four_match_spectral(self, lam):
        e = random_expansion(P, 6, seed=7)
        e0 = pi0(e)
        cfg = FracOpConfig(lam)
        pairs = [
            (bessel_potential_expansion(e, cfg), spectral_apply(bessel_potential(lam), e)),
            (
                fractional_integral_expansion(e0, cfg),
                spectral_apply(fractional_integral(lam), e0),
            ),
            (
                fractional_derivative_expansion(e, cfg),
                spectral_apply(fractional_derivative(lam), e),
            ),
            (
                bessel_derivative_expansion(e, cfg),
                spectral_apply(bessel_derivative(lam), e),
            ),
        ]
        for got, want in pairs:
            for k in got.coeffs:
                assert got.coeffs[k] == pytest.approx(
                    want.coeffs.get(k, 0.0), abs=1e-12
                )

    def test_inverse_pairs(self):
        e = random_expansion(P, 6, seed=7)
        cfg = FracOpConfig(0.7)
        e0 = pi0(e)
        back = fractional_derivative_expansion(
            fractional_integral_expansion(e0, cfg), cfg
        )
        for k in back.coeffs:
            assert back.coeffs[k] == pytest.approx(e0.coeffs.get(k, 0.0), abs=1e-12)
        back2 = bessel_derivative_expansion(bessel_potential_expansion(e, cfg), cfg)
        for k in back2.coeffs:
            assert back2.coeffs[k] == pytest.approx(e.coeffs.get(k, 0.0), abs=1e-12)

    def test_integral_rejects_nonzero_mean(self):
        e = LaguerreExpansion(P, 1, {(0,): 1.0, (1,): 1.0})
        with pytest.raises(NonzeroMeanError):
            fractional_integral_expansion(e, FracOpConfig(0.5))

    def test_integral_rejects_a_small_mean_as_spectral_apply_does(self):
        # the expansion's mean is exact, so any nonzero one raises on every entry point
        e = LaguerreExpansion(P, 2, {(0,): 1e-9, (1,): 1.0, (2,): 0.5})
        for call in (lambda: fractional_integral_expansion(e, FracOpConfig(0.7)),
                     lambda: fractional_integral_apply(e, P, 0.7, (1.3,)),
                     lambda: spectral_apply(fractional_integral(0.7), e)):
            with pytest.raises(NonzeroMeanError):
                call()

    def test_potential_fixes_constants(self):
        e = LaguerreExpansion(P, 0, {(0,): 2.0})
        out = bessel_potential_expansion(e, FracOpConfig(1.0))
        assert out.coeffs[(0,)] == pytest.approx(2.0, abs=1e-12)

    def test_derivative_kills_constants(self):
        e = LaguerreExpansion(P, 0, {(0,): 2.0})
        out = fractional_derivative_expansion(e, FracOpConfig(0.5))
        assert out.coeffs[(0,)] == 0.0


class TestOperatorTable:
    def test_routes_cover_known_operators(self):
        assert set(ROUTES) <= set(OPERATORS)
        assert {kind for kind, op in OPERATORS.items() if op.zero_mean} <= set(ROUTES)

    @pytest.mark.parametrize("kind", list(ROUTES))
    @pytest.mark.parametrize("lam", [0.3, 1.5, 0.995, 1.985])
    def test_route_matches_symbol(self, kind, lam):
        factory = getattr(laguerre_ops, kind)
        expansion_op = getattr(laguerre_ops, kind + "_expansion")
        assert callable(getattr(laguerre_ops, kind + "_apply"))
        e = random_expansion(P, 6, seed=3)
        if OPERATORS[kind].zero_mean:
            e = pi0(e)
        got = expansion_op(e, FracOpConfig(lam))
        want = spectral_apply(factory(lam), e)
        assert factory(lam).kind == kind
        np.testing.assert_allclose(got.vector, want.vector, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("kind", list(ROUTES))
    def test_multipliers_match_symbols_to_order_400(self, kind):
        # the Jacobi panel at s = 0 carries the weight s^(lam-1) or
        # s^(k-lam-1) exactly, also as k - lam -> 0
        shift, route = ROUTES[kind]
        n = np.arange(1, 401)
        for lam in (0.1, 0.3, 1.0, 1.5, 1.9, 0.995, 1.985):
            m = getattr(laguerre_ops, kind)(lam)
            k = smallest_integer_above(lam)
            norm = scipy_gamma(lam) if route == "laplace" else c_lambda(lam, k)
            got = _route_integral(route, lam, k, shift + np.sqrt(n)) / norm
            want = [m.value(v) for v in n.tolist()]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11, err_msg=f"lam={lam}")

    def test_time_rule_is_built_once_and_read_only(self):
        for route, k in (("laplace", 1), ("difference", 2)):
            s, w = _time_rule(route, 1.5, k)
            assert _time_rule(route, 1.5, k)[1] is w
            assert not (s.flags.writeable or w.flags.writeable)
        # the difference route ends at the package's one cutoff, where its
        # last node carries the tail S_CUTOFF^(-lam) / lam
        assert (s[-1], w[-1]) == (S_CUTOFF, S_CUTOFF**-1.5 / 1.5)

    @pytest.mark.parametrize("kind", ["bessel_potential", "fractional_integral"])
    @pytest.mark.parametrize("lam", [15.0, 20.0, 30.0])
    def test_laplace_multipliers_at_large_lambda(self, kind, lam):
        # the Laplace rule adds the exact tail past S_CUTOFF, where the mass
        # of s^(lam-1) e^(-s) grows with lam (a rule that stopped at s = 45
        # was off by 7.3e-3 at lam = 30)
        e = LaguerreExpansion(P, 10, np.ones(11))
        if OPERATORS[kind].zero_mean:
            e = pi0(e)
        got = getattr(laguerre_ops, kind + "_expansion")(e, FracOpConfig(lam))
        want = spectral_apply(getattr(laguerre_ops, kind)(lam), e)
        np.testing.assert_allclose(got.vector, want.vector, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("kind", list(ROUTES))
    def test_high_order_multipliers_use_homogeneity(self, kind):
        # modes whose fastest rate (a, or k a on the difference route) is
        # above the rule's reference rate are taken at that rate in a
        # rescaled time
        shift, route = ROUTES[kind]
        n = np.array([10**3, 10**4, 10**5, 10**6])
        for lam in (0.3, 1.5, 1.9):
            m = getattr(laguerre_ops, kind)(lam)
            for k in (smallest_integer_above(lam), 4):
                norm = scipy_gamma(lam) if route == "laplace" else c_lambda(lam, k)
                got = _route_integral(route, lam, k, shift + np.sqrt(n)) / norm
                for g, v in zip(got.tolist(), n.tolist()):
                    assert g == pytest.approx(m.value(v), rel=1e-13, abs=0.0), (lam, k, v)

    def test_sparse_expansion_integrates_present_orders_only(self, monkeypatch):
        rates = []
        route_integral = laguerre_ops.fractional._route_integral

        def counted(route, lam, k, a):
            rates.append(np.asarray(a, dtype=float).tolist())
            return route_integral(route, lam, k, a)

        monkeypatch.setattr(laguerre_ops.fractional, "_route_integral", counted)
        e = LaguerreExpansion(P, 4, {(4,): 1.0})
        out = laguerre_ops.fractional_derivative_expansion(e, FracOpConfig(0.5))
        # one pass over the one present order's rate sqrt(4) and c_lambda's rate 1
        assert rates == [[2.0, 1.0]]
        assert out.coeffs[(4,)] == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert out.vector[:4].tolist() == [0.0] * 4

    def test_distinct_orders_leave_no_memory_behind(self):
        # no c_lambda_k is kept per lambda, and the time rules kept per
        # lambda are bounded; the first 300 fill the 256 rules of the time
        # rule's cache and the 256 Jacobi panels of specfun.gauss_jacobi_rule's,
        # under tracing, so the entries evicted later count as freed
        e = random_expansion(P, 8, seed=4)
        lams = np.random.default_rng(12).uniform(0.05, 1.95, 900).tolist()
        tracemalloc.start()
        try:
            for lam in lams[:300]:
                fractional_derivative_expansion(e, FracOpConfig(lam))
            before = tracemalloc.get_traced_memory()[0]
            for lam in lams[300:]:
                fractional_derivative_expansion(e, FracOpConfig(lam))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 100_000


class TestPointApply:
    def test_expansion_input_uses_fast_path(self):
        e = LaguerreExpansion(P, 4, {(4,): 1.0})
        x = (1.3,)
        got = bessel_potential_apply(e, P, 2.0, x)
        want = laguerre_poly(4, 0.5, 1.3) / 9.0
        assert got == pytest.approx(want, rel=1e-10)

    def test_callable_bessel_potential(self):
        # J_1 L_1 = L_1 / 2 through the subordinated kernel quadrature
        got = bessel_potential_apply(
            lambda y: laguerre_poly(1, 0.5, y), P, 1.0, (1.3,)
        )
        assert got == pytest.approx(0.5 * laguerre_poly(1, 0.5, 1.3), abs=1e-6)

    def test_callable_fractional_derivative(self):
        got = fractional_derivative_apply(
            lambda y: laguerre_poly(1, 0.5, y), P, 0.5, (1.3,)
        )
        assert got == pytest.approx(laguerre_poly(1, 0.5, 1.3), abs=1e-4)

    @pytest.mark.parametrize(
        "alpha,k,lam,x",
        [
            (0.5, 3, 0.8276, 2.6302),  # error 1.4e-4 with a subordination rule per s
            (0.5, 1, 1.1681, 0.8782),  # error 8.0e-2 with a subordination rule per s
            (-0.25, 4, 1.2041, 2.7938),  # error 2.6e-1 with a subordination rule per s
            (2.0, 4, 1.8001, 0.8374),  # error 1.5e-4 with an O(s^k) model below a floor
            (2.0, 3, 0.8558, 0.5914),  # error 1.1e-4 with an O(s^k) model below a floor
        ],
    )
    def test_callable_fractional_derivative_on_eigenfunctions(self, alpha, k, lam, x):
        # the differences of P_s f amplify any noise that varies with s;
        # every s shares one subordination rule, so there is none
        params = MultiIndexParams(1, (alpha,))
        f = lambda y: laguerre_poly(k, alpha, y)
        got = fractional_derivative_apply(f, params, lam, (x,))
        assert got == pytest.approx(k ** (lam / 2) * laguerre_poly(k, alpha, x), abs=1e-6)

    @pytest.mark.parametrize("kind", ["fractional_derivative", "bessel_derivative"])
    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    @pytest.mark.parametrize("lam", [0.9, 1.5, 1.8, 1.95])
    def test_callable_difference_route(self, kind, alpha, lam):
        # the Gauss-Jacobi panel carries s^(k-lam-1) times Delta_s^k / s^k
        # down to s = 0
        params = MultiIndexParams(1, (alpha,))
        f = lambda y: laguerre_poly(3, alpha, y)
        got = getattr(laguerre_ops, kind + "_apply")(f, params, lam, (1.3,))
        want = getattr(laguerre_ops, kind)(lam).value(3) * laguerre_poly(3, alpha, 1.3)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("kind", ["fractional_derivative", "bessel_derivative"])
    def test_callable_difference_route_at_d2(self, kind):
        # f(x) is read as one point of shape (1, d), as f reads every other
        # point: an f of (m, d) arrays agrees with the spectral route
        p2 = MultiIndexParams(2, (0.5, -0.25))
        e = random_expansion(p2, 4, seed=0)
        apply = getattr(laguerre_ops, kind + "_apply")
        got = apply(lambda pts: laguerre_ops.synthesize_many(e, pts), p2, 1.5, (1.2, 0.7))
        assert got == pytest.approx(apply(e, p2, 1.5, (1.2, 0.7)), rel=1e-9)

    def test_callable_difference_route_reads_one_point_at_d2(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        got = fractional_derivative_apply(lambda pts: np.exp(-0.3 * pts[:, 0]), p2, 0.5, (1.2, 0.7))
        assert math.isfinite(got)

    @pytest.mark.parametrize(
        "kind,alpha,k,lam,x",
        [
            ("bessel_potential", 2.0, 3, 0.1909, 1.013),  # error 0.29 on graded panels
            ("bessel_potential", 0.5, 3, 0.1326, 1.9704),  # error 0.22 on graded panels
            ("bessel_potential", -0.25, 4, 0.3054, 1.5564),
            ("fractional_integral", 2.0, 4, 0.4173, 0.8821),
        ],
    )
    def test_callable_laplace_route_small_lambda(self, kind, alpha, k, lam, x):
        # the weight s^(lam-1) is carried by a Gauss-Jacobi panel on (0, 1]
        params = MultiIndexParams(1, (alpha,))
        f = lambda y: laguerre_poly(k, alpha, y)
        got = getattr(laguerre_ops, kind + "_apply")(f, params, lam, (x,))
        want = getattr(laguerre_ops, kind)(lam).value(k) * laguerre_poly(k, alpha, x)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("kind", ["fractional_integral", "bessel_potential"])
    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_callable_laplace_route_at_alpha_300(self, kind, lam):
        # the zero-mean check and P_s f past the cutoff come from the heat
        # rule, which holds at this alpha
        params = MultiIndexParams(1, (300.0,))
        f = lambda y: laguerre_poly(2, 300.0, y)
        got = getattr(laguerre_ops, kind + "_apply")(f, params, lam, (250.0,))
        want = getattr(laguerre_ops, kind)(lam).value(2) * laguerre_poly(2, 300.0, 250.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
    def test_callable_derivative_is_within_tolerance_or_raises(self, lam):
        # D_lam (1.5 - y) = L_1^0.5(1.3) = 0.2; from lam = 3.5 on Delta_s^k
        # cancels below its rounding near s = 0 (it returned 3.02 at 5.5)
        f = lambda y: 1.5 - y
        if lam < 3.0:
            got = fractional_derivative_apply(f, P, lam, (1.3,))
            assert got == pytest.approx(0.2, rel=1e-8)
        else:
            with pytest.raises(QuadratureError, match=f"lambda={lam}, k="):
                fractional_derivative_apply(f, P, lam, (1.3,))

    @pytest.mark.parametrize("lam", [10.0, 15.0, 20.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_callable_laplace_route_at_large_lambda_is_within_tolerance_or_raises(self, k, lam):
        # the weights s^(lam-1) / Gamma(lam) multiply the rounding of P_s f(x)
        # near s = 40, which the Kronrod and Gauss sums share; it returned
        # values off by 6.9e-6 to 92 relative
        f = lambda y: laguerre_poly(k, 0.5, y)
        want = fractional_integral(lam).value(k) * laguerre_poly(k, 0.5, 1.3)
        try:
            got = fractional_integral_apply(f, P, lam, (1.3,))
        except QuadratureError as err:
            assert f"lambda={lam}, k=" in str(err)
        else:
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_callable_derivative_below_an_integer_order_is_within_tolerance_or_raises(self, alpha):
        # at lam = 1.99 the first weight of the difference rule is 1.5e11, so
        # the rounding of f(y) near x moves the value by 5.0e-8 to 2.1e-7
        params = MultiIndexParams(1, (alpha,))
        f = lambda y: laguerre_poly(3, alpha, y)
        want = fractional_derivative(1.99).value(3) * laguerre_poly(3, alpha, 1.3)
        try:
            got = fractional_derivative_apply(f, params, 1.99, (1.3,))
        except QuadratureError as err:
            assert "lambda=1.99, k=2" in str(err)
        else:
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("kind", sorted(ROUTES))
    @pytest.mark.parametrize("lam", [0.7, 1.5])
    def test_callable_route_reads_its_table_once(self, monkeypatch, kind, lam):
        # the time integral settles as one value of one semigroup table read
        reads, read = [], kernels._read_table
        monkeypatch.setattr(kernels, "_read_table", lambda *a: reads.append(a[3]) or read(*a))
        f = lambda y: laguerre_poly(3, 0.5, y)
        got = getattr(laguerre_ops, kind + "_apply")(f, P, lam, (1.3,))
        want = getattr(laguerre_ops, kind)(lam).value(3) * laguerre_poly(3, 0.5, 1.3)
        assert got == pytest.approx(want, rel=1e-8)
        assert len(reads) == 1

    @pytest.mark.parametrize("lam, error", [
        (105.5, QuadratureError), (108.5, QuadratureError), (120.0, QuadratureError),
        (109.5, DomainError), (150.5, DomainError),
    ])
    def test_callable_difference_route_fails_closed_at_large_lambda(self, lam, error):
        # from lambda ~ 105 the rule's weights times the rounding of Delta^k
        # overflow, and it returned inf, nan or -inf; from 109.5 the Jacobi
        # weights w / s^k of the rule overflow themselves
        f = lambda y: laguerre_poly(3, 0.5, y)
        with pytest.raises(error, match=f"lambda={lam}"):
            fractional_derivative_apply(f, P, lam, (1.0,))

    def test_callable_bessel_derivative_on_constants(self):
        got = bessel_derivative_apply(lambda y: np.ones_like(y), P, 0.5, (1.3,))
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_callable_integral_rejects_nonzero_mean(self):
        with pytest.raises(NonzeroMeanError):
            fractional_integral_apply(lambda y: np.ones_like(y), P, 0.5, (1.3,))
