import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from laguerre_ops import kernels, specfun
from laguerre_ops.errors import DomainError, OverflowGuardError, QuadratureError
from laguerre_ops.expansion import (
    MultiIndexParams,
    poisson,
    random_expansion,
    spectral_apply,
    synthesize,
    synthesize_many,
)
from laguerre_ops.fractional import bessel_potential_apply
from laguerre_ops.kernels import (
    BLOCK_POINTS,
    HEAT_ORDER,
    KERNEL_PANELS,
    S_CUTOFF,
    SUB_DOUBLINGS,
    SUB_ORDER,
    T_MIN,
    KernelQuery,
    heat_apply_kernel,
    heat_kernel,
    l1_kernel_derivative,
    poisson_apply,
    poisson_dt_apply,
    poisson_kernel,
    poisson_kernel_dt,
    stable_density,
    stable_density_dt,
    stable_tail_mass,
    _heat_apply_times,
    _heat_axis_rule,
    _doubled,
    _jacobi_panel,
    _panels,
    _poisson_block_once,
    _read_table,
    _subordination_rule,
)
from laguerre_ops.lipschitz import default_t_grid, default_x_grid
from laguerre_ops.specfun import laguerre_poly

P_HALF = MultiIndexParams(1, (0.5,))
P_NEG = MultiIndexParams(1, (-0.25,))


def basis_norm_sq(k, alpha):
    """||L_k^alpha||^2 in L^2(mu_alpha): binom(k + alpha, k)."""
    return math.exp(math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0) - math.lgamma(alpha + 1.0))


def spectral_heat_kernel(alpha, t, x, y, terms=200):
    """Mercer-sum oracle for the heat kernel against d mu_alpha."""
    total = 0.0
    for k in range(terms):
        total += (
            math.exp(-t * k)
            * laguerre_poly(k, alpha, x)
            * laguerre_poly(k, alpha, y)
            / basis_norm_sq(k, alpha)
        )
    return total


def closed_form_heat_kernel(alpha, t, x, y):
    """G_t(x, y) = H_t(x, y) / mu_alpha(y) in mpmath at 40 digits, r = e^-t:
    H_t(x, y) = e^(alpha t/2) (y/x)^(alpha/2) e^(-(r x + y)/(1 - r))
    I_alpha(2 sqrt(r x y)/(1 - r)) / (1 - r)."""
    with mpmath.workdps(40):
        a, t, x, y = (mpmath.mpf(v) for v in (alpha, t, x, y))
        r, one_r = mpmath.exp(-t), -mpmath.expm1(-t)
        h = (mpmath.exp(a * t / 2) * (y / x) ** (a / 2) * mpmath.exp(-(r * x + y) / one_r)
             * mpmath.besseli(a, 2 * mpmath.sqrt(r * x * y) / one_r) / one_r)
        return float(h * mpmath.gamma(a + 1) / (y**a * mpmath.exp(-y)))


def spectral_poisson_kernel(alpha, t, x, y, terms=200):
    """Mercer sum for p_t against Lebesgue dy (includes the weight)."""
    w = y**alpha * math.exp(-y) / math.gamma(alpha + 1.0)
    total = 0.0
    for k in range(terms):
        total += (
            math.exp(-t * math.sqrt(k))
            * laguerre_poly(k, alpha, x)
            * laguerre_poly(k, alpha, y)
            / basis_norm_sq(k, alpha)
        )
    return total * w


class TestHeatKernel:
    @pytest.mark.parametrize("alpha", [0.5, -0.25, -0.75, 10.0, 25.0])
    def test_matches_spectral_sum(self, alpha):
        # (0.5, 4, 4) puts the Bessel argument at z = 15.8
        for t, x, y in ((0.5, 1.0, 2.0), (0.5, 0.3, 5.0), (1.0, 1.0, 1.3), (0.5, 4.0, 4.0)):
            q = KernelQuery(MultiIndexParams(1, (alpha,)), t, (x,), (y,))
            assert heat_kernel(q) == pytest.approx(
                spectral_heat_kernel(alpha, t, x, y), rel=1e-10
            )

    @pytest.mark.parametrize("alpha", [60.0, 150.0, 300.0])
    def test_matches_closed_form_at_large_alpha(self, alpha):
        # past alpha = 25 the spectral sum needs too many terms
        for t, x, y in ((0.5, 1.0, 2.0), (0.5, 4.0, 4.0), (1.0, 1.0, 1.3),
                        (0.5, alpha, alpha), (0.1, alpha, 1.1 * alpha), (2.0, 0.5 * alpha, alpha)):
            q = KernelQuery(MultiIndexParams(1, (alpha,)), t, (x,), (y,))
            assert heat_kernel(q) == pytest.approx(
                closed_form_heat_kernel(alpha, t, x, y), rel=1e-12
            ), (t, x, y)

    @pytest.mark.parametrize("t", [730.0, 740.0, 745.0])
    def test_matches_closed_form_where_e_minus_t_is_subnormal(self, t):
        # e^-t x keeps few digits here; log(v / v0) and the Bessel factor's
        # log(v0) cancel its error (a form in log x and t read 1.15 at t = 745)
        for alpha, x, y in ((0.5, 1.0, 2.0), (-0.25, 1.0, 2.0), (2.0, 3.0, 0.5)):
            q = KernelQuery(MultiIndexParams(1, (alpha,)), t, (x,), (y,))
            assert heat_kernel(q) == pytest.approx(
                closed_form_heat_kernel(alpha, t, x, y), rel=1e-12
            ), (alpha, x, y)

    @pytest.mark.parametrize("t", [1e-300, 700.0, 745.0])
    def test_extreme_times_that_hold(self, t):
        # T_t f(1) for f = e^-y tends to f(1) as t -> 0 and to the mu_0.5-mean
        # 2^-1.5 as t -> inf
        got = heat_apply_kernel(lambda y: np.exp(-y), KernelQuery(P_HALF, t, (1.0,)))
        assert got == pytest.approx(math.exp(-1.0) if t < 1.0 else 2.0**-1.5, rel=1e-12)
        got = heat_kernel(KernelQuery(P_HALF, t, (1.0,), (1.0,)))
        assert got == pytest.approx(closed_form_heat_kernel(0.5, t, 1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("t", [5e-324, 1e-320, 1e-308, 746.0, 1e4])
    def test_times_past_the_float_range_raise_naming_t(self, t):
        # e^-t x underflows, or the Bessel argument 2 e^-t x / (1 - e^-t)
        # overflows: T_t f(x) read nan (t >= 746) or 0 (t <= 1e-308), and
        # heat_kernel nan at t = 5e-324
        with pytest.raises(DomainError, match=f"t={t:g}"):
            heat_apply_kernel(lambda y: np.exp(-y), KernelQuery(P_HALF, t, (1.0,)))
        with pytest.raises(DomainError, match=f"t={t:g}"):
            heat_kernel(KernelQuery(P_HALF, t, (1.0,), (1.0,)))

    def test_symmetry(self):
        a = heat_kernel(KernelQuery(P_HALF, 0.7, (1.2,), (3.4,)))
        b = heat_kernel(KernelQuery(P_HALF, 0.7, (3.4,), (1.2,)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_product_over_axes(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        q = KernelQuery(p2, 0.5, (1.0, 2.0), (2.0, 0.7))
        f1 = heat_kernel(KernelQuery(P_HALF, 0.5, (1.0,), (2.0,)))
        f2 = heat_kernel(KernelQuery(P_NEG, 0.5, (2.0,), (0.7,)))
        assert heat_kernel(q) == pytest.approx(f1 * f2, rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            heat_kernel(KernelQuery(P_HALF, 1e-9, (1.0,), (600.0,)))

    def test_query_validation(self):
        with pytest.raises(DomainError):
            KernelQuery(P_HALF, -1.0, (1.0,))
        with pytest.raises(DomainError):
            KernelQuery(P_HALF, 1.0, (0.0,))
        with pytest.raises(DomainError):
            KernelQuery(P_HALF, 1.0, (1.0, 2.0))
        # a coordinate or time that is not a real number (a complex one
        # included) and a nested or 2-d point are domain errors, not raw
        # TypeErrors or ValueErrors
        for x in (("a",), (None,), ((1.0,),), [[1.0]], np.array([[1.0]]),
                  [1 + 1j], np.array([1 + 1j]), None):
            with pytest.raises(DomainError):
                KernelQuery(P_HALF, 1.0, x)
        for t in ("1", None, 1 + 1j):
            with pytest.raises(DomainError):
                KernelQuery(P_HALF, t, (1.0,))

    def test_query_accepts_numbers_and_flat_arrays(self):
        want = KernelQuery(P_HALF, 2.0, (1.0,), (3.0,))
        for x, y in ((1, 3), (np.float64(1.0), np.int64(3)),
                     (np.array([1.0]), np.array(3.0)), ([1], (3.0,))):
            q = KernelQuery(P_HALF, np.int32(2), x, y)
            assert (q.x, q.y) == (want.x, want.y)
            assert all(type(v) is float for v in q.x + q.y)
            assert poisson_kernel(q) == poisson_kernel(want)

    @pytest.mark.parametrize("m", [1.5, True, -1, "1"])
    def test_query_rejects_non_integer_order(self, m):
        with pytest.raises(DomainError):
            KernelQuery(P_HALF, 1.0, (1.0,), (2.0,), derivative_order=m)

    def test_heat_entry_points_reject_unused_query_fields(self):
        # neither heat route has a time derivative, and T_t f(x) has no y:
        # a query that asks for either is an error, not a silent order-0 value
        f = lambda y: np.exp(-0.3 * y)
        with pytest.raises(DomainError):
            heat_kernel(KernelQuery(P_HALF, 0.7, (1.2,), (3.4,), derivative_order=2))
        with pytest.raises(DomainError):
            heat_apply_kernel(f, KernelQuery(P_HALF, 0.7, (1.2,), derivative_order=1))
        with pytest.raises(DomainError):
            heat_apply_kernel(f, KernelQuery(P_HALF, 0.7, (1.2,), (3.4,)))

    @pytest.mark.parametrize("t, x, y", [
        (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (0.5, math.inf, 1.0), (0.5, math.nan, 1.0),
        (0.5, 1.0, math.inf), (0.5, 1.0, math.nan),
    ])
    def test_query_rejects_non_finite(self, t, x, y):
        with pytest.raises(DomainError):
            KernelQuery(P_HALF, t, (x,), (y,))

    @pytest.mark.parametrize("t, x", [(math.inf, 1.0), (0.5, math.inf), (0.5, math.nan)])
    def test_kernels_reject_non_finite(self, t, x):
        # a point off (0, inf)^d or an infinite time has no kernel value, so
        # each entry point raises instead of returning a number or nan
        f = lambda y: np.exp(-0.3 * y)
        with pytest.raises(DomainError):
            heat_kernel(KernelQuery(P_HALF, t, (x,), (1.0,)))
        with pytest.raises(DomainError):
            heat_apply_kernel(f, KernelQuery(P_HALF, t, (x,)))
        with pytest.raises(DomainError):
            poisson_kernel(KernelQuery(P_HALF, t, (x,), (1.0,)))
        with pytest.raises(DomainError):
            poisson_apply(f, P_HALF, t, (x,))


class TestHeatApply:
    @pytest.mark.parametrize("t", [1e-3, 0.3, 2.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.5, -0.25])
    def test_conserves_mass(self, t, alpha):
        params = MultiIndexParams(1, (alpha,))
        for x in (0.05, 1.0, 20.0):
            v = heat_apply_kernel(
                lambda y: np.ones_like(y), KernelQuery(params, t, (x,))
            )
            assert v == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("k", range(7))
    def test_eigenfunctions(self, k):
        t, x = 0.4, 1.7
        got = heat_apply_kernel(
            lambda y: laguerre_poly(k, 0.5, y), KernelQuery(P_HALF, t, (x,))
        )
        want = math.exp(-t * k) * laguerre_poly(k, 0.5, x)
        assert got == pytest.approx(want, abs=1e-11)

    def test_semigroup_property(self):
        f = lambda y: np.exp(-0.3 * y)
        inner = lambda ys: np.array(
            [heat_apply_kernel(f, KernelQuery(P_HALF, 0.4, (float(y),))) for y in ys]
        )
        lhs = heat_apply_kernel(inner, KernelQuery(P_HALF, 0.3, (1.2,)))
        rhs = heat_apply_kernel(f, KernelQuery(P_HALF, 0.7, (1.2,)))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_two_dimensional(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        g = lambda pts: laguerre_poly(1, 0.5, pts[:, 0]) * laguerre_poly(
            2, -0.25, pts[:, 1]
        )
        got = heat_apply_kernel(g, KernelQuery(p2, 0.5, (1.2, 0.7)))
        want = (
            math.exp(-0.5 * 3)
            * laguerre_poly(1, 0.5, 1.2)
            * laguerre_poly(2, -0.25, 0.7)
        )
        assert got == pytest.approx(want, abs=1e-11)


class TestHeatEngine:
    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_batched_times_match_single_times(self, alpha):
        # 300 times make 7 chunks of at most BLOCK_POINTS nodes; a value must
        # not depend on the chunk its time falls in or on the other times
        params = MultiIndexParams(1, (alpha,))
        f = lambda y: np.exp(-0.3 * y)
        times = np.geomspace(1e-12, 40.0, 300)
        got = _heat_apply_times(f, params, times, (1.3,))[0]
        want = [heat_apply_kernel(f, KernelQuery(params, t, (1.3,))) for t in times]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_batched_times_two_dimensional(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        g = lambda pts: np.exp(-0.3 * pts[:, 0] - 0.1 * pts[:, 1])
        times = np.array([1e-3, 0.5, 20.0])
        got = _heat_apply_times(g, p2, times, (1.2, 0.7))[0]
        want = [heat_apply_kernel(g, KernelQuery(p2, t, (1.2, 0.7))) for t in times]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [-0.25, 0.5])
    def test_chunks_are_bit_identical_to_single_times(self, d, alpha, monkeypatch):
        # 100 times are three chunks of one heat-axis rule per axis (at d = 3,
        # whose grids hold ~2M points a time, 5 times in chunks of 2); each
        # value must be exactly the one of its time taken alone
        params = MultiIndexParams(d, (alpha,) * d)
        x = (1.3, 0.6, 2.0)[:d]
        f = lambda y: np.exp(-0.3 * y) if d == 1 else np.exp(-0.3 * y[:, 0] - 0.1 * y[:, 1])
        times = np.geomspace(1e-6, 40.0, 100)
        if d == 3:
            monkeypatch.setattr(kernels, "BLOCK_POINTS", 2 * 15 * HEAT_ORDER)
            times = times[::24]
        got = _heat_apply_times(f, params, times, x)[0]
        want = [heat_apply_kernel(f, KernelQuery(params, t, x)) for t in times]
        assert got.tolist() == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_magnitude_row_is_the_sum_of_term_magnitudes(self, d):
        # beside each T_s f(x) the table carries sum |w f|, chunked or not; on
        # an f that changes sign it is above |T_s f(x)| once the kernel is wide
        params = MultiIndexParams(d, (0.5,) * d)
        x = (1.3, 0.6)[:d]
        f = lambda y: np.cos(y) if d == 1 else np.cos(y[:, 0] - 0.1 * y[:, 1])
        times = np.geomspace(1e-6, 40.0, 100)
        got = _heat_apply_times(f, params, times, x)
        alone = [_heat_apply_times(f, params, times[i : i + 1], x)[:, 0] for i in range(len(times))]
        assert got.T.tolist() == np.array(alone).tolist()
        assert (got[1] >= np.abs(got[0])).all() and got[1, -1] > 2.0 * abs(got[0, -1])
        y = np.linspace(1e-3, 60.0, 4001)
        mu = y**0.5 * np.exp(-y) / math.gamma(1.5)
        if d == 1:  # past the cutoff T_s |f| is int |cos| d mu_alpha
            assert got[1, -1] == pytest.approx(np.trapezoid(np.abs(np.cos(y)) * mu, y), rel=1e-3)

    @pytest.mark.parametrize("d, times", [(2, (1e-6, 0.3, 1.0, 40.0)), (3, (1.0, 20.0))])
    def test_tensor_contraction_matches_the_exact_sum_of_its_terms(self, d, times):
        # each T_s f(x) and its sum |w f| against math.fsum of the explicit
        # terms w_1 ... w_d f(y) of the tensor grid of the per-axis rules
        alpha, x = (0.5, -0.25, 2.0)[:d], (1.2, 0.7, 2.0)[:d]
        f = lambda y: np.cos(y @ np.arange(1.0, d + 1.0)) * np.exp(-0.1 * y.sum(axis=1))
        got = _heat_apply_times(f, MultiIndexParams(d, alpha), np.array(times), x)
        for i, s in enumerate(times):
            rules = [_heat_axis_rule(a, np.array([s]), xj) for a, xj in zip(alpha, x)]
            ys, ws = [y.ravel() for _, y, _ in rules], [w.ravel() for _, _, w in rules]
            pts = np.stack(np.meshgrid(*ys, indexing="ij"), axis=-1).reshape(-1, d)
            terms = np.prod(np.meshgrid(*ws, indexing="ij"), axis=0).ravel() * f(pts)
            size = math.fsum(np.abs(terms))
            assert abs(got[0, i] - math.fsum(terms)) <= 1e-14 * size, s
            assert abs(got[1, i] - size) <= 1e-14 * size, s

    @pytest.mark.parametrize("d", [1, 2])
    def test_expansion_input_is_bit_identical_to_its_wrapper(self, d):
        # an expansion is synthesized where f is read, on a tensor grid at
        # d = 2: the same values as synthesize_many at the scattered points
        params = MultiIndexParams(d, (0.5, -0.25)[:d])
        e, x = random_expansion(params, 5, seed=4), (1.2, 0.7)[:d]
        wrapper = lambda y: synthesize_many(e, y)
        q = KernelQuery(params, 0.4, x)
        assert heat_apply_kernel(e, q) == heat_apply_kernel(wrapper, q)
        times = np.array([0.1, 0.5, 2.0])
        np.testing.assert_array_equal(poisson_dt_apply(e, params, times, x, 1),
                                      poisson_dt_apply(wrapper, params, times, x, 1))

    def test_expansion_of_other_params_raises(self):
        e = random_expansion(MultiIndexParams(1, (-0.25,)), 3, seed=0)
        with pytest.raises(DomainError, match="expansion"):
            heat_apply_kernel(e, KernelQuery(P_HALF, 0.4, (1.2,)))
        with pytest.raises(DomainError, match="expansion"):
            poisson_apply(e, MultiIndexParams(2, (-0.25, -0.25)), 0.4, (1.2, 0.7))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("value", [2.5, np.float32(2.5), 3])
    def test_one_value_for_all_points_broadcasts(self, d, value):
        params = MultiIndexParams(d, (0.5, -0.25)[:d])
        q = KernelQuery(params, 0.5, (1.2, 0.7)[:d])
        assert heat_apply_kernel(lambda y: value, q) == pytest.approx(float(value), rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [
        lambda y: np.ones(3), lambda y: np.ones((len(y), 2)), lambda y: np.ones(len(y)) + 1j,
        lambda y: "1.0", lambda y: np.full(len(y), math.nan), lambda y: np.full(len(y), math.inf),
    ], ids=["three-values", "two-columns", "complex", "str", "nan", "inf"])
    def test_outputs_that_are_not_one_real_value_per_point_raise(self, d, bad):
        # a wrong shape or dtype is named where f is read; a value that is
        # not finite shows in the magnitude row sum |w f| of its heat time
        params, x = MultiIndexParams(d, (0.5, -0.25)[:d]), (1.2, 0.7)[:d]
        with pytest.raises(DomainError):
            heat_apply_kernel(bad, KernelQuery(params, 0.5, x))
        with pytest.raises(DomainError):
            poisson_apply(bad, params, 0.5, x)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_table_blocks_are_bit_identical_to_single_times(self, m):
        # more times than one block of BLOCK_POINTS // len(s); each value and
        # the sum of its terms' magnitudes must equal the scalar formula at
        # that time exactly
        f = lambda y: np.exp(-0.3 * y)
        rule = s, wk, wg = _subordination_rule(0.05, KERNEL_PANELS)
        heat, mag = _heat_apply_times(f, P_HALF, np.append(s, S_CUTOFF), (1.3,))
        times = np.geomspace(0.05, 8.0, 3 * (BLOCK_POINTS // len(s)) + 5)
        density = [stable_density_dt(m, t, s) for t in times.tolist()]
        tails = [stable_tail_mass(m, t, S_CUTOFF) for t in times.tolist()]
        kron, gauss, sizes = _read_table(f, P_HALF, (1.3,), times, m, rule)
        for got, w in ((kron, wk), (gauss, wg)):
            assert got.tolist() == [
                np.dot(w * g, heat[:-1]) + c * heat[-1] for g, c in zip(density, tails)
            ]
        # the magnitude row reads each heat value's sum |w f|, not |T_s f(x)|
        assert sizes.tolist() == [
            np.dot(abs(wk * g), mag[:-1]) + abs(c) * mag[-1] for g, c in zip(density, tails)
        ]


class TestHeatAxisRule:
    """The Gauss-Jacobi endpoint panel and the ridge panels in offsets against
    the spectral route, on eigenfunctions L_k^alpha down to alpha = -0.99."""

    @pytest.mark.parametrize("alpha", [-0.99, -0.9, -0.75, -0.25, 0.5, 2.0, 25.0])
    def test_matches_spectral_route(self, alpha):
        params = MultiIndexParams(1, (alpha,))
        times = np.array([1e-3, 0.3, 1.0, 10.0])
        for k in range(4):
            f = lambda y: laguerre_poly(k, alpha, y)
            for x in (0.05, 0.7, 3.0, 20.0):
                fx = laguerre_poly(k, alpha, x)
                tol = 1e-12 * max(abs(fx), 1.0)
                for t in (1e-7, *times):
                    got = heat_apply_kernel(f, KernelQuery(params, t, (x,)))
                    assert got == pytest.approx(math.exp(-t * k) * fx, abs=tol), (k, x, t)
                got = poisson_apply(f, params, times, (x,))
                want = np.exp(-times * math.sqrt(k)) * fx
                np.testing.assert_allclose(got, want, rtol=0.0, atol=tol, err_msg=f"k={k}, x={x}")

    def test_two_dimensional_negative_alpha(self):
        p2 = MultiIndexParams(2, (0.5, -0.9))
        g = lambda pts: laguerre_poly(1, 0.5, pts[:, 0]) * laguerre_poly(2, -0.9, pts[:, 1])
        x = (1.2, 0.7)
        gx = float(g(np.array([x]))[0])
        tol = 1e-12 * max(abs(gx), 1.0)
        for t in (1e-7, 0.3, 1.0):
            got = heat_apply_kernel(g, KernelQuery(p2, t, x))
            assert got == pytest.approx(math.exp(-3.0 * t) * gx, abs=tol), t
        times = np.array([0.3, 1.0])
        got = poisson_apply(g, p2, times, x)
        np.testing.assert_allclose(got, np.exp(-times * math.sqrt(3.0)) * gx, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("alpha", [-0.99, 0.5, 2.0, 25.0])
    @pytest.mark.parametrize("x", [1e-3, 1.3])
    def test_weights_are_heat_kernel_values(self, alpha, x):
        # the rule and heat_kernel read one statement of H_s: each weight over
        # its Gauss weight times the Jacobian 2 v sigma width is H_s(x, y) =
        # G_s(x, y) mu_alpha(y).  Nodes below 1e-8 of their time's mass are
        # left out: the rounding of y = v^2 moves H there by eps |u| v / sigma,
        # and that of log mu_alpha by eps |log mu_alpha|, past 1e-13
        params = MultiIndexParams(1, (alpha,))
        times = np.append(default_t_grid(), _subordination_rule(1.0, KERNEL_PANELS)[0])
        idx, ys, ws = _heat_axis_rule(alpha, times, x)
        mass = np.bincount(idx, ws.sum(axis=1))
        (xg, wg), (_, wj) = leggauss(HEAT_ORDER), _jacobi_panel(alpha, HEAT_ORDER)
        for i, y, w in zip(idx, ys, ws):
            s, v = times[i], np.sqrt(y)
            v0, sig = math.sqrt(math.exp(-s) * x), math.sqrt(-0.5 * math.expm1(-s))
            if v.max() <= sig:  # the Jacobi panel in g = v / sigma on (0, 1)
                gauss, width = wj, 1.0
            else:  # a Gauss-Legendre panel, its width from its end nodes in u
                u = (v - v0) / sig
                gauss, width = 0.5 * wg, (u[-1] - u[0]) / (0.5 * (xg[-1] - xg[0]))
            keep = w >= 1e-8 * mass[i]
            got = (w / (gauss * 2.0 * v * sig * width))[keep]
            mu = np.exp(alpha * np.log(y) - y - math.lgamma(alpha + 1.0))[keep]
            want = [heat_kernel(KernelQuery(params, s, (x,), (float(yj),))) for yj in y[keep]]
            np.testing.assert_allclose(got, want * mu, rtol=1e-13, err_msg=f"s={s}")

    @pytest.mark.parametrize("alpha", [100.0, 300.0])
    def test_large_alpha_window(self, alpha):
        # near y = 0 the kernel is y^alpha e^(-y / 2 sigma^2), whose mass sits
        # at v ~ sqrt(2 alpha) sigma, many sigma above sqrt(x e^-s) for small x
        params = MultiIndexParams(1, (alpha,))
        times = np.geomspace(1e-12, 40.0, 50)
        for x in (1e-6, 0.05, 3.0, 300.0):
            got = _heat_apply_times(lambda y: np.ones_like(y), params, times, (x,))
            np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=1e-12, err_msg=f"x={x}")

    @pytest.mark.parametrize("alpha", [700.0, 1000.0])
    def test_large_alpha_mass(self, alpha):
        # at these orders the Bessel factor takes the log-series branch
        # with its peak hundreds of terms in
        params = MultiIndexParams(1, (alpha,))
        times = np.geomspace(1e-12, 40.0, 50)
        for x in (1e-6, 0.05, 3.0, 300.0):
            got = _heat_apply_times(lambda y: np.ones_like(y), params, times, (x,))
            np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=5e-12, err_msg=f"x={x}")

    @pytest.mark.parametrize(
        "alpha, x, budget",
        [((-0.25,), (1.2,), 30_000), ((0.5, -0.25), (1.2, 0.7), 5_000_000)],
    )
    def test_points_per_poisson_apply(self, alpha, x, budget):
        # a deterministic cost bound: the points of f one poisson_apply reads
        seen = []
        f = lambda y: seen.append(len(y)) or np.ones(len(y))
        got = poisson_apply(f, MultiIndexParams(len(alpha), alpha), 1.0, x)
        assert got == pytest.approx(1.0, abs=1e-12)
        assert sum(seen) <= budget


class TestStableDensity:
    def test_laplace_transform(self):
        # int_0^inf e^{-ns} g(t,s) ds = e^{-t sqrt(n)}
        for t in (0.1, 1.0, 5.0):
            for n in (0, 1, 4, 9):
                val, _ = quad(
                    lambda s: stable_density(t, s) * math.exp(-n * s),
                    0.0,
                    np.inf,
                    limit=200,
                )
                assert val == pytest.approx(math.exp(-t * math.sqrt(n)), abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivative_laplace_transform(self, m):
        # differentiating under the integral: int e^{-ns} d^m g/dt^m ds
        # equals the m-th t-derivative of e^{-t sqrt(n)}
        t, n = 0.8, 4
        rn = math.sqrt(n)
        val, _ = quad(
            lambda s: stable_density_dt(m, t, s) * math.exp(-n * s),
            0.0,
            np.inf,
            limit=200,
        )
        assert val == pytest.approx((-rn) ** m * math.exp(-t * rn), abs=1e-10)

    def test_total_mass(self):
        for t in (0.3, 2.0):
            val, _ = quad(lambda s: stable_density(t, s), 0.0, np.inf, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_tail_mass_closed_form(self):
        # int_U^inf g(t,s) ds = erf(t / (2 sqrt(U)))
        t, u = 1.3, 4.0
        val, _ = quad(lambda s: stable_density(t, s), u, np.inf, limit=200)
        assert val == pytest.approx(stable_tail_mass(0, t, u), abs=1e-12)

    def test_tail_mass_derivative(self):
        t, u, h = 0.9, 4.0, 1e-6
        fd = (stable_tail_mass(0, t + h, u) - stable_tail_mass(0, t - h, u)) / (2 * h)
        assert fd == pytest.approx(stable_tail_mass(1, t, u), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            stable_density(-1.0, 1.0)
        with pytest.raises(DomainError):
            stable_density(1.0, 0.0)

    @pytest.mark.parametrize(
        "m, t, s",
        [
            (-1, 0.5, np.array([0.2, 1.0])),  # returned -0
            (1.5, 0.5, np.array([0.2, 1.0])),  # raw TypeError after a RuntimeWarning
            (1, math.nan, np.array([0.2, 1.0])),  # returned nan
            (1, math.inf, 1.0),
            (1, 0.0, 1.0),
            (1, 0.5, np.array([0.2, -0.1])),  # returned nan and warned
            (1, 0.5, np.array([0.2, math.nan])),
            (1, 0.5, math.inf),
            (0, np.array([0.5, -1.0]), 1.0),
            (0, np.array([0.5, 1.0, 2.0]), np.array([0.2, 1.0])),  # does not broadcast
        ],
    )
    def test_density_rejects_bad_arguments(self, m, t, s):
        with pytest.raises(DomainError):
            stable_density_dt(m, t, s)

    @pytest.mark.parametrize(
        "m, t, s_hi",
        [
            (-1, 0.5, 40.0),  # returned 0.0
            (1.5, 0.5, 40.0),
            (1, -0.5, 40.0),  # returned 0.089
            (1, math.nan, 40.0),
            (1, 0.5, 0.0),
            (1, 0.5, -40.0),
            (0, 0.5, math.inf),
            (0, 0.5, math.nan),
            (0, 0.5, np.array([4.0, 40.0])),  # s_hi is a scalar
            (0, np.array([0.5, -1.0]), 40.0),
        ],
    )
    def test_tail_mass_rejects_bad_arguments(self, m, t, s_hi):
        with pytest.raises(DomainError):
            stable_tail_mass(m, t, s_hi)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_density_broadcasts_times_against_s(self, m):
        t = np.array([0.05, 0.5, 3.0])
        s = np.geomspace(1e-3, 40.0, 7)
        got = stable_density_dt(m, t[:, None], s)
        assert got.shape == (3, 7)
        for row, ti in zip(got, t.tolist()):
            assert row.tolist() == stable_density_dt(m, ti, s).tolist()
        assert stable_density_dt(m, t, 0.7).tolist() == [stable_density_dt(m, ti, 0.7) for ti in t]
        assert stable_density_dt(np.int64(m), 0.5, 0.7) == stable_density_dt(m, 0.5, 0.7)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_tail_mass_takes_an_array_of_times(self, m):
        t = np.array([[0.05, 0.5], [3.0, 30.0]])
        got = stable_tail_mass(m, t, S_CUTOFF)
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [stable_tail_mass(m, ti, S_CUTOFF) for ti in t.ravel().tolist()]
        assert isinstance(stable_tail_mass(m, 0.5, S_CUTOFF), float)


class TestPoissonKernel:
    def test_matches_spectral_sum(self):
        # t large enough that the Mercer sum converges quickly
        t, x, y = 1.5, 1.0, 2.0
        got = poisson_kernel(KernelQuery(P_HALF, t, (x,), (y,)))
        assert got == pytest.approx(
            spectral_poisson_kernel(0.5, t, x, y), rel=1e-9
        )

    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_unit_mass(self, t):
        x = 1.3
        val, _ = quad(
            lambda y: poisson_kernel(KernelQuery(P_HALF, t, (x,), (y,))),
            0.0,
            80.0,
            points=[x],
            limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative(self):
        for y in np.geomspace(0.01, 40.0, 12):
            assert poisson_kernel(KernelQuery(P_HALF, 0.5, (1.0,), (y,))) >= 0.0

    def test_dt_requires_order(self):
        q = KernelQuery(P_HALF, 1.0, (1.0,), (2.0,), derivative_order=0)
        with pytest.raises(DomainError):
            poisson_kernel_dt(q)

    def test_dt_integrates_to_zero(self):
        # mass conservation: d/dt of the unit mass vanishes
        q = lambda y: poisson_kernel_dt(
            KernelQuery(P_HALF, 1.0, (1.0,), (y,), derivative_order=1)
        )
        val, _ = quad(q, 0.0, 80.0, points=[1.0], limit=300)
        assert abs(val) < 1e-8


class TestPoissonApply:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_eigenfunctions(self, k):
        t, x = 0.8, 1.3
        got = poisson_apply(lambda y: laguerre_poly(k, 0.5, y), P_HALF, t, (x,))
        want = math.exp(-t * math.sqrt(k)) * laguerre_poly(k, 0.5, x)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("alpha", [20.0, 25.0])
    def test_large_order_eigenfunction(self, alpha):
        t, x = 0.75, 4.0
        params = MultiIndexParams(1, (alpha,))
        got = poisson_apply(lambda y: laguerre_poly(3, alpha, y), params, t, (x,))
        want = math.exp(-t * math.sqrt(3)) * laguerre_poly(3, alpha, x)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_vector_times_match_spectral(self, alpha):
        # every time shares one subordination rule, from 1e-6 (the callable
        # difference route's floor) to 135 (three times its cutoff 45)
        params = MultiIndexParams(1, (alpha,))
        e = random_expansion(params, 5, seed=4)
        times = np.array([1e-6, 1e-3, 0.3, 1.0, 10.0, 45.0, 135.0])
        x = np.array([1.3])
        got = poisson_apply(lambda y: synthesize_many(e, y), params, times, x)
        want = [synthesize(spectral_apply(poisson(t), e), x) for t in times]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_alpha_300(self):
        # T_s f past S_CUTOFF comes from the heat-axis rule, which holds to
        # alpha = 1000; a 200-node Gauss-Laguerre mean is non-finite here
        params = MultiIndexParams(1, (300.0,))
        times = np.array([1e-3, 0.3, 1.0, 10.0])
        fx = laguerre_poly(3, 300.0, 250.0)
        got = poisson_apply(lambda y: laguerre_poly(3, 300.0, y), params, times, (250.0,))
        want = np.exp(-times * math.sqrt(3.0)) * fx
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * abs(fx))

    def test_vector_times_two_dimensional(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        g = lambda pts: laguerre_poly(1, 0.5, pts[:, 0]) * laguerre_poly(2, -0.25, pts[:, 1])
        times = np.array([[1.0], [10.0]])
        got = poisson_apply(g, p2, times, (1.2, 0.7))
        want = np.exp(-times * math.sqrt(3)) * g(np.array([[1.2, 0.7]]))
        assert got.shape == (2, 1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_scalar_time_is_one_element_vector(self):
        f = lambda y: laguerre_poly(2, 0.5, y)
        got = poisson_apply(f, P_HALF, 0.8, (1.3,))
        assert isinstance(got, float)
        assert got == poisson_apply(f, P_HALF, np.array([0.8]), (1.3,))[0]

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan, np.array([0.5, 0.0]), []])
    def test_rejects_bad_times(self, t):
        with pytest.raises(DomainError):
            poisson_apply(np.exp, P_HALF, t, (1.0,))

    @pytest.mark.parametrize("d, t", [
        (1, 0.7), (1, np.array([[1e-3, 0.3], [2.0, 45.0]])),
        (2, 0.7), (2, np.array([[0.3], [2.0]])),
    ])
    def test_is_dt_apply_at_order_zero(self, d, t):
        # one route: P_t f(x) is d^0/dt^0 P_t f(x), bit for bit
        params = MultiIndexParams(d, (0.5, -0.25)[:d])
        x = (1.3, 0.6)[:d]
        f = lambda y: np.exp(-0.3 * y) if d == 1 else np.exp(-0.3 * y[:, 0] - 0.1 * y[:, 1])
        got, want = poisson_apply(f, params, t, x), poisson_dt_apply(f, params, t, x, 0)
        assert np.shape(got) == np.shape(t) and np.array_equal(got, want)

    def test_unsettled_time_is_named(self, monkeypatch):
        # with no tolerance and no doubling no time settles, so P_t f(x) and
        # the callable operators that read it raise instead of returning the
        # unchecked sum, and the error names the time and the point
        monkeypatch.setattr(kernels, "SUB_ABS", 0.0)
        monkeypatch.setattr(kernels, "SUB_REL", 0.0)
        monkeypatch.setattr(kernels, "SUB_DOUBLINGS", 0)
        f = lambda y: laguerre_poly(3, 0.5, y)
        with pytest.raises(QuadratureError, match=r"at x=\(1\.3,\), t=0\.7 did not"):
            poisson_apply(f, P_HALF, 0.7, (1.3,))
        with pytest.raises(QuadratureError, match=r"integral at lambda=0\.5, k=1, x=\(1\.3,\) did not"):
            bessel_potential_apply(f, P_HALF, 0.5, (1.3,))

    def test_dt_apply_matches_multiplier(self):
        k, m, t, x = 3, 2, 0.7, 1.3
        got = poisson_dt_apply(lambda y: laguerre_poly(k, 0.5, y), P_HALF, t, (x,), m)
        want = (
            (-math.sqrt(k)) ** m
            * math.exp(-t * math.sqrt(k))
            * laguerre_poly(k, 0.5, x)
        )
        assert got == pytest.approx(want, abs=1e-8)


def dt_multiplier(k, m, t):
    return (-math.sqrt(k)) ** m * math.exp(-t * math.sqrt(k))


class TestPoissonDtApply:
    """d^m/dt^m P_t f read off the semigroup table, against the multiplier
    (-sqrt(k))^m e^(-t sqrt(k)) on eigenfunctions."""

    def test_two_dimensional(self):
        p2 = MultiIndexParams(2, (0.5, -0.25))
        g = lambda pts: laguerre_poly(1, 0.5, pts[:, 0]) * laguerre_poly(2, -0.25, pts[:, 1])
        got = poisson_dt_apply(g, p2, 0.7, (1.2, 0.7), 1)
        want = dt_multiplier(3, 1, 0.7) * float(g(np.array([[1.2, 0.7]]))[0])
        assert got == pytest.approx(want, abs=1e-10)

    def test_vector_times_equal_scalar_times(self):
        f = lambda y: laguerre_poly(3, 0.5, y)
        times = np.array([1e-3, 0.05, 0.7, 3.0])
        got = poisson_dt_apply(f, P_HALF, times, (1.3,), 2)
        want = [poisson_dt_apply(f, P_HALF, t, (1.3,), 2) for t in times]
        assert got.shape == times.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_each_time_equals_its_read_beside_the_smallest(self, monkeypatch):
        # at m = 3 on the default t grid the smallest time doubles twice and
        # the largest keeps its first pass's value; every time of the array
        # keeps the value it gets read beside the grid's smallest time alone
        e = random_expansion(P_HALF, 6, seed=1)
        f = lambda y: synthesize_many(e, y)
        x, times = default_x_grid(1)[8], np.array(default_t_grid())
        passes, rule = [], kernels._subordination_rule

        def spy(t_min, panels):
            passes.append(panels)
            return rule(t_min, panels)

        monkeypatch.setattr(kernels, "_subordination_rule", spy)
        got = poisson_dt_apply(f, P_HALF, times, x, 3)
        assert passes == [KERNEL_PANELS, 2 * KERNEL_PANELS, 4 * KERNEL_PANELS]
        first = _read_table(f, P_HALF, x, times, 3, rule(times.min(), KERNEL_PANELS))[0]
        assert got[-1] == first[-1] and got[0] != first[0]
        for t, value in zip(times, got):
            assert poisson_dt_apply(f, P_HALF, np.array([times.min(), t]), x, 3)[1] == value

    @pytest.mark.parametrize("m", [1, 2])
    def test_small_time(self, m):
        t, x = 1e-3, 1.3
        got = poisson_dt_apply(lambda y: laguerre_poly(3, 0.5, y), P_HALF, t, (x,), m)
        want = dt_multiplier(3, m, t) * laguerre_poly(3, 0.5, x)
        assert got == pytest.approx(want, abs=1e-8)

    def test_zero_derivative_at_small_time(self):
        # d^2/dt^2 P_t 1 = 0: its terms grow like t^-2 and cancel, so the
        # doublings differ by their rounding (up to 6.4e-10), above SUB_ABS
        got = poisson_dt_apply(lambda y: np.ones_like(y), P_HALF, 1e-3, (1.3,), 2)
        assert abs(got) <= 1e-8

    def test_unresolved_time_raises(self):
        # the quadrature error grows like t^-m; at t = 1e-4, m = 3 doubling
        # the subordination panels does not settle the value
        with pytest.raises(QuadratureError):
            poisson_dt_apply(lambda y: laguerre_poly(3, 0.5, y), P_HALF, 1e-4, (1.3,), 3)

    def test_rounding_above_tolerance_raises(self):
        # at t = 1e-3, m = 3 the terms sum to 5.6e9, so rounding in the heat
        # values moves the value by ~1e-6; the Kronrod and Gauss sums share
        # those values and agree to 1e-9 at 24 panels, so only the floor
        # eps sum |terms| shows that the value is not settled to SUB_REL
        with pytest.raises(QuadratureError):
            poisson_dt_apply(lambda y: laguerre_poly(3, 0.5, y), P_HALF, 1e-3, (1.3,), 3)

    def test_unresolved_time_is_named(self):
        # each time is doubled on its own: t = 0.5 settles, and the error
        # names the time that does not
        f = lambda y: laguerre_poly(3, 0.5, y)
        with pytest.raises(QuadratureError) as err:
            poisson_dt_apply(f, P_HALF, np.array([0.5, 1e-4]), (1.3,), 3)
        assert "t=0.0001 " in str(err.value)

    @pytest.mark.parametrize("t", [1e-20, 1e-50])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rounding_above_the_floor_raises(self, monkeypatch, m, t):
        # the terms grow like t^-(m+1) and their rounding eps sum |terms| is
        # far above 8 tol; the rounding-level test accepted 5690.875 at
        # t = 1e-20, m = 1 (the value is 0.1765), -3.8e23 at m = 2.  No
        # doubling lowers that rounding, so the first read raises
        reads, rule = [], kernels._subordination_rule
        monkeypatch.setattr(kernels, "_subordination_rule",
                            lambda t_min, panels: reads.append(panels) or rule(t_min, panels))
        f = lambda y: laguerre_poly(2, 0.5, y)
        with pytest.raises(QuadratureError, match=f"t={t:g} did not settle in 0 doublings"):
            poisson_dt_apply(f, P_HALF, t, (1.0,), m)
        assert reads == [KERNEL_PANELS]

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_value_that_is_not_finite_never_settles(self, value):
        rows = lambda panels: np.array([[value, 1.0], [value, 1.0], [np.inf, 1.0]])
        with pytest.raises(QuadratureError, match="index 0 did not settle"):
            _doubled(rows, KERNEL_PANELS, lambda i: f"index {i}")

    @pytest.mark.parametrize("t, m", [(0.0, 1), (np.array([]), 1), (0.5, -1)])
    def test_rejects_bad_arguments(self, t, m):
        with pytest.raises(DomainError):
            poisson_dt_apply(np.exp, P_HALF, t, (1.0,), m)


def doubled_block(params, t, x, y, m):
    """d^m/dt^m p_t(x, y_i) at each row of y, doubled from KERNEL_PANELS."""
    return _doubled(
        lambda panels: _poisson_block_once(params, t, x, y, m, panels),
        KERNEL_PANELS,
        lambda i: f"the Poisson kernel at y={tuple(y[i].tolist())}",
    )


class TestSmallestTime:
    """Every subordination read stops at the rule's smallest time T_MIN."""

    READS = {
        "poisson_kernel": lambda t: poisson_kernel(KernelQuery(P_HALF, t, (1.0,), (1.5,))),
        "poisson_kernel_dt": lambda t: poisson_kernel_dt(
            KernelQuery(P_HALF, t, (1.0,), (1.5,), derivative_order=1)),
        "poisson_apply": lambda t: poisson_apply(np.exp, P_HALF, np.array([0.5, t]), 1.0),
        "l1_kernel_derivative": lambda t: l1_kernel_derivative(P_HALF, t, (1.0,), 1),
    }

    @pytest.mark.parametrize("t", [1e-102, 1e-153, 1e-300, 1e-308, 5e-324])
    @pytest.mark.parametrize("read", READS)
    def test_below_it_raises_domain_error(self, read, t):
        # below ~5e-102 s^(-3/2) at the rule's floor t^2 / 184 overflowed (a
        # warning), below 1e-153 its panel count did (OverflowError), and at
        # 1e-300 the floor was 0 (ZeroDivisionError); from 1e-308 the L1 y
        # breaks overflowed (OverflowError) before any kernel value was read
        with pytest.raises(DomainError, match=f"t={t:g} is below"):
            self.READS[read](t)

    @pytest.mark.parametrize("t", [1e-80, 1e-100])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("read", ["poisson_kernel_dt", "poisson_dt_apply"])
    def test_derivative_past_the_float_range_raises_domain_error(self, read, m, t):
        # d^m_t g at the rule's floor overflows sooner than g, which sets
        # T_MIN: these reads warned "overflow encountered in multiply" and
        # then raised QuadratureError
        with pytest.raises(DomainError, match=f"t={t:g}, m={m} overflows"):
            if read == "poisson_dt_apply":
                poisson_dt_apply(lambda y: laguerre_poly(2, 0.5, y), P_HALF, t, (1.0,), m)
            else:
                poisson_kernel_dt(KernelQuery(P_HALF, t, (1.0,), (1.0,), derivative_order=m))

    def test_at_it_values_hold(self):
        # P_t L_2^0.5 (1) -> L_2^0.5 (1) = -1/8 as t -> 0
        f = lambda y: laguerre_poly(2, 0.5, y)
        assert poisson_apply(f, P_HALF, T_MIN, 1.0) == pytest.approx(-0.125, abs=1e-12)


class TestPoissonBlock:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_matches_scalar_kernel(self, alpha, m):
        params = MultiIndexParams(1, (alpha,))
        t, x = 0.3, 1.1
        y = np.geomspace(1e-4, 30.0, 64)
        got = doubled_block(params, t, (x,), y[:, None], m)
        kernel = poisson_kernel if m == 0 else poisson_kernel_dt
        want = [
            kernel(KernelQuery(params, t, (x,), (float(v),), derivative_order=m))
            for v in y
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_point_alone_equals_its_row_in_a_block(self, monkeypatch, d, m):
        # a point read alone is a row over the s nodes with scalar coordinates,
        # and in a block a row of a (points x s-node) array; its Kronrod value,
        # Gauss value and magnitude sum must agree bit for bit
        def check(params, t, x, y):
            block = _poisson_block_once(params, t, x, y, m, KERNEL_PANELS)
            for i in range(len(y)):
                alone = _poisson_block_once(params, t, x, y[i : i + 1], m, KERNEL_PANELS)
                assert alone[:, 0].tolist() == block[:, i].tolist(), (params, t, y[i])

        # 200 points are several blocks of (y x s-node) entries
        y = np.random.default_rng(3).uniform(0.01, 6.0, (200, d))
        assert len(y) * len(_subordination_rule(0.25, KERNEL_PANELS)[0]) > BLOCK_POINTS
        check(MultiIndexParams(d, (0.5, -0.25)[:d]), 0.25, (1.3, 0.6)[:d], y)
        # and so on every branch of log_bessel_i_scaled: the large-argument
        # expansion (y near x at small s, and far y where z_h is large), scipy's
        # iv (moderate y) and, at alpha = 25, the log-series where iv underflows
        # (y <= 1e-20 at large s)
        reads, bessel = [], kernels.log_bessel_i_scaled

        def spy(nu, z):
            if nu == alpha:
                reads.append(np.ravel(z))
            return bessel(nu, z)

        monkeypatch.setattr(kernels, "log_bessel_i_scaled", spy)
        for alpha in (-0.99, 0.5, 2.0, 25.0):
            first = np.concatenate((1.3 + np.linspace(-0.05, 0.05, 6), np.geomspace(0.05, 1e4, 8),
                                    np.geomspace(1e-30, 1e-20, 4) if alpha == 25.0 else []))
            y = np.column_stack((first, np.geomspace(0.1, 3.0, len(first))))[:, :d]
            params = MultiIndexParams(d, (alpha, 0.5)[:d])
            for t in (1e-3, 0.25, 4.0):
                reads.clear()
                check(params, t, (1.3, 0.6)[:d], y)
                z, z_h = np.concatenate(reads), specfun._hankel(alpha)[0]
                assert (z >= z_h).any() and (z < z_h).any(), (alpha, t)
                if alpha == 25.0:
                    with np.errstate(under="ignore"):
                        assert ((z > 0) & (specfun.ive(alpha, z) < np.finfo(float).tiny)).any()

    def test_unsettled_value_is_named(self, monkeypatch):
        # the Kronrod and Gauss values of this point differ by 1e-10 to 5e-9 at
        # every panel count, so no doubling meets these tolerances, and the
        # error names the point
        monkeypatch.setattr(kernels, "SUB_ABS", 1e-300)
        monkeypatch.setattr(kernels, "SUB_REL", 1e-300)
        monkeypatch.setattr(kernels, "SUB_ROUND", 0.0)
        with pytest.raises(QuadratureError) as err:
            poisson_kernel_dt(KernelQuery(P_HALF, 1e-3, (1.3,), (1.31,), derivative_order=2))
        assert "t=0.001, x=(1.3,), y=(1.31,), m=2 did not" in str(err.value)

    @pytest.mark.parametrize("m, y, panels", [
        (0, 0.9624, [KERNEL_PANELS]),
        (4, 0.96, [KERNEL_PANELS]),
        (4, 0.9624, [KERNEL_PANELS, 2 * KERNEL_PANELS]),
    ])
    def test_scalar_value_is_its_row_of_a_block(self, monkeypatch, m, y, panels):
        # a scalar value is the block evaluator on a block of one, so it equals
        # its row of a block bit for bit, whether it settles on its first read
        # or doubles: at m = 4, y = 0.9624 lies near a zero of d^4 p, where
        # |K - G| = 1.14e-10 at 6 panels exceeds max(SUB_ABS, SUB_REL |K|)
        ys = [0.5, 0.96, 0.9624, 2.0]
        block = doubled_block(P_HALF, 1.0, (1.3,), np.array(ys)[:, None], m)
        reads, once = [], kernels._poisson_block_once

        def spy(params, t, x, y, m, panels):
            reads.append(panels)
            return once(params, t, x, y, m, panels)

        monkeypatch.setattr(kernels, "_poisson_block_once", spy)
        kernel = poisson_kernel_dt if m else poisson_kernel
        got = kernel(KernelQuery(P_HALF, 1.0, (1.3,), (y,), derivative_order=m))
        assert reads == panels
        assert got == block[ys.index(y)]

    def test_value_reads_one_level_of_bessel_points(self, monkeypatch):
        # at t = 1 the rule is KERNEL_PANELS = 6 Kronrod panels of
        # 2 SUB_ORDER + 1 = 25 nodes: one log_bessel_i_scaled call on 150 points
        points, bessel = [], kernels.log_bessel_i_scaled

        def counted(nu, z):
            points.append(np.size(z))
            return bessel(nu, z)

        monkeypatch.setattr(kernels, "log_bessel_i_scaled", counted)
        poisson_kernel(KernelQuery(P_HALF, 1.0, (1.3,), (1.0,)))
        assert points == [150]

    def test_fixed_axes(self):
        # rows are points of (0, inf)^2 that vary on every axis
        p2 = MultiIndexParams(2, (0.5, -0.25))
        y = np.array([[0.7, 0.2], [0.7, 1.0], [1.5, 3.0], [0.1, 0.4]])
        got = doubled_block(p2, 0.4, (1.0, 2.0), y, 1)
        want = [
            poisson_kernel_dt(KernelQuery(p2, 0.4, (1.0, 2.0), tuple(v), derivative_order=1))
            for v in y
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestL1Derivative:
    def test_finite_and_scales(self):
        a = l1_kernel_derivative(P_HALF, 0.5, (1.0,), 1)
        b = l1_kernel_derivative(P_HALF, 1.0, (1.0,), 1)
        assert math.isfinite(a) and math.isfinite(b)
        assert a > b > 0.0

    def test_integrates_across_sign_changes(self):
        # d/dt p changes sign at y = 0.37516 and 0.64190; the integral of
        # |d/dt p| split at both zeros is 2.99207347134469
        got = l1_kernel_derivative(P_HALF, 0.2, (0.5,), 1)
        assert got == pytest.approx(2.99207347134469, rel=1e-9)

    def test_finds_a_sign_change_below_the_first_node(self):
        # at alpha = 2, t = 3.2, x = 2, m = 2, d^2 p changes sign at
        # y = 0.0230979 (v = 0.152), below the first node of both Jacobi rules
        # on [0, sqrt 2], and at y = 3.17436; the integral of |d^2 p| split at
        # both zeros is 0.0202841089634042, and missing the first zero costs
        # 3.8e-8 relative
        got = l1_kernel_derivative(MultiIndexParams(1, (2.0,)), 3.2, (2.0,), 2)
        assert got == pytest.approx(0.0202841089634042, rel=1e-9)

    @pytest.mark.parametrize("alpha, t, x, m", [
        (0.5, 0.2, 0.5, 1), (0.5, 0.05, 1.0, 1), (2.0, 3.2, 0.5, 2),
    ])
    def test_reads_no_node_twice(self, monkeypatch, alpha, t, x, m):
        # the panels that no new sign-change break and no failing |K - G|
        # splits keep their nodes and the values read at them; only the split
        # ones are read again, at new nodes, and bisection reads its midpoints
        # through the same reader
        reads, block = [], kernels._poisson_block_once

        def spy(params, t, x, y, m, panels):
            reads.append(y[:, 0].copy())
            return block(params, t, x, y, m, panels)

        monkeypatch.setattr(kernels, "_poisson_block_once", spy)
        l1_kernel_derivative(MultiIndexParams(1, (alpha,)), t, (x,), m)
        nodes = np.concatenate(reads)
        assert len(reads) >= 2 and all(len(r) < len(reads[0]) for r in reads[1:])
        assert len(np.unique(nodes)) == len(nodes)

    @pytest.mark.parametrize("m, want", [(1, 0.96775736252466), (2, 1.84835643229)])
    def test_break_at_a_settled_zero(self, m, want):
        # at x = 1e4 the kernel values near the zero of d^m p are off by
        # 2.6e-8 of 3.1e-7 on 6 subordination panels; bisection on them put
        # the m = 1 break at v = 77.859, not 77.874, and the sum 1.5e-7 low.
        # The s estimate in the integral's units doubles the s panels, and
        # the reference values are the same with the s rule started at 12
        # and at 24 panels
        got = l1_kernel_derivative(P_HALF, 1.0, (1e4,), m)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha, x", [(0.5, 1.0), (0.5, 100.0), (3.0, 1.0)])
    def test_small_t_tends_to_the_cauchy_constant(self, alpha, x):
        # near the diagonal p_t is the Cauchy kernel t / (pi (t^2 + u^2)) in
        # u = sqrt(y) - sqrt(x), so t ||d_t p_t||_1 -> 2 / pi as t -> 0; a node
        # at the zero |u| = t of d_t p cannot settle relative to itself, but
        # its error is counted in the integral's units
        got = 1e-4 * l1_kernel_derivative(MultiIndexParams(1, (alpha,)), 1e-4, (x,), 1)
        assert got / (2.0 / math.pi) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("alpha, x", [(60.0, 1e-6), (0.5, 1e-100), (0.5, 1e-300)])
    def test_mass_at_the_edges_of_the_float_range(self, alpha, x):
        # p / y^alpha is extrapolated to y = 0 in y / y_1: y^alpha underflowed
        # at the first nodes here (and at alpha = 500, x = 1), and a fit in y
        # divided by zero at x = 1e-100 and failed to converge at x = 1e-300
        got = l1_kernel_derivative(MultiIndexParams(1, (alpha,)), 0.5, (x,), 0)
        assert got == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [0, 1])
    def test_a_panel_that_cannot_split_raises(self, m):
        # at t = 1e-20 the first pass halves [1, 1 + 2^-52], whose midpoint
        # rounds to an end, so no later pass has a panel to read
        with pytest.raises(QuadratureError, match="t=1e-20"):
            l1_kernel_derivative(P_HALF, 1e-20, (1.0,), m)

    def test_mass_is_one(self):
        # the kernel is nonnegative, so m = 0 gives its total mass
        assert l1_kernel_derivative(P_NEG, 0.1, (2.0,), 0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("x", [1.0, 20.0, 70.0, 79.0, 100.0, 300.0])
    def test_mass_is_one_for_every_x_alpha_and_t(self, x):
        # the y range ends where the kernel's mass past it is below
        # e^-S_CUTOFF for every x and alpha (it stopped at y = 80 and lost
        # 1.1e-2 of the mass at alpha = 60), the Jacobi panel at y = 0 is
        # exact for the y^alpha endpoint, and the breaks below sqrt(x) keep
        # it off mu_alpha's mass (at x = 300, t = 30, alpha = 40 one panel
        # on y in [0, 300] gave a mass of 1.7e-15)
        for alpha in (-0.9, -0.5, -0.25, 0.5, 5.0, 40.0, 60.0):
            params = MultiIndexParams(1, (alpha,))
            for t in (1e-3, 0.1, 1.0, 5.0, 30.0):
                got = l1_kernel_derivative(params, t, (x,), 0)
                assert got == pytest.approx(1.0, abs=1e-9), (alpha, t)

    def test_two_dimensional_raises(self):
        with pytest.raises(DomainError):
            l1_kernel_derivative(MultiIndexParams(2, (0.5, 0.5)), 0.5, (1.0, 1.0), 1)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # the L1 rule settles its y and s estimates together to max(SUB_ABS,
        # SUB_REL |sum|) and refines no kernel value on its own, so the error
        # is the L1 rule's own
        monkeypatch.setattr(kernels, "SUB_ABS", 1e-300)
        monkeypatch.setattr(kernels, "SUB_REL", 1e-300)
        with pytest.raises(QuadratureError, match="the L1 y integral"):
            l1_kernel_derivative(P_HALF, 2.0, (1.0,), 1)

    @pytest.mark.parametrize("t, x", [
        (0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
        (0.5, math.inf), (0.5, math.nan),
        ("1", 1.0), (None, 1.0), (0.5, "a"), (0.5, None), (0.5, 1 + 1j),
    ])
    def test_rejects_bad_arguments(self, t, x):
        # t and x are checked before the v breaks are built from them
        with pytest.raises(DomainError):
            l1_kernel_derivative(P_HALF, t, (x,), 1)


class TestSubordinationRule:
    """The one s-rule of kernel values, the L1 norm and the semigroup table."""

    def test_gauss_columns_are_the_gauss_legendre_rule(self):
        # the error estimate reads the embedded Gauss nodes: bit for bit the
        # SUB_ORDER-node Gauss-Legendre panels in log s on the same breaks
        for t in (1e-3, 0.7, 0.05):
            s, wk, wg = (a.reshape(-1, 2 * SUB_ORDER + 1) for a in
                         _subordination_rule(t, KERNEL_PANELS))
            h = math.log(S_CUTOFF / kernels._s_floor(1.0)) / KERNEL_PANELS
            breaks = math.log(S_CUTOFF) - h * np.arange(len(s), -1.0, -1.0)
            u, w = (a.ravel() for a in _panels(breaks, *np.polynomial.legendre.leggauss(SUB_ORDER)))
            assert s[:, 1::2].ravel().tolist() == np.exp(u).tolist()
            assert wg[:, 1::2].ravel().tolist() == (w * np.exp(u)).tolist()
            assert not wg[:, ::2].any() and np.all(wk > 0)

    @pytest.mark.parametrize(
        "panels",
        # every count kernel values and tables read, KERNEL_PANELS 2^j, and
        # the counts 8 2^j between them
        sorted({b * 2**j for b in (KERNEL_PANELS, 8) for j in range(SUB_DOUBLINGS + 1)}),
    )
    def test_laplace_transform(self, panels):
        # sum_i (w s)_i g(t, s_i) e^{-n s_i} plus the tail past S_CUTOFF is
        # e^{-t sqrt(n)} at every panel count kernel values and tables read,
        # with the Kronrod weights and with the embedded Gauss weights
        for t in (1e-4, 1e-3, 0.05, 0.25, 1.0, 5.0, 30.0):
            s, wk, wg = _subordination_rule(t, panels)
            tail = stable_tail_mass(0, t, S_CUTOFF)
            for ws in (wk, wg):
                g = ws * stable_density(t, s)
                for n in range(11):
                    got = np.dot(g, np.exp(-n * s)) + math.exp(-n * S_CUTOFF) * tail
                    assert abs(got - math.exp(-t * math.sqrt(n))) <= 1e-14, (t, n)
