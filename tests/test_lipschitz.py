import math

import numpy as np
import pytest

from laguerre_ops import lipschitz
from laguerre_ops.errors import DomainError
from laguerre_ops.expansion import (
    LaguerreExpansion,
    MultiIndexParams,
    poisson,
    random_expansion,
    spectral_apply,
    synthesize_many,
)
from laguerre_ops.harness import check_approximation, check_equivalence, check_pminusI_power
from laguerre_ops.kernels import poisson_dt_apply
from laguerre_ops.lipschitz import (
    default_t_grid,
    default_x_grid,
    lipschitz_seminorm,
    poisson_dt_expansion,
    sup_norm,
)
from laguerre_ops.report import report_to_json
from laguerre_ops.specfun import laguerre_poly

P = MultiIndexParams(1, (0.5,))
L1 = LaguerreExpansion(P, 1, {(1,): 1.0})


class TestGrids:
    def test_x_grid_range(self):
        g = default_x_grid()
        assert len(g) == 24
        assert g[0] == (pytest.approx(0.05),)
        assert g[-1] == (pytest.approx(20.0),)

    def test_x_grid_is_the_tensor_of_one_axis(self):
        axis = np.geomspace(0.05, 20.0, 24).tolist()
        assert default_x_grid(3) == [(a, b, c) for a in axis for b in axis for c in axis]

    def test_t_grid_dyadic_ascending(self):
        g = default_t_grid()
        assert g == sorted(g)
        assert g[-1] == 5.0
        assert g[0] == pytest.approx(5.0 * 2.0**-10)


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(lambda x: 1.0, default_x_grid()) == 1.0

    def test_l1_on_small_grid(self):
        grid = [(0.5,), (1.5,), (3.0,)]
        got = sup_norm(lambda x: laguerre_poly(1, 0.5, x[0]), grid)
        assert got == pytest.approx(1.5)

    def test_monotone_in_refinement(self):
        coarse = default_x_grid(points=8)
        fine = coarse + default_x_grid(points=24)
        g = lambda x: laguerre_poly(3, 0.5, x[0])
        assert sup_norm(g, fine) >= sup_norm(g, coarse)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            sup_norm(lambda x: 1.0, [])


class TestSeminorm:
    def test_l1_closed_form(self):
        # d/dt P_t L_1 = -e^{-t} L_1, so A_beta is the grid max of
        # t^{1-beta} e^{-t} times the grid sup of |L_1|
        est = lipschitz_seminorm(L1, P, 0.5)
        g = max(abs(laguerre_poly(1, 0.5, x[0])) for x in est.x_grid)
        ref = max(t**0.5 * math.exp(-t) for t in est.t_grid) * g
        assert est.A_beta == pytest.approx(ref, rel=1e-12)
        assert est.n == 1
        assert est.f_sup == pytest.approx(g)

    def test_constants_vanish(self):
        c = LaguerreExpansion(P, 0, {(0,): 3.0})
        assert lipschitz_seminorm(c, P, 0.7).A_beta == 0.0

    def test_homogeneous(self):
        e = random_expansion(P, 5, seed=3)
        scaled = LaguerreExpansion(P, 5, {k: 2.5 * v for k, v in e.coeffs.items()})
        a = lipschitz_seminorm(e, P, 0.8).A_beta
        b = lipschitz_seminorm(scaled, P, 0.8).A_beta
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_integer_beta_uses_next_order(self):
        assert lipschitz_seminorm(L1, P, 1.0).n == 2

    def test_monotonicity_of_classes(self):
        # on a t-grid inside (0,1], A_{b1} <= A_{b2} * max t^(b2-b1)
        e = random_expansion(P, 6, seed=1)
        t_grid = [2.0**-j for j in range(8, 0, -1)]
        b1, b2 = 0.3, 0.8
        a1 = lipschitz_seminorm(e, P, b1, t_grid=t_grid).A_beta
        a2 = lipschitz_seminorm(e, P, b2, t_grid=t_grid).A_beta
        cap = max(t ** (b2 - b1) for t in t_grid)
        assert a1 <= a2 * cap * (1 + 1e-12)

    def test_uniform_derivative_bound(self):
        # t^n || d^n_t P_t f || stays bounded by a constant times ||f||
        e = random_expansion(P, 6, seed=1)
        est = lipschitz_seminorm(e, P, 0.5)
        worst = max(t * s for t, s in est.sup_table.items())
        assert worst <= 5.0 * est.f_sup

    def test_spectral_vs_kernel_path(self):
        f = LaguerreExpansion(P, 3, {(1,): 1.0, (3,): 0.3})
        t_grid = [0.25, 1.0]
        x_grid = [(0.5,), (2.0,)]
        a = lipschitz_seminorm(f, P, 0.5, t_grid, x_grid, method="spectral")
        b = lipschitz_seminorm(f, P, 0.5, t_grid, x_grid, method="kernel")
        for t in t_grid:
            assert a.sup_table[t] == pytest.approx(b.sup_table[t], abs=1e-5)

    def test_kernel_path_on_default_grids(self):
        # 24 x points from 0.05 to 20, 11 times from 5 * 2^-10 to 5
        f = LaguerreExpansion(P, 3, {(1,): 1.0, (3,): 0.3})
        a = lipschitz_seminorm(f, P, 0.5, method="spectral")
        b = lipschitz_seminorm(f, P, 0.5, method="kernel")
        assert len(a.x_grid) == 24 and len(a.t_grid) == 11
        for t in a.t_grid:
            assert b.sup_table[t] == pytest.approx(a.sup_table[t], abs=1e-8)

    def test_kernel_path_third_derivative(self):
        # beta = 2.5 takes d^3/dt^3 down to t = 5 * 2^-10, where the
        # subordination integral multiplies the heat rule's error by ~5e7
        f = random_expansion(P, 6, seed=1)
        a = lipschitz_seminorm(f, P, 2.5, method="spectral")
        b = lipschitz_seminorm(f, P, 2.5, method="kernel")
        for t in a.t_grid:
            assert b.sup_table[t] == pytest.approx(a.sup_table[t], rel=1e-8)

    def test_kernel_path_on_an_expansion_at_d2(self):
        # the kernel route hands the expansion itself to the semigroup tables,
        # which synthesize it on each heat time's tensor grid
        p2 = MultiIndexParams(2, (0.5, -0.25))
        f = random_expansion(p2, 6, seed=0)
        x_grid = [(a, b) for a in (0.3, 2.0) for b in (0.5, 3.0)]
        a = lipschitz_seminorm(f, p2, 0.5, x_grid=x_grid)
        b = lipschitz_seminorm(f, p2, 0.5, x_grid=x_grid, method="kernel")
        assert b.A_beta == pytest.approx(a.A_beta, rel=1e-12)
        assert b.f_sup == pytest.approx(a.f_sup, rel=1e-12)
        for t in a.t_grid:
            assert b.sup_table[t] == pytest.approx(a.sup_table[t], rel=1e-12, abs=1e-12)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            lipschitz_seminorm(L1, P, 0.0)


class TestChecks:
    def test_equivalence_finite_ratio(self):
        e = random_expansion(P, 5, seed=3)
        r = check_equivalence(e, P, 0.5, 1, 2)
        assert r.passed
        assert 1.0 / 50.0 <= r.max_ratio <= 50.0

    def test_equivalence_constant_input(self):
        c = LaguerreExpansion(P, 0, {(0,): 1.0})
        r = check_equivalence(c, P, 0.5, 1, 2)
        assert r.passed and r.max_ratio == 1.0

    def test_equivalence_numpy_orders_give_the_int_report(self):
        # a numpy integer order is read as its int, so the report's config
        # holds an int and emits the same JSON
        e = random_expansion(P, 5, seed=3)
        want = report_to_json(check_equivalence(e, P, 0.5, 1, 2))
        assert report_to_json(check_equivalence(e, P, 0.5, np.int64(1), np.int32(2))) == want

    def test_equivalence_rejects_small_orders(self):
        with pytest.raises(DomainError):
            check_equivalence(L1, P, 1.5, 1, 2)

    def test_approximation_requires_unit_interval_beta(self):
        with pytest.raises(DomainError):
            check_approximation(L1, P, 1.2)

    def test_approximation_rows_take_one_synthesis(self, monkeypatch):
        # P_t f - f of every t comes from one stacked synthesis through the
        # multiplier e^(-t sqrt(m)) - 1, the same one that A_beta takes (its
        # 11 columns, then the rows' 11); f itself is not synthesized apart
        import laguerre_ops.lipschitz as lip

        f = random_expansion(P, 4, seed=1)
        want = check_approximation(f, P, 0.5)
        calls = []
        stacked, single = lip._synthesize, lip.call_on_points
        monkeypatch.setattr(
            lip, "_synthesize", lambda e, c, xs: calls.append(c.shape) or stacked(e, c, xs))
        monkeypatch.setattr(
            lip, "call_on_points", lambda e, p, xs: calls.append(e) or single(e, p, xs))
        got = check_approximation(f, P, 0.5)
        assert calls == [(f.vector.size, 22)]
        assert got.rows == want.rows and got.max_ratio == want.max_ratio
        est = lipschitz_seminorm(f, P, 0.5)
        assert [r.bound for r in got.rows] == [
            (1.0 + 0.05) * est.A_beta * t**0.5 for t in est.t_grid
        ]

    def test_approximation_rows_scale_down(self):
        # measured ||P_t f - f|| decreases toward small t on the dyadic grid
        r = check_approximation(L1, P, 0.9)
        measured = [row.measured for row in r.rows]
        assert measured == sorted(measured)
        # smallest time: ||P_t L_1 - L_1|| = (1 - e^-t) ||L_1|| <= t ||L_1||
        t_min = 5.0 * 2.0**-10
        g = max(abs(laguerre_poly(1, 0.5, x)) for x in np.geomspace(0.05, 20, 24))
        assert measured[0] <= t_min * g

    def test_pminusI_uniform_bound(self):
        e = random_expansion(P, 6, seed=2)
        r = check_pminusI_power(e, P, 0.5)
        assert r.passed
        uniform_rows = [row for row in r.rows if row.point.endswith("uniform")]
        assert all(row.measured <= row.bound for row in uniform_rows)

    def test_pminusI_higher_order(self):
        e = random_expansion(P, 6, seed=2)
        assert check_pminusI_power(e, P, 1.3).passed

    @pytest.mark.parametrize(
        "call, args",
        [
            (lipschitz_seminorm, (L1, P, math.inf)),
            (check_equivalence, (L1, P, 0.0, 1, 2)),
            (check_equivalence, (L1, P, -1.0, 1, 2)),
            (check_equivalence, (L1, P, math.nan, 1, 2)),
            (check_pminusI_power, (L1, P, math.inf)),
            (check_pminusI_power, (L1, P, -0.5)),
            (check_pminusI_power, (random_expansion(P, 6, seed=2), P, 1.0)),
            (check_pminusI_power, (random_expansion(P, 6, seed=2), P, 2.0)),
            (lipschitz_seminorm, (random_expansion(P, 6, seed=2), P, 800.0)),
            (check_equivalence, (random_expansion(P, 6, seed=2), P, 800.0, 801, 802)),
            (check_pminusI_power, (random_expansion(P, 6, seed=2), P, 800.5)),
        ],
    )
    def test_bad_beta_raises_domain_error(self, call, args):
        # beta must be finite and > 0 (an infinite beta raised a raw
        # OverflowError, and check_equivalence accepted beta <= 0); at an
        # integer beta the simplex constant of (P_t - I)^n diverges (a raw
        # ZeroDivisionError); at beta = 800 the multiplier (-sqrt(m))^801 of
        # the time derivative overflows (a RuntimeWarning and nan)
        with pytest.raises(DomainError):
            call(*args)


E4 = random_expansion(P, 4, seed=1)


class TestGridValidation:
    @pytest.mark.parametrize(
        "t_grid",
        [[-1.0, 1.0], [], [0.5, math.inf], [math.nan, 1.0], [0.0, 1.0]],
        ids=["negative", "empty", "inf", "nan", "zero"],
    )
    def test_bad_t_grid(self, t_grid):
        with pytest.raises(DomainError):
            lipschitz_seminorm(E4, P, 0.5, t_grid=t_grid)

    @pytest.mark.parametrize("x", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_x_point(self, x):
        with pytest.raises(DomainError):
            lipschitz_seminorm(E4, P, 0.5, x_grid=[(0.5,), (x,)])

    def test_bad_coordinate_at_d2(self):
        p = MultiIndexParams(2, (0.5, 0.5))
        with pytest.raises(DomainError):
            lipschitz_seminorm(random_expansion(p, 3, seed=1), p, 0.5,
                               x_grid=[(0.5, 1.0), (1.0, -0.3)])

    def test_approximation_negative_t(self):
        with pytest.raises(DomainError):
            check_approximation(E4, P, 0.5, t_grid=[-1.0, 1.0])

    def test_callable_f_sup_takes_one_call(self):
        calls = []

        def f(y):
            calls.append(np.shape(y))
            return laguerre_poly(1, 0.5, y)

        t_grid, x_grid = [0.5, 1.0], [(0.5,), (1.0,), (2.0,)]
        for x in x_grid:
            poisson_dt_apply(f, P, np.array(t_grid), x, 1)
        kernel_calls = len(calls)
        calls.clear()
        est = lipschitz_seminorm(f, P, 0.5, t_grid, x_grid, method="kernel")
        assert len(calls) == kernel_calls + 1
        assert calls[-1] == (3,)
        assert est.f_sup == max(abs(laguerre_poly(1, 0.5, x[0])) for x in x_grid)


def _params(d):
    return MultiIndexParams(d, (0.5, -0.25, 2.0)[:d])


class TestStackedTimeGrid:
    """The whole time grid in one synthesis gives the per-t numbers bit for bit."""

    @pytest.mark.parametrize("d, degree", [(1, 8), (2, 6), (3, 4)])
    @pytest.mark.parametrize("beta", [0.3, 1.5, 2.4])
    def test_sup_table_matches_per_t_synthesis(self, d, degree, beta):
        p = _params(d)
        f = random_expansion(p, degree, seed=5)
        est = lipschitz_seminorm(f, p, beta)
        xs = np.asarray(est.x_grid)
        for t in est.t_grid:
            want = np.max(np.abs(synthesize_many(poisson_dt_expansion(f, t, est.n), xs)))
            assert est.sup_table[t] == want
        assert est.A_beta == max(t ** (est.n - beta) * s for t, s in est.sup_table.items())

    @pytest.mark.parametrize("d, degree", [(1, 8), (2, 6), (3, 4)])
    def test_default_points_given_as_x_grid_match_the_default(self, d, degree):
        # the default grid is synthesized as a tensor grid, the same points
        # passed as x_grid as scattered points: the numbers agree bit for bit
        p = _params(d)
        f = random_expansion(p, degree, seed=9)
        for beta in (0.4, 1.7):
            want = lipschitz_seminorm(f, p, beta)
            got = lipschitz_seminorm(f, p, beta, x_grid=default_x_grid(d))
            assert got == want
        want = check_pminusI_power(f, p, 0.4)
        assert check_pminusI_power(f, p, 0.4, x_grid=default_x_grid(d)) == want
        want = check_approximation(f, p, 0.4)
        assert check_approximation(f, p, 0.4, x_grid=default_x_grid(d)) == want

    @pytest.mark.parametrize("d, degree", [(1, 8), (2, 6)])
    def test_approximation_rows_match_per_t_loop(self, d, degree):
        p = _params(d)
        f = random_expansion(p, degree, seed=6)
        r = check_approximation(f, p, 0.6)
        xs = np.asarray(default_x_grid(d))
        f_vals = synthesize_many(f, xs)
        t_grid = default_t_grid()
        assert len(r.rows) == len(t_grid)
        for row, t in zip(r.rows, t_grid):
            # P_t - I through its multiplier e^(-t sqrt(m)) - 1, and as P_t f - f
            g = f.scaled(np.expm1(-t * np.sqrt(f.orders)))
            assert row.measured == np.max(np.abs(synthesize_many(g, xs)))
            pt = synthesize_many(spectral_apply(poisson(t), f), xs)
            assert row.measured == pytest.approx(np.max(np.abs(pt - f_vals)), rel=1e-12)

    @pytest.mark.parametrize("d, degree", [(1, 8), (2, 6)])
    @pytest.mark.parametrize("n, beta", [(1, 0.5), (2, 1.3), (3, 2.4)])
    def test_pminusI_rows_match_per_t_loop(self, d, degree, n, beta):
        p = _params(d)
        f = random_expansion(p, degree, seed=7)
        r = check_pminusI_power(f, p, beta)
        xs = np.asarray(default_x_grid(d))
        t_grid = default_t_grid()
        assert len(r.rows) == 2 * len(t_grid)
        for row, t in zip(r.rows[::2], t_grid):
            g = f.scaled(np.expm1(-t * np.sqrt(f.orders)) ** n)
            assert row.measured == np.max(np.abs(synthesize_many(g, xs)))

    @pytest.mark.parametrize("check", [
        lambda f, p: lipschitz_seminorm(f, p, 1.3),
        lambda f, p: check_equivalence(f, p, 1.3, 2, 3),
        lambda f, p: check_approximation(f, p, 0.6),
        lambda f, p: check_pminusI_power(f, p, 1.3),
    ])
    def test_each_check_reads_one_synthesis(self, check, monkeypatch):
        calls = []
        synthesize = lipschitz._synthesize
        monkeypatch.setattr(lipschitz, "_synthesize",
                            lambda *args: calls.append(args) or synthesize(*args))
        check(random_expansion(_params(2), 5, seed=3), _params(2))
        assert len(calls) == 1
