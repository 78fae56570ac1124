"""Independent spectral oracle for the spectral workload's checks.

Finite Laguerre expansions are evaluated as dense basis matrices built with
``scipy.special.eval_genlaguerre``, so the checks share neither the
package's recurrence nor its dict-keyed coefficient loops.  The grids are
the package's documented defaults: 24 log-spaced points per axis on
[0.05, 20] and the dyadic times 5 * 2^-j, j = 0..10.
"""

import math

import numpy as np
from scipy.special import binom, eval_genlaguerre, factorial


def x_grid(d, points=24):
    axis = np.geomspace(0.05, 20.0, points)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def t_grid(levels=11):
    return [5.0 * 2.0 ** (-j) for j in range(levels - 1, -1, -1)]


def order_above(beta):
    """Smallest integer strictly greater than beta."""
    k = math.floor(beta) + 1
    return k if k > beta else k + 1


def laguerre_input(k, alpha, pad):
    """f = prod_j L_{k_j}^{alpha_j}(y_j) as a callable for the kernel routes.

    Each factor is a Horner scheme over its monomial coefficients padded to
    degree `pad`, so every call costs the same whatever k is (the scipy
    recurrence costs up to 8x more at k = 6 than at k = 1, which would make
    an item's cost depend on the seed).  y is a vector (d = 1) or (m, d).
    """
    tables = []
    for kj, aj in zip(k, alpha):
        i = np.arange(kj + 1)
        c = np.zeros(pad + 1)
        c[: kj + 1] = (-1.0) ** i * binom(kj + aj, kj - i) / factorial(i)
        tables.append(c[::-1])

    def f(y):
        y = np.asarray(y, dtype=float)
        out = None
        for j, c in enumerate(tables):
            yj = y if len(tables) == 1 else y[..., j]
            p = np.full(yj.shape, c[0])
            for cj in c[1:]:
                p *= yj
                p += cj
            out = p if out is None else out * p
        return out

    return f


def laguerre_at(k, alpha, x):
    """prod_j L_{k_j}^{alpha_j}(x_j) at one point x."""
    return float(np.prod([eval_genlaguerre(kj, aj, xj) for kj, aj, xj in zip(k, alpha, x)]))


class Dense:
    """An expansion's coefficients, orders |k| and basis values on the x grid."""

    def __init__(self, expansion):
        keys = sorted(expansion.coeffs)
        alpha = expansion.params.alpha
        xs = x_grid(len(alpha))
        self.c = np.array([expansion.coeffs[k] for k in keys])
        self.root_n = np.sqrt([float(sum(k)) for k in keys])
        self.basis = np.ones((len(xs), len(keys)))
        for j, a in enumerate(alpha):
            kj = np.array([k[j] for k in keys])
            self.basis *= eval_genlaguerre(kj[None, :], a, xs[:, j : j + 1])

    def sup(self, symbol):
        return float(np.max(np.abs(self.basis @ (self.c * symbol))))

    def sup_dt(self, t, n):
        """Grid sup of |d^n/dt^n P_t f|."""
        return self.sup((-self.root_n) ** n * np.exp(-t * self.root_n))

    def seminorm(self, beta, n=None):
        n = order_above(beta) if n is None else n
        return max(t ** (n - beta) * self.sup_dt(t, n) for t in t_grid())


def seminorm(expansion, beta):
    """(A_beta, sup |f|) as lipschitz_seminorm defines them on the default grids."""
    dense = Dense(expansion)
    return dense.seminorm(beta), dense.sup(np.ones_like(dense.c))


def equivalence(expansion, beta, k, l, window=(1.0 / 50.0, 50.0)):
    """(passed, ratio) of check_equivalence on the default grids."""
    dense = Dense(expansion)
    a_k, a_l = dense.seminorm(beta, k), dense.seminorm(beta, l)
    if a_k == 0.0 and a_l == 0.0:
        ratio = 1.0
    elif a_l == 0.0:
        ratio = math.inf
    else:
        ratio = a_k / a_l
    return math.isfinite(ratio) and window[0] <= ratio <= window[1], ratio


def approximation(expansion, beta, tol=0.05):
    """(passed, max_ratio) of check_approximation on the default grids."""
    dense = Dense(expansion)
    a_beta = dense.seminorm(beta)
    passed, worst = True, 0.0
    for t in t_grid():
        measured = dense.sup(np.expm1(-t * dense.root_n))
        bound = (1.0 + tol) * a_beta * t**beta
        passed = passed and measured <= bound
        if bound > 0:
            worst = max(worst, measured / bound)
    return passed, worst
