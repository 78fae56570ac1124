"""Item pools the workloads draw from, shared by the run and the reference build.

A pool is a finite, ordered list of inputs.  Reference tables are keyed by
the same strings, so a table built once covers every item a seed can draw.
"""

import math

L1_ALPHAS = (-0.25, 0.5, 2.0)
L1_TIMES = tuple(0.05 * 2.0**j for j in range(7))  # lemma21's dyadic grid
L1_XS = (0.5, 1.0, 2.0)

MASS_TIMES = (0.25, 1.0)  # kernel-mass scenario grid
MASS_XS = (0.5, 1.0, 2.0)

# fast scenarios of the spectral workload; lemma21, kernel-mass and
# spectral-vs-kernel call the kernel layer and are left out on purpose
SPECTRAL_SCENARIOS = (
    "subordination", "prop31", "prop33", "thm31",
    "thm42", "thm33", "thm44", "fdiff-identities",
)
SCENARIO_ALPHAS = {1: ((0.5,), (-0.25,), (2.0,)), 2: ((0.5, 0.5), (-0.25, 1.0))}
SCENARIO_SEEDS = (0, 1, 2)

# callable-route fractional operators of the pointwise workload: a fixed
# draw of inputs, each classified once at the seed (refs/callable.json)
CALLABLE_KINDS = ("bessel_potential", "fractional_integral", "fractional_derivative")
CALLABLE_PER_KIND = 16
CALLABLE_POOL_SEED = 20240817


def l1_key(alpha, t, x, m):
    return f"a={alpha:g},t={t:g},x={x:g},m={m}"


def l1_pool():
    """(key, alpha, t, x, m) over lemma21's grid times the alpha set."""
    return [
        (l1_key(a, t, x, m), a, t, x, m)
        for a in L1_ALPHAS for m in (1, 2) for t in L1_TIMES for x in L1_XS
    ]


def mass_key(alpha, t, x):
    return f"a={alpha:g},t={t:g},x={x:g}"


def mass_pool():
    return [(a, t, x) for a in L1_ALPHAS for t in MASS_TIMES for x in MASS_XS]


def scenario_key(scenario, d, alpha, seed):
    return f"{scenario},d={d},alpha={','.join(f'{a:g}' for a in alpha)},seed={seed}"


def scenario_pool():
    """(key, scenario, d, alpha, seed) for every scenario config the workload draws."""
    return [
        (scenario_key(s, d, a, seed), s, d, a, seed)
        for s in SPECTRAL_SCENARIOS
        for d in (1, 2)
        for a in SCENARIO_ALPHAS[d]
        for seed in SCENARIO_SEEDS
    ]


def callable_key(kind, alpha, k, lam, x):
    return f"{kind},a={alpha:g},k={k},lambda={lam!r},x={x!r}"


def callable_pool():
    """(key, kind, alpha, k, lam, x): f = L_k^alpha at d = 1, lambda ~ U(0.1, 1.9)."""
    import numpy as np

    rng = np.random.default_rng(CALLABLE_POOL_SEED)
    pool = []
    for kind in CALLABLE_KINDS:
        for _ in range(CALLABLE_PER_KIND):
            alpha = float(rng.choice(L1_ALPHAS))
            k = int(rng.integers(1, 5))
            lam = round(float(rng.uniform(0.1, 1.9)), 4)
            x = round(float(rng.uniform(0.3, 3.0)), 4)
            pool.append((callable_key(kind, alpha, k, lam, x), kind, alpha, k, lam, x))
    return pool


def mass_y_rule():
    """y nodes and weights of the kernel-mass scenario's panel rule on (0, 80)."""
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    breaks = np.concatenate(
        ([0.0], 2.0 ** (-np.arange(20.0, 0.0, -1.0)),
         np.exp(np.linspace(0.0, math.log(80.0), 41))[1:])
    )
    xg, wg = leggauss(12)
    a, b = breaks[:-1, None], breaks[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * xg).ravel(), (0.5 * (b - a) * wg).ravel()
