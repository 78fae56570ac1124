"""Median per-call cost of each layer of laguerre-ops, written as one JSON file.

    python3 scripts/layer_costs.py --out BENCH.json [--quick]

Run from the repository root; the package is imported from ./src.  Each
figure is the median wall time of single calls after one warm-up call:

- specfun: log-Bessel per point at nu = 0.5 (the closed form at every z), at
  nu = -0.25 and at nu = 2 (the ascending series, iv and the large-argument
  expansion by band; the same 4096 z from 1e-3 to 1e3), the heat-axis rule
  per node, and one uncached build of the Gauss-Laguerre rule at alpha =
  0.5, n = 200 (the rule the pointwise benchmark's warm-up builds);
- kernels: one KernelQuery build (d = 1, with x and y; the median of
  batches of 1000, divided by 1000), one heat kernel value (d = 1, on a
  query built once), one Poisson kernel value, 720 scalar poisson_kernel
  calls on a fixed legacy y node set (mass_y_nodes; t = 0.25, x = 1 and
  alpha = 0.5, 2 and -0.25; kept so that BENCH_<pr>.json files stay
  comparable), poisson_apply at d = 1 and d = 2, and at d = 2 on an
  expansion (degree 6, t = 0.7), poisson_dt_apply
  (f = L_3^0.5, m = 2, x = 1.3) on the default 11-time grid,
  l1_kernel_derivative at t = 0.5 and at t = 0.05 (where the subordination
  rule, laid down to the floor of t, has the most panels);
- fractional: fractional_integral_apply on the callable f = L_3^0.5 at
  lambda = 1.5, x = 1.3;
- expansion: analyze (d = 2 at degree 10, and d = 1 at degree 1000 on
  f = e^(-0.3 y), its 2008-node rows built once) and synthesize;
- lipschitz: lipschitz_seminorm at d = 3, degree 4, beta = 1.5 on the
  default grids, one stacked synthesis of the 11 times (and of f) on the
  24^3 x grid; and on the kernel route at d = 2 on a degree-6 expansion,
  beta = 0.5, the 4 x 4 x grid geomspace(0.1, 10, 4)^2 and the default t
  grid (one semigroup table per x, each time's heat values synthesized on
  its tensor grid);
- harness: each scenario of the fast set, at its default configuration;
- tier-1: the wall time of the whole test suite (left out with --quick,
  which also takes fewer repeats);
- counts: the log-Bessel points that one Poisson kernel value (alpha = 0.5,
  t = 1) and one l1_kernel_derivative (alpha = 0.5, x = 1, m = 1,
  t = 0.05) evaluate, the kernel values that L1 rule reads (its panel nodes
  and its sign-change bisection points, all through one block evaluator),
  the heat times of the semigroup tables that the d = 1 poisson_apply
  (t = 0.7) and poisson_dt_apply calls above read, and the semigroup tables
  (heat-apply calls) that the callable fractional integral above reads, and
  the log-Bessel points of that poisson_dt_apply call at or above z_h(nu),
  the large-argument band, and below min(z_s(nu), z_h(nu)) with a normal
  value, the ascending-series band (at its nu = 1/2 the closed form takes
  both); they depend only on the code, not on the machine;
- src_lines: the lines of each module of src/laguerre_ops and their total.

Timings depend on the machine, so the file records it beside them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from numpy.polynomial.legendre import leggauss  # noqa: E402

import laguerre_ops as lo  # noqa: E402
from laguerre_ops import kernels, specfun  # noqa: E402
from laguerre_ops.kernels import _heat_axis_rule  # noqa: E402

# scenarios that make no Poisson-kernel L1 or mass integrals; the others
# take seconds each and are covered by tier-1
FAST_SCENARIOS = (
    "subordination", "prop31", "prop33", "pminusI", "thm31",
    "thm-frac-integral", "thm42", "thm33", "thm44", "fdiff-identities",
)


def median_s(fn, repeats):
    """Median wall time of `repeats` calls of fn, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def mass_y_nodes():
    """A fixed legacy set of 720 y nodes on (0, 80), which the
    poisson_kernel_mass_720_* figures time one scalar poisson_kernel call
    at each: 12-node Gauss-Legendre panels, 20 with dyadic breaks up to 1/2
    and 40 with log-spaced breaks from there to 80.  The kernel-mass
    scenario no longer reads them (it integrates on _l1_integral's Kronrod
    panels in v = sqrt(y)); they stay so that BENCH_<pr>.json files stay
    comparable."""
    breaks = np.concatenate(
        ([0.0], 2.0 ** -np.arange(20.0, 0.0, -1.0), np.exp(np.linspace(0.0, np.log(80.0), 41))[1:])
    )
    a, b = breaks[:-1, None], breaks[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * leggauss(12)[0]).ravel()


def poisson_dt_apply_d1():
    """d^2/dt^2 P_t f(1.3) for f = L_3^0.5 on the default 11-time grid."""
    p1 = lo.MultiIndexParams(1, (0.5,))
    f = lambda y: lo.laguerre_poly(3, 0.5, y)
    return lo.poisson_dt_apply(f, p1, np.array(lo.default_t_grid()), (1.3,), 2)


def callable_fractional_integral():
    """I_1.5 f(1.3) for the callable f = L_3^0.5: one settled time integral."""
    p1 = lo.MultiIndexParams(1, (0.5,))
    f = lambda y: lo.laguerre_poly(3, 0.5, y)
    return lo.fractional_integral_apply(f, p1, 1.5, (1.3,))


def lipschitz_kernel_d2(e2):
    """The kernel-route A_0.5 of the d = 2 expansion e2 on the 4 x 4 x grid."""
    axis = np.geomspace(0.1, 10.0, 4)
    x_grid = [(a, b) for a in axis for b in axis]
    return lo.lipschitz_seminorm(e2, e2.params, 0.5, x_grid=x_grid, method="kernel")


def layer_costs(repeats):
    p1 = lo.MultiIndexParams(1, (0.5,))
    p2 = lo.MultiIndexParams(2, (0.5, -0.25))
    f1 = lambda y: np.exp(-0.3 * y)
    f2 = lambda pts: np.exp(-0.3 * pts[:, 0] - 0.1 * pts[:, 1])
    z = np.geomspace(1e-3, 1e3, 4096)
    heat_times = np.geomspace(1e-3, 40.0, 45)
    nodes = _heat_axis_rule(0.5, heat_times, 1.3)[1].size
    e = lo.random_expansion(p2, 10, seed=0)
    e2 = lo.random_expansion(p2, 6, seed=0)
    p3 = lo.MultiIndexParams(3, (0.5, -0.25, 2.0))
    e3 = lo.random_expansion(p3, 4, seed=0)
    pts = np.random.default_rng(0).uniform(0.1, 5.0, (1024, 2))
    mass = {alpha: [lo.KernelQuery(lo.MultiIndexParams(1, (alpha,)), 0.25, (1.0,), (float(y),))
                    for y in mass_y_nodes()] for alpha in (0.5, 2.0, -0.25)}
    mass_s = lambda alpha: median_s(
        lambda: [lo.poisson_kernel(q) for q in mass[alpha]], max(1, repeats // 4)
    )
    heat_query = lo.KernelQuery(p1, 0.5, (1.3,), (1.0,))
    return {
        "log_bessel_per_point_s": median_s(lambda: lo.log_bessel_i_scaled(0.5, z), repeats) / z.size,
        "log_bessel_per_point_neg_s": median_s(
            lambda: lo.log_bessel_i_scaled(-0.25, z), repeats
        ) / z.size,
        "log_bessel_per_point_a2_s": median_s(lambda: lo.log_bessel_i_scaled(2.0, z), repeats) / z.size,
        "heat_axis_rule_per_node_s": median_s(
            lambda: _heat_axis_rule(0.5, heat_times, 1.3), repeats
        ) / nodes,
        "gauss_laguerre_rule_200_build_s": median_s(
            lambda: specfun._gauss_laguerre_rule.__wrapped__(0.5, 200), repeats
        ),
        "kernel_query_s": median_s(
            lambda: [lo.KernelQuery(p1, 0.5, (1.3,), (1.0,)) for _ in range(1000)], repeats
        ) / 1000,
        "heat_kernel_value_s": median_s(lambda: lo.heat_kernel(heat_query), repeats),
        "poisson_kernel_value_s": median_s(
            lambda: lo.poisson_kernel(lo.KernelQuery(p1, 0.5, (1.3,), (1.0,))), repeats
        ),
        "poisson_kernel_mass_720_s": mass_s(0.5),
        "poisson_kernel_mass_720_a2_s": mass_s(2.0),
        "poisson_kernel_mass_720_aneg_s": mass_s(-0.25),
        "poisson_apply_d1_s": median_s(lambda: lo.poisson_apply(f1, p1, 0.7, (1.3,)), repeats),
        "poisson_apply_d2_s": median_s(lambda: lo.poisson_apply(f2, p2, 0.7, (1.2, 0.7)), repeats),
        "poisson_apply_d2_expansion_s": median_s(
            lambda: lo.poisson_apply(e2, p2, 0.7, (1.2, 0.7)), repeats
        ),
        "poisson_dt_apply_d1_s": median_s(poisson_dt_apply_d1, repeats),
        "l1_kernel_derivative_s": median_s(
            lambda: lo.l1_kernel_derivative(p1, 0.5, (1.3,), 1), max(1, repeats // 4)
        ),
        "l1_kernel_derivative_t005_s": median_s(
            lambda: lo.l1_kernel_derivative(p1, 0.05, (1.3,), 1), max(1, repeats // 4)
        ),
        "callable_fractional_integral_d1_s": median_s(callable_fractional_integral, repeats),
        "analyze_d2_degree10_s": median_s(lambda: lo.analyze(f2, p2, 10), repeats),
        "analyze_d1_degree1000_s": median_s(lambda: lo.analyze(f1, p1, 1000), repeats),
        "synthesize_d2_degree10_1024_points_s": median_s(lambda: lo.synthesize_many(e, pts), repeats),
        "lipschitz_stack_d3_s": median_s(lambda: lo.lipschitz_seminorm(e3, p3, 1.5), repeats),
        "lipschitz_kernel_d2_s": median_s(lambda: lipschitz_kernel_d2(e2), max(1, repeats // 5)),
    }


def counted_points(fn, name, points_of):
    """The points that one call of fn hands to the kernel layer's binding
    `name`, points_of(*args) per call of it."""
    original, points = getattr(kernels, name), [0]

    def counted(*args):
        points[0] += points_of(*args)
        return original(*args)

    setattr(kernels, name, counted)
    try:
        fn()
    finally:
        setattr(kernels, name, original)
    return points[0]


def counts():
    p1 = lo.MultiIndexParams(1, (0.5,))
    value = lambda: lo.poisson_kernel(lo.KernelQuery(p1, 1.0, (1.3,), (1.0,)))
    l1 = lambda: lo.l1_kernel_derivative(p1, 0.05, (1.0,), 1)
    bessel = lambda nu, z: int(np.size(z))
    hankel = lambda nu, z: int(np.count_nonzero(np.asarray(z) >= specfun._hankel(nu)[0]))
    tiny_log = np.log(np.finfo(float).tiny)
    ascending = lambda nu, z: int(np.count_nonzero(
        (np.asarray(z) < min(specfun._ascending(nu)[0], specfun._hankel(nu)[0]))
        & (specfun.log_bessel_i_scaled(nu, z) >= tiny_log)
    ))
    table = lambda: lo.poisson_apply(lambda y: np.exp(-0.3 * y), p1, 0.7, (1.3,))
    heat_times = lambda f, params, times, x: len(times)
    return {
        "poisson_kernel_value_bessel_points": counted_points(value, "log_bessel_i_scaled", bessel),
        "l1_kernel_derivative_t005_bessel_points": counted_points(l1, "log_bessel_i_scaled", bessel),
        "l1_kernel_derivative_t005_kernel_values": counted_points(
            l1, "_poisson_block_once", lambda params, t, x, y, m, panels: len(y)
        ),
        "poisson_apply_d1_heat_times": counted_points(table, "_heat_apply_times", heat_times),
        "poisson_dt_apply_d1_heat_times": counted_points(
            poisson_dt_apply_d1, "_heat_apply_times", heat_times
        ),
        "poisson_dt_apply_d1_hankel_points": counted_points(
            poisson_dt_apply_d1, "log_bessel_i_scaled", hankel
        ),
        "poisson_dt_apply_d1_ascending_points": counted_points(
            poisson_dt_apply_d1, "log_bessel_i_scaled", ascending
        ),
        "callable_fractional_integral_reads": counted_points(
            callable_fractional_integral, "_heat_apply_times", lambda *args: 1
        ),
    }


def scenario_costs(repeats):
    return {
        name: median_s(lambda: lo.run_scenario(lo.ScenarioConfig(scenario=name)), repeats)
        for name in FAST_SCENARIOS
    }


def tier1():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return {
        "wall_s": time.perf_counter() - start,
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
    }


def src_lines():
    pkg = os.path.join(SRC, "laguerre_ops")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines[name] = sum(1 for _ in fh)
    return {**lines, "total": sum(lines.values())}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--quick", action="store_true", help="fewer repeats, no tier-1 run")
    args = ap.parse_args(argv)
    repeats = 3 if args.quick else 15
    result = {
        "machine": machine(),
        "repeats": repeats,
        "layers": layer_costs(repeats),
        "counts": counts(),
        "scenarios_s": scenario_costs(1 if args.quick else 5),
        "tier1": None if args.quick else tier1(),
        "src_lines": src_lines(),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps({**result["layers"], **result["counts"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
