"""Rerun the package's known defects, which the timed workloads leave out.

    python3 bench/defects.py [--quick]

The timed workloads draw only inputs on which the package meets the
tolerances its tests state, so that a failed item there is a regression.
The inputs on which it misses them at the seed are rerun here, with the
same items and checks, and listed with their errors:

* every entry of refs/callable.json that failed when the table was built
  (callable routes of bessel_potential_apply, fractional_integral_apply and
  fractional_derivative_apply); --quick takes the first per kind;
* fractional_derivative_expansion and bessel_derivative_expansion just
  below lambda = 1, where the spectral workload draws no lambda.

Takes about 3 min (20 s with --quick).  Exits 0 when every listed defect
still shows, and 1 when one of them no longer does: then the defect has been
fixed, and the workloads, refs/callable.json and bench/NOTES.md are due for
an update.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import laguerre_ops as lo  # noqa: E402
import pools  # noqa: E402
import workloads  # noqa: E402
from run import run_items  # noqa: E402

# (d, alpha, degree, expansion seed, lambda) just below the difference order 1
NEAR_ORDER_CASES = ((1, (0.5,), 10, 7, 0.9926), (2, (0.5, 2.0), 6, 7, 0.9926),
                    (1, (2.0,), 10, 3, 0.99))


def defect_items(quick):
    refs = workloads.load_refs(HERE, ("callable",))
    table = refs["callable"]["items"]
    items, seen = [], set()
    for key, kind, alpha, k, lam, x in pools.callable_pool():
        if table[key]["passed"] or (quick and kind in seen):
            continue
        seen.add(kind)
        items.append(workloads.callable_op_item(
            lo, kind, lo.MultiIndexParams(1, (alpha,)), (k,), lam, (x,), lambda f: f))
    for d, alpha, degree, seed, lam in NEAR_ORDER_CASES:
        e = lo.random_expansion(lo.MultiIndexParams(d, alpha), degree, seed=seed)
        for kind in ("fractional_derivative", "bessel_derivative"):
            items.append(workloads.expansion_op_item(lo, kind, e, lam))
    return items


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="one callable entry per operator instead of all")
    args = parser.parse_args(argv)
    fixed = 0
    for start, end, item, why in run_items(defect_items(args.quick)):
        fixed += why is None
        status = "passes now" if why is None else why
        print(f"{item.kind} {item.inputs}: {status} ({end - start:.2f} s)", flush=True)
    print(f"{fixed} of the listed defects no longer show" if fixed
          else "every listed defect still shows")
    return 1 if fixed else 0


if __name__ == "__main__":
    sys.exit(main())
