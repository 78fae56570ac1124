"""Build the benchmark's reference tables from the current source tree.

    python3 bench/build_refs.py l1          # bench/refs/l1_kernel.json (~10 min)
    python3 bench/build_refs.py scenarios   # bench/refs/scenarios.json (~10 s)
    python3 bench/build_refs.py callable    # bench/refs/callable.json (~6 min)
    python3 bench/build_refs.py costs       # bench/refs/costs.json (~12 min a pass)

Run from the repository root of a git checkout.  Each table records the
commit it was built from and the command that built it.  The tables are
built once from the seed code and then kept: later code is checked against
them, so rebuilding them after a numerical change hides that change.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pools  # noqa: E402


def _commit():
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return out.stdout.strip() + ("+dirty-src" if dirty else "")


def _write(name, items, extra=None):
    doc = {
        "commit": _commit(),
        "command": "python3 bench/build_refs.py " + " ".join(sys.argv[1:]),
        "built_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **(extra or {}),
        "items": items,
    }
    with open(os.path.join(HERE, "refs", name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def build_l1():
    import laguerre_ops as lo
    from laguerre_ops import MultiIndexParams, kernels, l1_kernel_derivative
    from workloads import mass_item

    calls = [0]
    bessel = kernels.log_bessel_i_scaled

    def counted(*args, **kwargs):
        calls[0] += 1
        return bessel(*args, **kwargs)

    kernels.log_bessel_i_scaled = counted
    items = {}
    for key, alpha, t, x, m in pools.l1_pool():
        calls[0] = 0
        start = time.perf_counter()
        value = l1_kernel_derivative(MultiIndexParams(1, (alpha,)), t, (x,), m)
        seconds = time.perf_counter() - start
        items[key] = {"value": repr(value), "bessel_calls": calls[0], "seconds": round(seconds, 3)}
        print(f"{key}: {value!r} ({calls[0]} Bessel calls, {seconds:.2f} s)", flush=True)
    masses = {}
    for alpha, t, x in pools.mass_pool():
        item = mass_item(lo, alpha, t, x)
        start = time.perf_counter()
        item.run()
        masses[pools.mass_key(alpha, t, x)] = {"seconds": round(time.perf_counter() - start, 3)}
    _write("l1_kernel.json", items, {"mass_items": masses, "seconds_note": (
        "seconds: one timing of the item on the build machine; used only to "
        "pair cheap with expensive items so that rounds carry equal work")})


def build_scenarios():
    from laguerre_ops import ScenarioConfig, run_scenario

    items = {}
    for key, scenario, d, alpha, seed in pools.scenario_pool():
        r = run_scenario(ScenarioConfig(scenario=scenario, d=d, alpha=alpha, seed=seed))
        items[key] = {"passed": r.passed, "max_ratio": repr(float(r.max_ratio))}
    with open(os.path.join(ROOT, "tests", "fixtures", "theorem_ratios.json")) as fh:
        fixture = json.load(fh)
    _write("scenarios.json", items, {
        "theorem_ratios": fixture,
        "theorem_ratios_source": "tests/fixtures/theorem_ratios.json",
    })


def build_callable():
    """Run every callable-operator input of the pool once and record its error.

    The pointwise workload draws from the entries that meet their tolerance;
    bench/defects.py reruns the ones that miss it.
    """
    import laguerre_ops as lo
    from workloads import callable_op_item

    items = {}
    for key, kind, alpha, k, lam, x in pools.callable_pool():
        item = callable_op_item(lo, kind, lo.MultiIndexParams(1, (alpha,)), (k,), lam, (x,),
                                lambda f: f)
        start = time.perf_counter()
        value = item.run()
        seconds = time.perf_counter() - start
        why = item.check(value)
        items[key] = {"error": repr(float(abs(value[0] - value[1]))), "passed": why is None,
                      "seconds": round(seconds, 3)}
        print(f"{key}: {'pass' if why is None else why} ({seconds:.2f} s)", flush=True)
    _write("callable.json", items, {"tolerance_note": (
        "error: |callable route - spectral route| at the seed; passed: within "
        "the item's tolerance (1e-6 Laplace route, 1e-4 difference route)")})


def build_costs():
    """Time every l1-kernel item once more with the speed probe on.

    Each call adds one timing per item to refs/costs.json; an item's cost is
    the median of its timings.  The l1-kernel workload pairs its items by
    these costs, so that every round carries about the same work whatever
    pairs the seed draws.
    """
    import statistics

    import laguerre_ops as lo
    from run import run_items
    from speed import SpeedProbe
    from workloads import l1_item, load_refs, mass_item

    refs = load_refs(HERE, ("l1_kernel",))
    items = [l1_item(lo, refs, *entry) for entry in pools.l1_pool()]
    items += [mass_item(lo, *entry) for entry in pools.mass_pool()]
    keys = [entry[0] for entry in pools.l1_pool()]
    keys += ["mass:" + pools.mass_key(*entry) for entry in pools.mass_pool()]
    path = os.path.join(HERE, "refs", "costs.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)["items"]
    probe = SpeedProbe()
    probe.start()
    try:
        results = run_items(items)
    finally:
        probe.stop()
    costs = {}
    for key, (start, end, _, why) in zip(keys, results):
        if why is not None:
            sys.exit(f"{key} failed: {why}")
        samples = old.get(key, {}).get("samples", []) + [round(probe.corrected(start, end), 4)]
        costs[key] = {"seconds": statistics.median(samples), "samples": samples}
    _write("costs.json", costs, {"seconds_note": (
        "samples: timings of the item, each corrected to the reference speed by "
        "speed.SpeedProbe; seconds: their median.  Used only to pair items of "
        "equal work")})


if __name__ == "__main__":
    parts = {"l1": build_l1, "scenarios": build_scenarios, "callable": build_callable,
             "costs": build_costs}
    if len(sys.argv) != 2 or sys.argv[1] not in parts:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(parts)}}}")
    parts[sys.argv[1]]()
