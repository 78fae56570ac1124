"""Self-test: every correctness check of the benchmark fires.

    python3 bench/selftest.py

For one round of each workload, plus the default-config theorem scenarios
that carry the theorem_ratios.json check, it feeds each item's check a value
it must accept and values pushed past the tolerance that it must reject.
It also checks that the runner counts a raising item and a rejected value as
failed items.  Kernel-route items are not run: their accepted value comes
from the stored reference or the spectral route.  Takes about 15 s; exits 1
on the first check that does not behave.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import laguerre_ops as lo  # noqa: E402
import workloads  # noqa: E402
from run import run_items  # noqa: E402


def check_item(item, problems):
    value = item.ideal() if item.ideal is not None else item.run()
    why = item.check(value)
    if why is not None:
        problems.append(f"{item.kind} {item.inputs}: rejected its accepted value: {why}")
    bad = item.perturb(value)
    for i, wrong in enumerate(bad):
        if item.check(wrong) is None:
            problems.append(f"{item.kind} {item.inputs}: accepted perturbation {i}")
    return len(bad)


def main():
    problems, fired, kinds = [], 0, set()
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name, (make_rounds, _, ref_names) in workloads.WORKLOADS.items():
            refs = workloads.load_refs(HERE, ref_names)
            items = next(make_rounds(lo, refs, 0, workdir, lambda f: f))
            if name == "spectral":
                items += [workloads.scenario_item(lo, refs, s, 1, (0.5,), 0, workdir)
                          for s in workloads.THEOREM_SCENARIOS]
            for item in items:
                fired += check_item(item, problems)
                kinds.add(item.kind)

        # the runner must count a raising item and a rejected value as failed
        def boom():
            raise lo.QuadratureError("forced")

        probe = workloads.Item("probe", {}, boom, lambda v: None, lambda v: [])
        reject = workloads.Item("probe", {}, lambda: 1.0, lambda v: "forced", lambda v: [])
        for _, _, item, why in run_items([probe, reject]):
            if why is None:
                problems.append("runner did not count a failing probe item as failed")

    for p in problems:
        print("FAIL", p)
    print(f"{fired} perturbations over item kinds {sorted(kinds)}: "
          f"{'all rejected' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
