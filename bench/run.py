"""laguerre-ops benchmark: seeded, checked workloads timed end to end or per layer.

    python3 bench/run.py --workload {l1-kernel,pointwise,spectral} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Each run
is one fresh single-threaded process.  It sets up (import, input
generation, reference load, warm-up) SETUP_REPEATS times and reports the
median as ``setup_s``, then runs whole rounds of items until the next round
would end more than half a round after ``--seconds``; at least one round
always runs.  Every
item's result is checked.  Item and set-up times are corrected for the
host's speed swings by speed.SpeedProbe: they read as seconds at a fixed
reference speed, and the plain wall-clock figures are kept in the record.  With
``--trace 1`` it runs the first round once untraced and once traced
instead, without the probe, and reports per-layer metrics; the spans go to
bench/out/trace-<workload>-<seed>.json.  The full record of every run, with
its provenance, goes to bench/out/result-<workload>-<seed>-trace<t>.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per layer with --trace 1).
``failed`` counts items that raised or missed their tolerance, and any of
them makes ``correct`` false.  The known defects of the package are kept
out of the workloads and reproduced by bench/defects.py.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one thread everywhere: the package's own pool and any BLAS numpy brings
THREAD_ENV = {
    "LAGUERRE_OPS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7


def _set_up(workload, seed, workdir, wrap):
    """Import the package afresh, generate the first round, load refs, warm up."""
    import workloads

    for name in [m for m in sys.modules if m.split(".")[0] == "laguerre_ops"]:
        del sys.modules[name]
    lo = importlib.import_module("laguerre_ops")
    make_rounds, warm_up, ref_names = workloads.WORKLOADS[workload]
    refs = workloads.load_refs(HERE, ref_names)
    rounds = make_rounds(lo, refs, seed, workdir, wrap)
    first = next(rounds)
    warm_up(lo, workdir)
    return lo, rounds, first


def run_items(items, tracer=None):
    """Run and check each item; returns [(start, end, item, failure or None)]."""
    results = []
    for item in items:
        start = time.perf_counter()
        try:
            value = item.run()
        except Exception as exc:  # a raising item is a failed item, not a crash
            end = time.perf_counter()
            results.append((start, end, item, f"raised {type(exc).__name__}: {exc}"))
            continue
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        try:
            failure = item.check(value)
        except Exception as exc:  # a result the check cannot read is wrong
            failure = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = True
        results.append((start, end, item, failure))
    return results


def percentile(values, q):
    """Nearest-rank percentile, or None unless 10 samples lie above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    if len(ordered) - rank < 10:
        return None
    return ordered[int(rank) - 1]


def failures_of(results):
    return [{"kind": item.kind, "inputs": item.inputs, "why": why}
            for _, _, item, why in results if why is not None]


def _src_digest():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "laguerre_ops"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed, workload):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "thread_env": THREAD_ENV,
    }


def _traced(args, tracer, lo, first, record):
    """The first round untraced, then traced; returns (results, per-layer metrics)."""
    untraced = run_items(first)
    tracer.install(lo)
    try:
        traced = run_items(first, tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(end - start for start, end, _, _ in untraced)
    traced_s = sum(end - start for start, end, _, _ in traced)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in
               tracer.metrics(traced_s, untraced_s).items()}
    record.update(rounds=1, untraced_s=untraced_s, traced_s=traced_s)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.write(trace_path, {"provenance": record["provenance"]})
    record["trace_file"] = os.path.relpath(trace_path, ROOT)
    return untraced + traced, metrics


def _timed(args, rounds, first, record):
    """Whole rounds until the next one would end more than half a round after
    --seconds; returns the results."""
    results, round_times = [], []
    loop_start = time.perf_counter()
    items = first
    while True:
        round_start = time.perf_counter()
        results += run_items(items)
        round_times.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.mean(round_times) / 2 > args.seconds:
            break
        items = next(rounds, None)
        if items is None:
            break
    record.update(rounds=len(round_times), round_s=round_times)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("l1-kernel", "pointwise", "spectral"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "laguerre_ops", "__init__.py")):
        print(f"error: no package source at {SRC}/laguerre_ops; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from speed import SpeedProbe
    from tracing import Tracer

    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    wrap = (lambda fn: tracer.span("input.f", fn)) if tracer else (lambda fn: fn)

    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        probe.start()
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            start = PROCESS_START if i == 0 else time.perf_counter()
            lo, rounds, first = _set_up(args.workload, args.seed, workdir, wrap)
            setups.append((start, time.perf_counter()))
        record = {"provenance": provenance(args.seed, args.workload)}
        if args.trace:
            results, metrics = _traced(args, tracer, lo, first, record)
        else:
            results = _timed(args, rounds, first, record)
    finally:
        if probe is not None:
            probe.stop()

    counted = results[len(results) // 2:] if args.trace else results
    wall = [end - start for start, end, _, _ in counted]
    setup_wall = [end - start for start, end in setups]
    if probe is None:
        times, setup_times = wall, setup_wall
    else:
        times = [probe.corrected(start, end) for start, end, _, _ in counted]
        setup_times = [probe.corrected(start, end) for start, end in setups]
        record.update(probe_samples=len(probe.cost), probe_median_s=probe.nominal(),
                      probe_overhead_frac=sum(probe.cost) / (time.perf_counter() - PROCESS_START),
                      items_per_wall_s=len(counted) / sum(wall), setup_wall_s=setup_wall)
    failures = failures_of(counted)
    attempted = len(counted)
    correct = attempted > 0 and not failures_of(results)
    p50, p90 = percentile(times, 50), percentile(times, 90)
    summary = {
        "items_per_s": (attempted / sum(times), "1/s"),
        "failed_frac": (len(failures) / attempted, "fraction"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if p50 is not None:
        summary["item_p50_ms"] = (p50 * 1e3, "ms")
    if p90 is not None:
        summary["item_p90_ms"] = (p90 * 1e3, "ms")
    if not args.trace:
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]}
                   for k in ("items_per_s", "setup_s", "peak_rss_mb")}

    record.update(
        attempted=attempted, failed=len(failures), correct=correct, setup_s_samples=setup_times,
        summary={k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        latency_samples=len(times), failures=failures,
        items=[{"kind": it.kind, "inputs": it.inputs, "seconds": s, "wall_s": w, "failure": why}
               for s, w, (_, _, it, why) in zip(times, wall, counted)],
        metrics=metrics,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} ({mode}): {attempted} items in "
          f"{record['rounds']} round(s), {sum(times):.3f} s of item time")
    for name, (value, unit) in summary.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    for name, q, need in (("item_p50_ms", p50, 20), ("item_p90_ms", p90, 100)):
        if q is None:
            print(f"  {name:<14} not reported: {len(times)} samples, needs {need}")
    if probe is not None:
        print(f"  {'wall clock':<14} {record['items_per_wall_s']:.6g} items/s before the "
              f"speed correction, {record['probe_samples']} probe samples")
    for f in failures:
        print(f"  failed {f['kind']} {f['inputs']}: {f['why']}")
    print(f"  record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
