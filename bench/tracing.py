"""Spans around calls into the laguerre_ops layers, recorded from outside.

The tracer replaces every public function of the layer modules at each
module attribute it is looked up through (modules import names with
``from .x import y``, so ``laguerre_ops.kernels.log_bessel_i_scaled`` is a
separate binding from ``laguerre_ops.specfun.log_bessel_i_scaled``).  SciPy's
``quad`` is wrapped where the kernel layer looks it up, and so is each
integrand handed to it: one innermost integrand call is one kernel value.
No file of the package is changed.

Each span is (name, start, end, parent).  Self time is a span's duration
minus the durations of its direct children; a layer's self time is the sum
over its spans.  Callables made by the benchmark (the inputs f) get their
own ``input`` spans, so their cost is not charged to the layer calling them.
"""

from array import array
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("specfun", "expansion", "kernels", "fractional", "lipschitz", "report", "harness")
BESSEL = frozenset(
    "specfun." + n
    for n in ("log_bessel_i_scaled", "log_bessel_i", "bessel_i",
              "bessel_i_series", "bessel_i_asymptotic")
)
CALLABLE_OPS = frozenset(
    "fractional." + n
    for n in ("bessel_potential_apply", "fractional_integral_apply",
              "fractional_derivative_apply", "bessel_derivative_apply")
)
EXPANSION_OPS = frozenset(
    "fractional." + n
    for n in ("bessel_potential_expansion", "fractional_integral_expansion",
              "fractional_derivative_expansion", "bessel_derivative_expansion")
)
KERNEL_VALUE = "kernels.kernel_value"
QUAD = "kernels.quad"


class Tracer:
    """Install with ``install(package)``; read ``metrics()``; ``uninstall()``."""

    def __init__(self):
        self.names = []          # name table; spans refer to it by index
        self._ids = {}
        # spans as parallel flat arrays: no container object per span, so the
        # garbage collector has nothing to scan as the trace grows
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []         # open frames: [span_index, name, child_time]
        self._patched = []       # (module, attribute, original)
        self.calls = {}
        self.total = {}          # inclusive time per name
        self.self_time = {}
        self.counts = {
            "bessel_calls": 0, "bessel_points": 0, "bessel_in_kv": 0,
            "kernel_values": 0, "synth_points": 0, "report_bytes": 0,
            "poisson_in_callable_op": 0,
        }
        self.active = False      # wrappers only record while installed
        self._kv_depth = 0
        self._callable_op_depth = 0
        self._expansion_type = None

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        index = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        self._stack.append([index, name, 0.0])
        return index

    def _close(self):
        end = time.perf_counter()
        index, name, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child

    def _note_call(self, name, args, kwargs):
        """Counts taken at the boundary, before the call runs."""
        c = self.counts
        if name in BESSEL:
            parent = self._stack[-1][1] if self._stack else None
            if parent not in BESSEL:
                z = args[1] if len(args) > 1 else kwargs.get("z")
                c["bessel_calls"] += 1
                c["bessel_points"] += int(np.size(z))
                if self._kv_depth:
                    c["bessel_in_kv"] += 1
        elif name in ("kernels.poisson_kernel", "kernels.poisson_kernel_dt"):
            c["kernel_values"] += 1
        elif name == "kernels.poisson_apply" and self._callable_op_depth:
            c["poisson_in_callable_op"] += 1
        elif name == "expansion.synthesize":
            c["synth_points"] += 1
        elif name == "expansion.synthesize_many":
            xs = args[1] if len(args) > 1 else kwargs.get("xs")
            d = args[0].params.d
            c["synth_points"] += int(np.size(xs)) // d

    def span(self, name, fn):
        """Wrap fn so that each call records a span called `name`."""
        tracer = self
        counted = name.startswith(("specfun.", "kernels.", "expansion.synthesize"))
        is_kv = name in ("kernels.poisson_kernel", "kernels.poisson_kernel_dt")
        is_op = name in CALLABLE_OPS

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counted:
                tracer._note_call(name, args, kwargs)
            callable_op = is_op and not isinstance(args[0], tracer._expansion_type)
            tracer._kv_depth += is_kv
            tracer._callable_op_depth += callable_op
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
                tracer._kv_depth -= is_kv
                tracer._callable_op_depth -= callable_op
            if callable_op:
                calls, total = tracer.calls, tracer.total
                calls["fractional.callable_op"] = calls.get("fractional.callable_op", 0) + 1
                total["fractional.callable_op"] = (
                    total.get("fractional.callable_op", 0.0)
                    + tracer.span_end[index] - tracer.span_start[index])
            if name == "report.emit_report":
                tracer.counts["report_bytes"] += os.path.getsize(args[1])
            return result

        return traced

    def _quad(self, quad):
        tracer = self

        def traced_quad(func, *args, **kwargs):
            if not tracer.active:
                return quad(func, *args, **kwargs)

            def integrand(*iargs):
                tracer._kv_depth += 1
                tracer._open(KERNEL_VALUE)
                nested_before = tracer.calls.get(QUAD, 0)
                try:
                    return func(*iargs)
                finally:
                    tracer._close()
                    tracer._kv_depth -= 1
                    if tracer.calls.get(QUAD, 0) == nested_before:
                        tracer.counts["kernel_values"] += 1

            tracer._open(QUAD)
            try:
                return quad(integrand, *args, **kwargs)
            finally:
                tracer._close()

        return traced_quad

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer at every binding."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        self._expansion_type = modules["expansion"].LaguerreExpansion
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) \
                        and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (f"{layer}.{attr}", fn)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    name, fn = originals[id(value)]
                    self._patch(mod, attr, self.span(name, fn))
        kernels = modules["kernels"]
        self._patch(kernels, "quad", self._quad(kernels.quad))
        self.active = True

    def _patch(self, mod, attr, value):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        self.active = False
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_self(self, layer):
        prefix = layer + "."
        return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)

    def metrics(self, traced_s, untraced_s):
        """Per-layer metrics as {name: (value, unit)}."""
        c, calls, total, own = self.counts, self.calls, self.total, self.self_time

        def ratio(a, b):
            return a / b if b else 0.0

        def summed(table, names):
            return sum(table.get(n, 0) for n in names)

        op_calls = calls.get("fractional.callable_op", 0)
        out = {
            "specfun.bessel_calls": (c["bessel_calls"], "count"),
            "specfun.bessel_points": (c["bessel_points"], "count"),
            "specfun.bessel_points_per_call": (ratio(c["bessel_points"], c["bessel_calls"]), "count"),
            "specfun.bessel_self_s": (float(summed(own, BESSEL)), "s"),
            "specfun.gauss_laguerre_calls": (calls.get("specfun.gauss_laguerre_rule", 0), "count"),
            "specfun.gauss_laguerre_s": (total.get("specfun.gauss_laguerre_rule", 0.0), "s"),
            "specfun.laguerre_poly_calls": (calls.get("specfun.laguerre_poly", 0), "count"),
            "specfun.laguerre_poly_s": (total.get("specfun.laguerre_poly", 0.0), "s"),
            "kernels.kernel_values": (c["kernel_values"], "count"),
            "kernels.bessel_calls_per_value": (ratio(c["bessel_in_kv"], c["kernel_values"]), "count"),
            "kernels.quad_calls": (calls.get(QUAD, 0), "count"),
            "kernels.quad_self_s": (own.get(QUAD, 0.0), "s"),
            "kernels.l1_s": (total.get("kernels.l1_kernel_derivative", 0.0), "s"),
            "kernels.heat_apply_calls": (calls.get("kernels.heat_apply_kernel", 0), "count"),
            "kernels.heat_apply_s": (total.get("kernels.heat_apply_kernel", 0.0), "s"),
            "kernels.poisson_apply_calls": (calls.get("kernels.poisson_apply", 0), "count"),
            "kernels.poisson_apply_self_s": (own.get("kernels.poisson_apply", 0.0), "s"),
            "fractional.callable_op_calls": (op_calls, "count"),
            "fractional.callable_op_s": (total.get("fractional.callable_op", 0.0), "s"),
            "fractional.poisson_calls_per_op": (ratio(c["poisson_in_callable_op"], op_calls), "count"),
            "fractional.expansion_op_calls": (summed(calls, EXPANSION_OPS), "count"),
            "fractional.expansion_op_s": (float(summed(total, EXPANSION_OPS)), "s"),
            "expansion.synth_points": (c["synth_points"], "count"),
            "expansion.synth_s": (float(summed(total, ("expansion.synthesize", "expansion.synthesize_many"))), "s"),
            "expansion.analyze_s": (total.get("expansion.analyze", 0.0), "s"),
            "expansion.spectral_apply_s": (total.get("expansion.spectral_apply", 0.0), "s"),
            "lipschitz.seminorm_calls": (calls.get("lipschitz.lipschitz_seminorm", 0), "count"),
            "report.emit_s": (total.get("report.emit_report", 0.0), "s"),
            "report.parse_s": (total.get("report.parse_report", 0.0), "s"),
            "report.bytes": (c["report_bytes"], "bytes"),
            "harness.scenario_calls": (calls.get("harness.run_scenario", 0), "count"),
            "trace.spans": (len(self.span_start), "count"),
            "trace.overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "fraction"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        out["input.self_s"] = (self.layer_self("input"), "s")
        return out

    def write(self, path, meta):
        """Write every span plus the aggregates as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        head = json.dumps({
            **meta,
            "self_s": {layer: self.layer_self(layer) for layer in (*LAYERS, "input")},
            "calls": self.calls,
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
        }, separators=(",", ":"))
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with open(path, "w") as fh:
            fh.write(head[:-1] + ',"spans":[')
            for i, (n, s, e, p) in enumerate(rows):
                fh.write(f'{"," if i else ""}[{n},{s - t0:.9f},{e - t0:.9f},{p}]')
            fh.write("]}")
