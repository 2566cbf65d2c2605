"""Layer spans for the traced benchmark run, recorded from outside the package.

Every function in a layer module's ``__all__`` is replaced, at every
``besselvisc`` module attribute bound to it, by a wrapper that records a
span (name, parent, start, end, self time).  Calls that a module makes
through its own globals, through another module's attribute or through a
name imported with ``from ... import`` all go through the wrapper.  The
hot functions of ``specfun`` (``bessel_j``, ``bessel_i_ratio`` and their
helpers) and ``zeros.mcmahon_zero`` are called per zero or per quadrature
node, so they are aggregated as a count, a total and a self time instead
of one span per call.  Spans stay in memory and are written once by
:meth:`Tracer.write`.

Self time is a span's duration minus the time covered by its child spans
(aggregated calls included).
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "zeros", "timedomain", "asymptotics", "laplace", "hereditary", "cli")
AGGREGATED = {"gamma", "bessel_i", "bessel_i_ratio", "bessel_j", "bessel_j_deriv", "mcmahon_zero"}
EVALUATORS = {"psi", "phi", "creep_compliance", "relaxation_modulus"}
SHORT_TIME = {"psi_short_time", "phi_short_time"}
PER_LAYER_UNITS = {
    "cli.requests": "count",
    "cli.self_ms_per_request": "ms",
    "timedomain.samples": "count",
    "timedomain.evaluator_calls": "count",
    "timedomain.self_us_per_sample": "us",
    "asymptotics.short_time_samples": "count",
    "zeros.compute_zeros_calls": "count",
    "zeros.zeros_requested": "count",
    "zeros.cold_zeros": "count",
    "zeros.self_s": "s",
    "specfun.bessel_j_calls": "count",
    "specfun.bessel_j_self_s": "s",
    "specfun.bessel_j_calls_per_cold_zero": "calls/zero",
    "specfun.bessel_i_ratio_calls": "count",
    "specfun.bessel_i_ratio_self_s": "s",
    "laplace.inversions": "count",
    "laplace.transform_calls": "count",
    "laplace.self_ms_per_inversion": "ms",
    "hereditary.mode_steps": "count",
    "hereditary.self_ns_per_mode_step": "ns",
    "hereditary.self_s": "s",
    "trace.overhead_s": "s",
}


def _zero_key(args, kwargs) -> tuple[float, int, float]:
    """(order, count, abs_tol) of a compute_zeros call."""
    bound = dict(zip(("order", "count", "abs_tol"), args), **kwargs)
    order = bound["order"]
    return float(getattr(order, "nu", order)), int(bound["count"]), float(bound.get("abs_tol", 1e-11))


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, layer, name, start, end, self_s, info]
        self.aggregates = {name: [0, 0.0, 0.0] for name in AGGREGATED}  # calls, total s, self s
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._seen_zero_keys = set()
        self._installed = []  # (module, attribute, original)

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        import besselvisc  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "besselvisc" or n.startswith("besselvisc.")]
        for layer in LAYERS:
            layer_module = sys.modules[f"besselvisc.{layer}"]
            for name in layer_module.__all__:
                fn = getattr(layer_module, name)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._installed.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def reset(self) -> None:
        """Drop recorded spans and counts; remember zero-table keys seen."""
        self.spans.clear()
        for acc in self.aggregates.values():
            acc[:] = [0, 0.0, 0.0]

    def _wrap(self, layer, name, fn):
        stack = self._stack
        if name in AGGREGATED:
            acc = self.aggregates[name]

            def aggregated(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    acc[0] += 1
                    acc[1] += dt
                    acc[2] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt

            return aggregated

        spans = self.spans

        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1  # aggregated callers never start spans
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append([span_id, parent, layer, name, t0, t1, t1 - t0 - frame[1], (args, kwargs)])

        return span

    # --- reduction -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round counts and self times from the spans recorded so far.

        Zero-table keys met here count as already requested from then on.
        """
        by_id = {s[0]: s for s in self.spans}
        table_of = {s[1]: _zero_key(*s[7]) for s in self.spans if s[3] == "compute_zeros"}
        self_s = {layer: 0.0 for layer in LAYERS}
        count = {}
        samples = short_samples = zeros_requested = cold_zeros = mode_steps = 0
        for span_id, parent, layer, name, _t0, _t1, own, (args, kwargs) in self.spans:
            self_s[layer] += own
            count[name] = count.get(name, 0) + 1
            if name == "sample_curve":
                samples += len(args[2])
            elif name in SHORT_TIME and by_id.get(parent, [None] * 4)[3] == "sample_curve":
                short_samples += 1
            elif name == "compute_zeros":
                key = _zero_key(args, kwargs)
                zeros_requested += key[1]
                if key not in self._seen_zero_keys:
                    self._seen_zero_keys.add(key)
                    cold_zeros += key[1]
            elif name in ("strain_response", "stress_response"):
                history, t_eval = args[1], args[2]
                steps = np.unique(np.concatenate([history.times, np.asarray(t_eval, float)])).size - 1
                mode_steps += steps * (table_of[span_id][1] + 1)  # tabulated modes + tail mode
        for name, (_n, _total, own) in self.aggregates.items():
            self_s["zeros" if name == "mcmahon_zero" else "specfun"] += own
        j_calls, _, j_s = self.aggregates["bessel_j"]
        i_calls, _, i_s = self.aggregates["bessel_i_ratio"]
        requests = count.get("main", 0)
        inversions = count.get("invert_numeric", 0)
        evaluator_calls = sum(count.get(n, 0) for n in EVALUATORS)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        r = float(rounds)
        return {
            "cli.requests": requests / r,
            "cli.self_ms_per_request": ratio(self_s["cli"], requests, 1e3),
            "timedomain.samples": samples / r,
            "timedomain.evaluator_calls": evaluator_calls / r,
            "timedomain.self_us_per_sample": ratio(self_s["timedomain"], samples, 1e6),
            "asymptotics.short_time_samples": short_samples / r,
            "zeros.compute_zeros_calls": count.get("compute_zeros", 0) / r,
            "zeros.zeros_requested": zeros_requested / r,
            "zeros.cold_zeros": cold_zeros / r,
            "zeros.self_s": self_s["zeros"] / r,
            "specfun.bessel_j_calls": j_calls / r,
            "specfun.bessel_j_self_s": j_s / r,
            "specfun.bessel_j_calls_per_cold_zero": ratio(j_calls, cold_zeros),
            "specfun.bessel_i_ratio_calls": i_calls / r,
            "specfun.bessel_i_ratio_self_s": i_s / r,
            "laplace.inversions": inversions / r,
            "laplace.transform_calls": (count.get("psi_tilde", 0) + count.get("phi_tilde", 0)) / r,
            "laplace.self_ms_per_inversion": ratio(self_s["laplace"], inversions, 1e3),
            "hereditary.mode_steps": mode_steps / r,
            "hereditary.self_ns_per_mode_step": ratio(self_s["hereditary"], mode_steps, 1e9),
            "hereditary.self_s": self_s["hereditary"] / r,
        }

    def write(self, path: str) -> None:
        """Write spans (without call arguments) and leaf aggregates as JSON."""
        payload = {
            "columns": ["id", "parent", "layer", "name", "start_s", "end_s", "self_s"],
            "spans": [s[:7] for s in self.spans],
            "aggregates": {name: {"calls": n, "total_s": total, "self_s": own}
                           for name, (n, total, own) in self.aggregates.items()},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
