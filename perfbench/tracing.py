"""Spans around calls into the program's layers, recorded from outside the package.

`Tracer.install` replaces every public module-level function of the layer
modules, and the methods of `RandomSource`, with a timing wrapper; `uninstall`
puts the originals back.  Package code calls other modules through their
module globals (``qstate.apply(...)``) and same-module functions through its
own globals, so both kinds of call are seen.  Spans are kept in memory and
written out once, at the end of a run.

Not visible from outside, so their time lands in the caller's self time:
class constructors (``StateVector(...)``, ``UnitaryMatrix(...)``,
``DensityMatrix(...)``, ``Bimatrix(...)``, ``GameReport(...)``), methods of
those classes (``GameReport.log``, ``UnitaryMatrix.dagger``,
``StateVector.probabilities``), private helpers (``_resolve_targets``,
``qalgo._order_find_distributions`` and its cache), and names bound with
``from ... import`` (only classes and ``math.gcd`` are bound that way).
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("qstate", "rng", "qalgo", "cgame", "qgames", "density", "verify", "cli")
RNG_METHODS = ("choice", "integer", "uniform")


def _apply_extra(args, kwargs, result):
    return args[0].dim  # amplitudes touched


def _choice_extra(args, kwargs, result):
    return len(args[1])  # self, probs


def _order_find_extra(args, kwargs, result):
    n, m = args[0], args[1]
    return (n, m, result.candidate_den)


EXTRAS = {
    "qstate.apply": _apply_extra,
    "rng.choice": _choice_extra,
    "qalgo.order_find": _order_find_extra,
}
# Peak traced allocation around the call; tracemalloc runs only inside it.
MEMORY_PROBES = {"qalgo.grover_search"}


class Tracer:
    """Holds spans as (name, start_ns, end_ns, parent_index, op_id, extra)."""

    def __init__(self, modules: dict):
        self.modules = {layer: modules[layer] for layer in LAYERS}
        self.spans: list = []
        self.op_kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._wrappers = self._build_wrappers()

    def _targets(self):
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    yield module, name, f"{layer}.{name}", obj
        source = self.modules["rng"].RandomSource
        for name in RNG_METHODS:
            yield source, name, f"rng.{name}", getattr(source, name)

    def _build_wrappers(self):
        return [(owner, attr, fn, self._wrap(span_name, fn))
                for owner, attr, span_name, fn in self._targets()]

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(span_name)
        probe = span_name in MEMORY_PROBES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if probe:
                tracemalloc.start()
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                extra = None
                if probe:
                    extra = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                elif extra_fn is not None and result is not None:
                    extra = extra_fn(args, kwargs, result)
                stack.pop()
                spans[index] = (span_name, t0, t1, parent, tracer._op_id, extra)

        return wrapper

    def install(self) -> None:
        for owner, attr, original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in self._wrappers:
            setattr(owner, attr, original)

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op_id = op_id
        self.op_kinds[op_id] = kind
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._op_t0 = time.perf_counter_ns()

    def end_op(self) -> None:
        t1 = time.perf_counter_ns()
        index = self._stack.pop()
        self.spans[index] = ("op", self._op_t0, t1, -1, self._op_id, self.op_kinds[self._op_id])
        self._op_id = -1

    def dump(self) -> list:
        return [list(s) for s in self.spans]


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, multiplicative_order) -> dict:
    """Per-layer counts, self times and waste ratios, normalised per traced op."""
    own = self_times(spans)
    ops = [s for s in spans if s[0] == "op"]
    n_ops = max(1, len(ops))
    op_ns = sum(s[2] - s[1] for s in ops)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    module_ns = defaultdict(int)
    extras = defaultdict(list)
    op_kind = {s[4]: s[5] for s in ops}
    for s, ns in zip(spans, own):
        name = s[0]
        if name == "op":
            continue
        calls[name] += 1
        self_ns[name] += ns
        module_ns[name.split(".", 1)[0]] += ns
        durations[name].append(s[2] - s[1])
        if s[5] is not None:
            extras[name].append((s[5], s[4], s[2] - s[1]))

    def per_op(x):
        return x / n_ops

    def med(xs):
        xs = sorted(xs)
        return xs[len(xs) // 2] if xs else 0

    apply_amps = sum(e[0] for e in extras["qstate.apply"])
    choice_lens = [e[0] for e in extras["rng.choice"]]
    finds = extras["qalgo.order_find"]
    useful = sum(1 for (n, m, den), _, _ in finds if den == multiplicative_order(m, n))
    first = [ns for _, op, ns in finds if op_kind.get(op) == "first"]
    repeat = [ns for _, op, ns in finds if op_kind.get(op) == "repeat"]
    grover_peaks = [e[0] for e in extras["qalgo.grover_search"]]
    m = {
        "qstate.apply.calls": (per_op(calls["qstate.apply"]), "calls/op"),
        "qstate.apply.self_ms": (per_op(self_ns["qstate.apply"]) / 1e6, "ms/op"),
        "qstate.apply.p50_us": (med(durations["qstate.apply"]) / 1e3, "us"),
        "qstate.apply.ns_per_amp": (
            self_ns["qstate.apply"] / apply_amps if apply_amps else 0.0, "ns/amp"),
        "qstate.apply.mib_computed": (per_op(32 * apply_amps) / 2**20, "MiB/op"),
        "qstate.measure.calls": (per_op(calls["qstate.measure"]), "calls/op"),
        "qstate.measure.self_ms": (per_op(self_ns["qstate.measure"]) / 1e6, "ms/op"),
        "qstate.branch_residual.calls": (per_op(calls["qstate.branch_residual"]), "calls/op"),
        "qstate.branch_residual.self_ms": (
            per_op(self_ns["qstate.branch_residual"]) / 1e6, "ms/op"),
        "qstate.share": (module_ns["qstate"] / op_ns if op_ns else 0.0, "ratio"),
        "rng.choice.calls": (per_op(calls["rng.choice"]), "calls/op"),
        "rng.choice.self_ms": (per_op(self_ns["rng.choice"]) / 1e6, "ms/op"),
        "rng.choice.mean_len": (
            sum(choice_lens) / len(choice_lens) if choice_lens else 0.0, "entries"),
        "qalgo.order_find.first_p50_ms": (med(first) / 1e6, "ms"),
        "qalgo.order_find.repeat_p50_ms": (med(repeat) / 1e6, "ms"),
        "qalgo.order_find.self_ms": (per_op(self_ns["qalgo.order_find"]) / 1e6, "ms/op"),
        "qalgo.order_find.useful_ratio": (useful / len(finds) if finds else 0.0, "ratio"),
        "qalgo.grover_search.calls": (per_op(calls["qalgo.grover_search"]), "calls/op"),
        "qalgo.grover_search.self_ms": (
            per_op(self_ns["qalgo.grover_search"]) / 1e6, "ms/op"),
        "qalgo.grover_search.peak_mib": (max(grover_peaks, default=0) / 2**20, "MiB"),
        "cgame.pareto_analysis.calls": (per_op(calls["cgame.pareto_analysis"]), "calls/op"),
        "cgame.pareto_analysis.self_ms": (
            per_op(self_ns["cgame.pareto_analysis"]) / 1e6, "ms/op"),
        "qgames.ewl_play.calls": (per_op(calls["qgames.ewl_play"]), "calls/op"),
        "density.partial_trace.calls": (per_op(calls["density.partial_trace"]), "calls/op"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (per_op(module_ns[layer]) / 1e6, "ms/op")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}
