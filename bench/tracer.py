"""Spans around calls into adderlab's public functions, from outside it.

``Tracer.install`` replaces each traced function at every module-level
lookup site (for example ``simulate.topo_order``, ``analyze.topo_order``,
``netlist.topo_order`` and ``adderlab.topo_order`` all name one function),
so nested calls made inside adderlab are seen too. ``restore`` puts the
originals back. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function, work counter). The counter turns a call's arguments
# and result into units of work for the layer's rate metric.
TRACED = (
    ("generate", "compose", "gates"),
    ("netlist", "validate", None),
    ("netlist", "topo_order", None),
    ("netio", "to_text", None),
    ("netio", "from_text", "bytes"),
    ("simulate", "random_vectors", "vectors"),
    ("simulate", "run_vectors", None),
    ("simulate", "verify_random", None),
    ("simulate", "verify_exhaustive_netlist", None),
    ("simulate", "collect_toggles", "gate_evals"),
    ("simulate", "evaluate", None),
    ("simulate", "dump_trace", None),
    ("analyze", "analyze_design", None),
    ("analyze", "critical_path", None),
    ("analyze", "power", None),
    ("analyze", "area", None),
    ("analyze", "compare", None),
)

# Per-layer rates: metric name -> (layer, work unit).
RATES = {
    "simulate.random_vectors.vectors_per_s": ("simulate.random_vectors", "vectors"),
    "simulate.collect_toggles.gate_evals_per_s": ("simulate.collect_toggles", "gate_evals"),
    "netio.from_text.bytes_per_s": ("netio.from_text", "bytes"),
    "generate.compose.gates_per_s": ("generate.compose", "gates"),
}


def _work(unit: str, bound: inspect.BoundArguments, result) -> int:
    args = bound.arguments
    if unit == "gates":
        return len(result.gates)
    if unit == "bytes":
        return len(args["text"])
    if unit == "vectors":
        return args["count"]
    return len(args["nl"].gates) * len(args["vectors"])


class Tracer:
    """Records (layer, start, end, parent index, work) spans for one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, unit: str | None):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # placeholder keeps parents before children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, 0)
            if unit is not None:
                spans[idx] = (layer, start, end, parent, _work(unit, sig.bind(*args, **kwargs), result))
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for modname, fname, unit in TRACED:
            home = sys.modules.get(f"{package.__name__}.{modname}")
            fn = getattr(home, fname, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{modname}.{fname}", fn, unit)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Self time, call count and work per layer.

    A span's self time is its duration minus its direct children's
    durations; calls are synchronous, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {f"{m}.{f}": {"self_s": 0.0, "calls": 0, "work": 0} for m, f, _ in TRACED}
    for i, (name, start, end, parent, work) in enumerate(spans):
        s = stats[name]
        s["self_s"] += end - start - child[i]
        s["calls"] += 1
        s["work"] += work
    return stats


def per_layer_metrics(spans, wall_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``overhead_ratio`` is that pass's time over untraced passes' time.
    """
    stats = layer_stats(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer, s in stats.items():
        out[f"{layer}.self_s"] = (s["self_s"], "s")
        out[f"{layer}.calls"] = (s["calls"], "count")
    for name, (layer, unit) in RATES.items():
        s = stats[layer]
        out[name] = (s["work"] / s["self_s"] if s["self_s"] > 0 else 0.0, f"{unit}/s")
    timed = sum(s["self_s"] for s in stats.values())
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.untimed_s"] = (wall_s - timed, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
