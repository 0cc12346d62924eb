"""Per-layer spans and counters, taken from outside the library.

A traced pass replaces public functions of ``threecolor`` by timing
wrappers in every module namespace that holds them (``bounds.extract``,
``transition.count_with_boundary``, ``laminar.region_partition``, ...),
runs the workload, and puts the originals back.  The library itself is
not edited, so untraced passes run the plain code.

A layer's self time is the time inside its spans minus the time inside
the spans they contain.  A layer whose functions no longer exist in the
library is skipped, so its metrics are absent from the report instead
of failing the run; a layer that exists but is not called reports 0.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps

# layer -> (defining module, public functions timed as that layer)
SPANS = {
    "coloring.count": ("coloring", ("count_3_colorings_detailed",)),
    "coloring.boundary": ("coloring", ("count_with_boundary",)),
    "laminar.extract": ("laminar", ("extract",)),
    "laminar.decompose": ("laminar", ("dilworth_decompose",)),
    "plane_graph.enumerate_cycles": ("plane_graph", ("enumerate_cycles",)),
    "plane_graph.region_partition": ("plane_graph", ("region_partition",)),
    "plane_graph.identify_neighbors": ("plane_graph", ("identify_neighbors",)),
    "plane_graph.subgraph": ("plane_graph", ("annulus_subgraph",
                                             "interior_subgraph",
                                             "exterior_subgraph")),
    "plane_graph.load": ("plane_graph", ("load_plane_graph",)),
    "transition.matrix": ("transition", ("transition_matrix",)),
    "transition.compose": ("transition", ("compose",)),
    "transition.classify": ("transition", ("classify",)),
    "transition.product_bound": ("transition", ("verify_product_bound",)),
    "cli.sample": ("cli", ("random_matrix_chain",)),
    "bounds.verify": ("bounds", ("verify",)),
    "bounds.main_bound": ("bounds", ("meets_main_bound",)),
}

# Calls counted, not timed, and only in the one namespace named: the
# sampler's acceptance test, whose time stays in cli.sample's self time.
COUNTERS = {"cli.is_doubling": ("cli", "is_doubling")}

PACKAGE = "threecolor"


class LayerStats:
    __slots__ = ("calls", "self_s", "nodes", "zeros", "doubling")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.nodes = 0
        self.zeros = 0
        self.doubling = 0


def _count_result(stats: LayerStats, result) -> None:
    stats.nodes += result.nodes
    stats.zeros += result.count == 0


def _sample_result(stats: LayerStats, result) -> None:
    _mats, kinds = result
    stats.doubling += sum(1 for k in kinds if k == "doubling")


_ON_RESULT = {
    "coloring.count": _count_result,
    "coloring.boundary": _count_result,
    "cli.sample": _sample_result,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, int] = {}
        self.covered_s = 0.0        # time inside outermost spans
        self._stack: list[float] = []  # child time of each open span

    def _span(self, layer: str, fn):
        stats = self.layers[layer]
        on_result = _ON_RESULT.get(layer)
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stats.calls += 1
                stats.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.covered_s += dur
            if on_result is not None:
                on_result(stats, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        self.counters[name] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block."""
        modules = _package_modules()
        patched = []   # (namespace, attribute, original)
        for layer, (mod, names) in SPANS.items():
            owner = sys.modules.get(f"{PACKAGE}.{mod}")
            originals = [getattr(owner, n, None) for n in names]
            if owner is None or all(f is None for f in originals):
                continue
            self.layers[layer] = LayerStats()
            for f in originals:
                if f is None:
                    continue
                wrapper = self._span(layer, f)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is f:
                            patched.append((m, attr, f))
                            setattr(m, attr, wrapper)
        for name, (mod, attr) in COUNTERS.items():
            owner = sys.modules.get(f"{PACKAGE}.{mod}")
            f = getattr(owner, attr, None)
            if f is not None:
                patched.append((owner, attr, f))
                setattr(owner, attr, self._counter(name, f))
        try:
            yield self
        finally:
            for m, attr, f in reversed(patched):
                setattr(m, attr, f)

    def metrics(self) -> dict:
        """Per-layer figures of this pass, keyed by metric name."""
        out = {}
        for layer, s in self.layers.items():
            out[f"{layer}.calls"] = s.calls
            out[f"{layer}.self_s"] = s.self_s
            if layer in ("coloring.count", "coloring.boundary"):
                out[f"{layer}.nodes"] = s.nodes
            if layer == "coloring.boundary":
                out[f"{layer}.zero_ratio"] = s.zeros / s.calls if s.calls else 0.0
            if layer == "cli.sample" and "cli.is_doubling" in self.counters:
                tests = self.counters["cli.is_doubling"]
                out["cli.sample.doubling_accept_ratio"] = (
                    s.doubling / tests if tests else 0.0)
        return out
