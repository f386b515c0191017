"""Spans and counters around the package's public functions, from outside.

Modules import functions by name, so a wrapper must replace every module's
own binding of the function, not only the defining one: ``reduction`` calls
``classify_leaf`` and ``cli`` calls nearly every layer through names of its
own.  A span records its duration and adds it to its parent span's child
time, so self time = duration - time of child spans.  Numbers are kept per
input group (the input an operation works on) and summed in memory; they
are written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Span name -> (module, function) pairs it covers.  A span's layer is the
# first dotted part of its name.
SPANS = {
    "atlas.parse": [("atlas", "parse_atlas"), ("atlas", "validate")],
    "atlas.canonical_form": [("atlas", "canonical_form")],
    "atlas.isomorphic": [("atlas", "isomorphic")],
    "symmetry.enumerate": [("symmetry", "enumerate_automorphisms")],
    "symmetry.kernel": [("symmetry", "leaf_action_kernel")],
    "symmetry.leaf_model_count": [("symmetry", "leaf_model_automorphism_count")],
    "reduction.reduce": [("reduction", "reduce_atlas"), ("reduction", "reduce_component")],
    "leafspace.build": [("leafspace", "build_leaf_space")],
    "leafspace.hcl": [("leafspace", "hcl_point")],
    "dualgraph.build": [("dualgraph", "build_dual_graph")],
    "selfcheck": [("selfcheck", "selfcheck")],
    "cli": [("cli", "main")],
}

# Counted, not timed, because they are called thousands of times per
# operation; their time stays in the calling span's self time.
COUNTERS = {
    "atlas.relabelled": ("atlas", "relabelled"),
    "atlas.witness": ("atlas", "is_valid_witness"),
    "reduction.regular_seams": ("reduction", "regular_seams"),
    "leafspace.classify": ("leafspace", "classify_leaf"),
}

LAYERS = ("atlas", "leafspace", "reduction", "symmetry", "dualgraph", "selfcheck", "cli")


def _merges(args, result) -> int:
    # A proper outcome keeps its reduced strips; an exceptional one (no
    # atlas) has merged everything into one strip first.
    reduced = getattr(result, "atlas", None)
    return len(args[0].strips) - (len(reduced.strips) if reduced is not None else 1)


class Tracer:
    """Installs wrappers on the loaded ``stripes`` modules and sums what they
    see into ``self_s`` (seconds) and ``counts``, keyed by (group, name)."""

    def __init__(self):
        self.group = "setup"  # or "prepare", or the input an operation works on
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, function in targets:
                self._wrap(module, function, lambda fn, n=name, f=function: self._span(n, f, fn))
        for name, (module, function) in COUNTERS.items():
            self._wrap(module, function, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, module: str, function: str, make) -> None:
        home = sys.modules.get(f"stripes.{module}")
        original = getattr(home, function, None)
        if original is None:
            self.absent.append(f"{module}.{function}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "stripes" and not mod_name.startswith("stripes."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._replaced.append((mod, attr, original))

    def _span(self, name: str, function: str, fn):
        layer = name.split(".")[0]
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[(self.group, f"{layer}.errors")] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[(self.group, name)] += elapsed - children
                counts[(self.group, f"{name}.calls")] += 1
            if function == "enumerate_automorphisms":
                counts[(self.group, "symmetry.group_order")] += len(result)
            elif function == "reduce_component":
                counts[(self.group, "reduction.merges")] += _merges(args, result)
            return result

        return span

    def _counter(self, name: str, fn):
        layer = name.split(".")[0]
        counts = self.counts

        def counter(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[(self.group, f"{layer}.errors")] += 1
                raise
            counts[(self.group, f"{name}.calls")] += 1
            if result is True:
                counts[(self.group, f"{name}.hits")] += 1
            return result

        return counter

    def numbers(self, group: str | None = None, scale: float = 1.0) -> dict[str, float]:
        """Raw per-name totals for one group (every input group when None),
        times ``scale``; self times in milliseconds."""

        def wanted(g: str) -> bool:
            return g == group or (group is None and g not in ("setup", "prepare"))

        out: dict[str, float] = defaultdict(float)
        for (g, name), seconds in self.self_s.items():
            if wanted(g):
                out[f"{name}.self_ms"] += 1000.0 * seconds * scale
        for (g, name), count in self.counts.items():
            if wanted(g):
                out[name] += count * scale
        return dict(out)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics: one traced set-up plus one pass over the corpus
    (the traced passes averaged).  A hit rate with no candidates reads 0."""
    raw = defaultdict(float, tracer.numbers("setup"))
    for name, value in tracer.numbers(None, 1.0 / passes).items():
        raw[name] += value
    metrics = {f"{name}.self_ms": raw[f"{name}.self_ms"] for name in SPANS}
    metrics["atlas.parse.calls"] = raw["atlas.parse.calls"]
    metrics["atlas.relabelled.calls"] = raw["atlas.relabelled.calls"]
    metrics["atlas.witness.candidates"] = raw["atlas.witness.calls"]
    metrics["atlas.witness.hit_rate"] = (
        raw["atlas.witness.hits"] / raw["atlas.witness.calls"] if raw["atlas.witness.calls"] else 0.0
    )
    metrics["symmetry.group_order"] = raw["symmetry.group_order"]
    metrics["reduction.merges"] = raw["reduction.merges"]
    metrics["reduction.regular_seams.calls"] = raw["reduction.regular_seams.calls"]
    metrics["leafspace.classify.calls"] = raw["leafspace.classify.calls"]
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = raw[f"{layer}.errors"]
    return metrics
