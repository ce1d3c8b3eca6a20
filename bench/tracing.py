"""Spans around calls into the library's public functions, recorded from
outside the library.

``Tracer.install`` replaces every public function of the traced layers with a
wrapper in every ``growthcodes`` module namespace that refers to it, so calls
made inside the library (``growth_table`` calling ``family_params``) nest under
their caller. Spans stay in memory and are written once, at exit. ``field``,
``linalg`` and ``_engine`` are not wrapped: their time shows up as self time of
the traced caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_LAYERS = ("seeds", "construct", "code", "reedmuller", "growth")
LAYERS = TRACED_LAYERS + ("cli",)


class Tracer:
    """Span recorder. A span is (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the public functions of the traced layers."""
        targets = {}
        for layer in TRACED_LAYERS:
            module = sys.modules[f"growthcodes.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == module.__name__:
                    targets[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "growthcodes" and not name.startswith("growthcodes."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def dump(self, path, provenance: dict) -> None:
        """Write the spans as JSON lines after a provenance header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": provenance}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def per_call_cost(samples: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / samples)


def summarize(spans, first: int = 0):
    """Aggregate spans[first:] by function name and by layer.

    Returns (by_name, by_layer, by_kind_name):
    * by_name[name] = {"calls", "busy_s", "self_s"}, where busy counts only
      spans not nested inside a span of the same name;
    * by_layer[layer] = {"busy_s", "self_s"}, busy counting spans not nested
      inside a span of the same layer, self subtracting direct children;
    * by_kind_name[(op kind, name)] = [busy_s, calls], for rates split by
      the kind of op that made the call. Op spans are named ``op:<kind>``.
    """
    spans = spans[first:]
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= first:
            child_time[parent - first] += end - start

    def ancestors(index):
        parent = spans[index][3]
        while parent >= first:
            yield spans[parent - first]
            parent = spans[parent - first][3]

    by_name = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    by_kind_name = defaultdict(lambda: [0.0, 0])
    for index, (name, start, end, parent, _) in enumerate(spans):
        if name.startswith("op:"):
            continue
        layer = name.split(".", 1)[0]
        duration = end - start
        own = duration - child_time[index]
        lineage = list(ancestors(index))
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own
        by_layer[layer]["self_s"] += own
        if all(a[0] != name for a in lineage):
            entry["busy_s"] += duration
            kind = next((a[0][3:] for a in lineage if a[0].startswith("op:")), "")
            by_kind_name[(kind, name)][0] += duration
            by_kind_name[(kind, name)][1] += 1
        if all(a[0].split(".", 1)[0] != layer for a in lineage):
            by_layer[layer]["busy_s"] += duration
    return by_name, by_layer, by_kind_name
