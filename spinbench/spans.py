"""In-memory span tracer that wraps spinbath's public functions from outside.

Every public function of a layer module is replaced, under every module-level
name that refers to it (`from .chain import check_degeneracy` binds a second
name in the importing module), by a wrapper that records a span
(name, start, end, parent).  Spans are named `<defining module>.<function>`.
`expm` is foreign to the package and is named after the module that looks it
up, so `dynamics.expm` and `analysis.expm` stay apart.

Functions called once per matrix entry are handled separately: the bath
leaves are counted and timed in aggregate, without a span per call, and the
number renderers `export.fmt*` are not wrapped, so their time stays in the
caller's self time (row formatting is part of `cli` and `export.write*`).
The tracer keeps one span stack, so it assumes the traced code runs on one
thread; the workloads run their sweeps with `threads = 1`.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

PACKAGE = "spinbath"
LAYERS = ("config", "chain", "bath", "generator", "dynamics", "analysis", "export", "cli")
FOREIGN = ("expm",)
AGGREGATED = frozenset({"bath.bose_einstein", "bath.spectral_density", "bath.ohmic_spectral_density"})
UNWRAPPED = frozenset({"export.fmt", "export.fmt_complex"})

# Span record fields.
NAME, START, END, PARENT, LEAF_TIME = range(5)


class Tracer:
    """Context manager: installs the wrappers on entry and restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @staticmethod
    def _span_name(module: types.ModuleType, attr: str, obj) -> str | None:
        if not isinstance(obj, types.FunctionType):
            return None
        layer = module.__name__.rsplit(".", 1)[-1]
        if attr in FOREIGN and layer in LAYERS:
            return f"{layer}.{attr}"
        owner = obj.__module__ or ""
        if not owner.startswith(PACKAGE + ".") or obj.__name__.startswith("_"):
            return None
        name = f"{owner.rsplit('.', 1)[-1]}.{obj.__name__}"
        if name.split(".", 1)[0] not in LAYERS or name in UNWRAPPED:
            return None
        return name

    def __enter__(self) -> "Tracer":
        wrappers: dict[tuple[str, int], object] = {}
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                name = self._span_name(module, attr, obj)
                if name is None:
                    continue
                key = (name, id(obj))
                if key not in wrappers:
                    wrap = self._leaf if name in AGGREGATED else self._span
                    wrappers[key] = wrap(name, obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[key])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def _leaf(self, name: str, fn):
        spans, stack, clock, leaves = self.spans, self._stack, time.perf_counter, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            leaves[name][0] += 1
            if self._in_leaf:  # nested leaf: its time stays in the outer leaf
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._in_leaf = False
                leaves[name][1] += elapsed
                if stack:
                    spans[stack[-1]][LEAF_TIME] += elapsed

        return wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans and aggregated leaves cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        (r[END] - r[START]) - _covered(children.get(k, []), r[START], r[END]) - r[LEAF_TIME]
        for k, r in enumerate(spans)
    ]


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls and total self seconds per span name, aggregated leaves included."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table[record[NAME]]
        row["calls"] += 1
        row["self_s"] += own
    for name, (calls, seconds) in tracer.leaves.items():
        table[name]["calls"] += calls
        table[name]["self_s"] += seconds
    return dict(table)


def draw_counts(spans: list[list]) -> tuple[int, int]:
    """(accepted, candidate) chain draws: one nondegeneracy check per candidate."""
    draws = {k for k, r in enumerate(spans) if r[NAME] == "analysis.random_nondegenerate_chain"}
    candidates = sum(1 for r in spans if r[NAME] == "chain.check_degeneracy" and r[PARENT] in draws)
    return len(draws), candidates


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op metrics of a traced run.

    `<span>.calls` and `<span>.self_s` for every span name; `<layer>.self_s`
    summed over a module's spans; `export.write.self_s` over all
    `export.write*` spans; and `analysis.draw_accept_ratio`, accepted over
    candidate chain draws (1 when nothing was drawn, as no draw was wasted).
    """
    table = summarize(tracer)
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = row["calls"] / ops
        metrics[f"{name}.self_s"] = row["self_s"] / ops
    for layer in LAYERS:
        own = [row["self_s"] for name, row in table.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = sum(own) / ops
    writes = [row["self_s"] for name, row in table.items() if name.startswith("export.write")]
    metrics["export.write.self_s"] = sum(writes) / ops
    accepted, candidates = draw_counts(tracer.spans)
    metrics["analysis.draw_accept_ratio"] = accepted / candidates if candidates else 1.0
    return metrics
