"""In-process span tracing around the program's layer functions.

Spans live in memory as ``[name, parent_index, start, end]`` and are summed
only after the traced work ends. A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.amounts: dict[str, float] = {}  # per-name work counted from arguments
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           self.clock(), None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable,
             amount: Callable[..., float] | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``amount(*args, **kw)``
        adds to ``self.amounts[name]``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if amount is not None:
                self.amounts[name] = self.amounts.get(name, 0) + amount(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for idx, (_name, _parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed self time and summed duration."""
    out: dict[str, dict[str, float]] = {}
    for (name, _parent, start, end), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
    return out


def patch_layers(tracer: Tracer, package: str, layers: tuple[str, ...],
                 amounts: dict[str, Callable] | None = None) -> list[tuple]:
    """Wrap every public function defined in ``package.<layer>``.

    The wrapper replaces the function in every loaded module of the package
    that holds it, so ``from .cluster import agglomerate`` in another module
    is traced too. Returns ``(module, attribute, original)`` triples for
    :func:`unpatch`.
    """
    amounts = amounts or {}
    wrappers: dict[int, Callable] = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, amounts.get(name))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
                patched.append((module, attr, obj))
    return patched


def unpatch(patched: list[tuple]) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a plain call."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)
