"""Span tracing of schroflow from outside the package.

``Tracer.install`` wraps every public function and public method of the
package's modules, and every public class constructor, and rebinds each
wrapper under every name the package binds the original to, because
``from .specfun import j_scaled`` gives ``flow`` its own name for it.  A
span is (name, start, end, parent, job, counts); spans stay in memory until
``take``.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

LAYERS = ("specfun", "angular", "oscillator", "quadrature", "flow", "radialfd", "cli")


def _points(args, kwargs):
    r = kwargs.get("r", args[2] if len(args) > 2 else None)
    return {"points": int(np.size(r))}


def _kernel_entries(args, kwargs):
    state = args[0]
    n = len(state.grid)
    return {"entries": n * n * len(state.profiles)}


def _fd_work(args, kwargs):
    schema, T = args[0], args[2]
    steps = int(round(T / schema.dt))
    return {"steps": steps, "cell_steps": steps * schema.M}


def _dim(args, kwargs):
    return {"dim": int(np.shape(args[0])[0])}


# work counted at a span from its arguments
COUNTERS = {
    "specfun.j_scaled": _points,
    "flow.propagate_representation": _kernel_entries,
    "radialfd.evolve_schrodinger": _fd_work,
    "radialfd.evolve_heat": _fd_work,
    "angular.eigensolve": _dim,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, job, counts)
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, own original or None)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            counts = counter(args, kwargs) if counter else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"schroflow.{layer}") for layer in LAYERS}
        owners = list(modules.values()) + [importlib.import_module("schroflow")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for owner in owners:
                        for key, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, key, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch(obj, "__init__",
                                self._wrap(f"{layer}.{attr}", obj.__init__))
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{meth}", fn))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:        # was inherited, e.g. object.__init__
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Hand over the finished spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per-name calls, busy time (outermost spans only), self time and counts.

    Self time is a span's duration minus the durations of its direct
    children; busy time counts a span only if no ancestor has the same name.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            s["busy_s"] += end - start
        for key, value in (counts or {}).items():
            s[key] = s.get(key, 0) + value
    return stats
