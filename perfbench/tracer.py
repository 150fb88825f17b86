"""Span tracer that wraps holonome's layer functions from outside the package.

``install`` replaces every public function of each layer module (and the
public methods and classmethods of the classes it defines) with a wrapper
that records a span, and rebinds the wrapper wherever another holonome
module imported the same function object (``synthesis`` re-binds
``analytic_one_qubit_gate``, ``cli`` re-binds ``phase_invariant_distance``).
No file under ``src/`` is touched; ``uninstall`` restores the originals.

Each span knows its parent span.  Closing a span folds it into per-function
aggregates: call count, total time, self time (duration minus the time its
child spans cover) and the number of calls that exited by an exception.
Aggregating on close keeps memory bounded when a scan opens millions of
spans; the parent links are kept as per-edge call counts.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

LAYERS = (
    "matrix_kernel",
    "spin_model",
    "deformation",
    "holonomy",
    "synthesis",
    "adiabatic",
    "reporting",
    "cli",
)

# Modules whose attributes may hold re-bound layer functions.
MODULES = LAYERS + ("errors",)

ROOT = "job"


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class _Span:
    __slots__ = ("name", "start", "child_s", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.parent = parent


class Tracer:
    """Collects spans in memory; ``enabled`` pauses recording (e.g. during checks)."""

    def __init__(self):
        self.enabled = True
        self.stats: dict[str, FunctionStats] = {}
        self.edges: dict[tuple, int] = {}
        self._current = None
        self._restore = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name):
        span = _Span(name, time.perf_counter(), self._current)
        self._current = span
        return span

    def _close(self, span, failed):
        duration = time.perf_counter() - span.start
        self._current = span.parent
        st = self.stats.get(span.name)
        if st is None:
            st = self.stats[span.name] = FunctionStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - span.child_s
        st.failed += failed
        parent_name = span.parent.name if span.parent is not None else None
        if span.parent is not None:
            span.parent.child_s += duration
        key = (parent_name, span.name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (used for the job root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def reset(self):
        self.stats.clear()
        self.edges.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                tracer._close(span, failed)

        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        modules = {m: importlib.import_module(f"holonome.{m}") for m in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        originals = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if callable(value) and getattr(value, "__module__", None) == mod.__name__:
                    if isinstance(value, type):
                        self._install_class(layer, value)
                    else:
                        wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
                        originals[id(value)] = value
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, value))

    def _install_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(name, value.__func__))
            elif callable(value):
                wrapped = self._wrap(name, value)
            else:
                continue  # properties and constants
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries --------------------------------------------------------
    def layer_totals(self):
        """Per layer: calls, self_s and failed, summed over its functions."""
        out = {layer: FunctionStats() for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                agg = out[layer]
                agg.calls += st.calls
                agg.self_s += st.self_s
                agg.total_s += st.total_s
                agg.failed += st.failed
        return out

    def function(self, name) -> FunctionStats:
        return self.stats.get(name, FunctionStats())
