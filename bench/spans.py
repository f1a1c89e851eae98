"""In-memory span tracer that wraps frik's public functions where they are looked up.

``Tracer.install`` replaces every public function defined in a frik module,
in every frik module namespace that holds it and in the ``frik`` package
namespace, by a wrapper that records one span: name, start, end and parent
span. A span's name is ``<defining module>.<function>@<module that looked it
up>``, so ``robot.chain_frames@solver`` counts the chain walks of solver
iterations apart from those of ``robot.geometric_jacobian``. Public methods
of frik classes are wrapped on the class and carry the site ``method``.

Spans are kept in flat arrays until the run ends. ``Tracer.stats`` turns
them into calls, inclusive time and self time per name; a span's self time
is its duration minus the durations of its direct child spans, which never
overlap because the traced code runs in one thread.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array
from typing import Callable

import numpy as np

LAYERS = ("liegroup", "robot", "solver", "toolpath", "analysis", "config", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extracted: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, extract: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``extract(result)`` is kept per call if given."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        sink = self.extracted.setdefault(name.partition("@")[0], []) if extract else None

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if sink is not None:
                sink.append(extract(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, extract: dict[str, Callable] | None = None) -> None:
        """Wrap every public frik function and method; ``extract`` maps
        ``module.function`` to a function of its return value to keep."""
        extract = extract or {}
        modules = {layer: importlib.import_module(f"frik.{layer}") for layer in LAYERS}
        sites = dict(modules, frik=importlib.import_module("frik"))
        for site, module in sites.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"frik.{home}" or home not in modules:
                    continue
                key = f"{home}.{obj.__name__}"
                self._patch(module, attr, self.wrap(f"{key}@{site}", obj, extract.get(key)))
        for layer, module in modules.items():
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._patch(cls, attr, self.wrap(f"{layer}.{attr}@method", obj))

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self.start)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name (site included): calls, inclusive and self seconds."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = {n: i for i, n in enumerate(self.names)}
        if parent_name not in ids or child_name not in ids:
            return 0
        is_child = (names == ids[child_name]) & (parent >= 0)
        return int((names[parent[is_child]] == ids[parent_name]).sum())


def by_function(stats: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Fold per-site span statistics into per-function totals."""
    out: dict[str, dict[str, float]] = {}
    for name, s in stats.items():
        acc = out.setdefault(name.partition("@")[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += s[key]
    return out


def wrapper_cost_s(batch: int = 20000, repeats: int = 7) -> float:
    """Median time one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(batch):
            noop()
        t1 = clock()
        for _ in range(batch):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / batch)
    return max(statistics.median(costs), 0.0)
