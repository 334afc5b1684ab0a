"""In-memory span recorder that wraps vqekit's public functions from outside.

`Tracer.install()` replaces every public function of the vqekit modules at
*every* module attribute that binds it (modules import names directly, so
`vqekit.estimate.sample_group` and `vqekit.simulator.sample_group` are two
bindings of one function), plus a few hot `PauliSum` methods.  Each wrapped
call records one span: name id, start, end and parent span index, kept in
flat arrays until the run ends.  Functions that do too little work to time
(bit arithmetic, counters, bound formulas) get a count-only wrapper.
`Tracer.uninstall()` restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "pauli",
    "fermion",
    "simulator",
    "ansatz",
    "schedule",
    "estimate",
    "optimize",
    "bounds",
    "cli",
    "rng",
)

# Methods worth a span; other methods run inside a wrapped function's span.
SPAN_METHODS = {
    ("pauli", "PauliSum"): ("simplify", "is_hermitian", "to_matrix", "__add__", "__mul__"),
}
# Too cheap to time: counted only, their time stays with the caller's span.
COUNT_METHODS = {("optimize", "Objective"): ("__call__",)}
COUNT_ONLY = {
    "pauli.commutes",
    "pauli.multiply",
    "estimate.update_frequentist",
    "estimate.update_bayesian",
    "estimate.posterior_moments",
    "ansatz.parameter_count",
}
COUNT_ONLY_MODULES = {"bounds", "rng"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager recording a benchmark-side span."""
        return _Span(self, self.name_id(name))

    def _span_wrapper(self, fn, name: str):
        nid = self.name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        mods = {m: importlib.import_module(f"vqekit.{m}") for m in MODULES}
        holders = [sys.modules["vqekit"], *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                counted = short in COUNT_ONLY_MODULES or name in COUNT_ONLY
                wrapped = (
                    self._count_wrapper(obj, name)
                    if counted
                    else self._span_wrapper(obj, name)
                )
                for holder in holders:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._patch(holder, hattr, wrapped)
        for table, make in (
            (SPAN_METHODS, self._span_wrapper),
            (COUNT_METHODS, self._count_wrapper),
        ):
            for (short, cls_name), methods in table.items():
                cls = getattr(mods[short], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapped = make(fn, f"{short}.{cls_name}.{meth}")
                    # `__rmul__ = __mul__` style aliases share the wrapper.
                    for alias, obj in list(vars(cls).items()):
                        if obj is fn:
                            self._patch(cls, alias, wrapped)

    def _patch(self, holder, attr: str, new) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._patches):
            setattr(holder, attr, old)
        self._patches.clear()

    # ---------------------------------------------------------- summary

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans under a root add up to the
        root's duration.
        """
        n = len(self.starts)
        out: dict[str, dict[str, float]] = {}
        if n:
            starts = np.frombuffer(self.starts, dtype=float)
            ends = np.frombuffer(self.ends, dtype=float)
            parents = np.frombuffer(self.parents, dtype=np.int32)
            ids = np.frombuffer(self.name_ids, dtype=np.int32)
            dur = ends - starts
            has_parent = parents >= 0
            child = np.bincount(
                parents[has_parent], weights=dur[has_parent], minlength=n
            )
            self_t = dur - child
            k = len(self.names)
            calls = np.bincount(ids, minlength=k)
            total = np.bincount(ids, weights=dur, minlength=k)
            selfs = np.bincount(ids, weights=self_t, minlength=k)
            for nid, name in enumerate(self.names):
                out[name] = {
                    "calls": int(calls[nid]),
                    "total_s": float(total[nid]),
                    "self_s": float(selfs[nid]),
                }
        for name, c in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["calls"] += c
        return out


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.i = len(t.starts)
        t.name_ids.append(self.nid)
        t.parents.append(t.stack[-1])
        t.ends.append(0.0)
        t.stack.append(self.i)
        t.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.i] = perf_counter()
        t.stack.pop()
        return False
