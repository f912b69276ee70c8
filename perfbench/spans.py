"""Spans and counts around sgdecomp's public functions, installed from outside.

The tracer replaces a function under every name a caller resolves it by:
each loaded ``sgdecomp`` module that binds the same function object gets
the wrapper (``stepanov`` imports ``hyper_derivative`` by name, ``cli``
imports ``search_binary``).  Spans record (name, start, end, parent) in
memory; the hot FieldCtx methods get counts only.  ``uninstall`` restores
every original binding.  A name the package no longer defines is listed
in ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute); several attributes may share a span name
SPAN_TARGETS = (
    ("field.build", "sgdecomp.field", "FieldCtx.__init__"),
    ("subsets.sumset", "sgdecomp.subsets", "sumset"),
    ("characters.subgroup", "sgdecomp.characters", "subgroup"),
    ("characters.double_sum", "sgdecomp.characters", "double_char_sum"),
    ("poly.shifted_power", "sgdecomp.poly", "shifted_power"),
    ("poly.hyper_derivative", "sgdecomp.poly", "hyper_derivative"),
    ("stepanov.cert", "sgdecomp.stepanov", "build_certificate"),
    ("stepanov.solve", "sgdecomp.stepanov", "solve_coefficient_system"),
    ("stepanov.grow", "sgdecomp.stepanov", "grow_hypothesis_pair"),
    ("classifier.classify", "sgdecomp.classifier", "classify_pair"),
    ("search.task", "sgdecomp.search", "search_binary"),
    ("search.task", "sgdecomp.search", "search_ternary"),
    ("search.canon", "sgdecomp.search", "canonical_binary_key"),
    ("search.canon", "sgdecomp.search", "canonical_ternary_key"),
    ("search.verify", "sgdecomp.search", "verify_witness"),
)

COUNTED_METHODS = ("add", "sub", "neg", "mul", "translate_bits")
COUNT_TARGET = ("sgdecomp.field", "FieldCtx")


def target_id(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def method_id(method: str) -> str:
    return target_id(COUNT_TARGET[0], f"{COUNT_TARGET[1]}.{method}")


def _resolve(module: str, attr: str):
    obj = sys.modules.get(module)
    if obj is None:
        return None, f"module {module} is not loaded"
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, f"{module}.{attr} is not defined"
    return (owner, obj), None


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self._stack: list[int] = []
        self.counts = {m: 0 for m in COUNTED_METHODS}
        self.fires: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self._restore: list = []

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _spanned(self, name: str, fn, fire_key: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fires = self.fires

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fires[fire_key] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        wrapper.__bench_wrapper__ = True
        return wrapper

    def _counted(self, method: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self_, *args):
            counts[method] += 1
            return fn(self_, *args)
        wrapper.__bench_wrapper__ = True
        return wrapper

    def _patch(self, owner, name, new):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sgdecomp" or n.startswith("sgdecomp."))]
        for name, module, attr in SPAN_TARGETS:
            key = target_id(module, attr)
            found, why = _resolve(module, attr)
            if found is None:
                self.missing[key] = why
                continue
            owner, fn = found
            self.fires.setdefault(key, 0)
            wrapper = self._spanned(name, fn, key)
            if "." in attr:  # a method: patch the class attribute once
                self._patch(owner, attr.rsplit(".", 1)[1], wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, wrapper)
        found, why = _resolve(*COUNT_TARGET)
        cls = found[1] if found else None
        for method in COUNTED_METHODS:
            fn = cls.__dict__.get(method) if cls is not None else None
            if fn is None:
                self.missing[method_id(method)] = why or f"FieldCtx.{method} is not defined"
                continue
            self._patch(cls, method, self._counted(method, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def mark(self) -> tuple[int, dict]:
        """A position to summarise from later."""
        return len(self.spans), dict(self.counts)


def summarise(spans, start: int = 0) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because one thread records them.
    """
    child_time = [0.0] * len(spans)
    out: dict[str, dict] = {}
    for idx in range(start, len(spans)):
        name, t0, t1, parent = spans[idx]
        if parent >= start:
            child_time[parent] += t1 - t0
    for idx in range(start, len(spans)):
        name, t0, t1, _ = spans[idx]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child_time[idx]
    return out


def counts_since(tracer: Tracer, before: dict) -> dict:
    return {m: tracer.counts[m] - before.get(m, 0) for m in tracer.counts}
