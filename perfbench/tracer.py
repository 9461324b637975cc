"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the traced polygrad
modules (plus a few layer-boundary methods) with a wrapper that records
one span per call: name, start, end and the enclosing span. Every module
attribute bound to a traced function is rebound, so a function imported
into several modules is traced wherever it is called; ``restore`` puts
the originals back. Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("data", "train", "tape", "polynet", "baselines", "metrics", "checkpoint", "harness", "cli")
# Methods that mark a layer boundary: (module, class, method).
TRACED_METHODS = (("tape", "Tape", "backward"), ("data", "PreprocessStats", "transform"))


def _annotate_backward(args, kwargs):
    """Number of tape nodes the backward sweep walks."""
    return len(getattr(args[0], "nodes", ()))


def _annotate_cell(args, kwargs):
    """The model id of a train_cell(ds, plan, model_id, fraction, seed) call."""
    return kwargs.get("model_id", args[2] if len(args) > 2 else None)


ANNOTATORS = {"tape.Tape.backward": _annotate_backward, "harness.train_cell": _annotate_cell}


def public_functions(module) -> list[tuple[str, object]]:
    """Module-level functions the module exports (its __all__, else no leading underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    def __init__(self, package: str = "polygrad"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, annotate=None):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        # Local bindings keep the per-call cost, and so the trace overhead, low.
        names, starts, ends, parents, stack, tags = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
            self._stack,
            self.tags,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if annotate is not None:
                tags[idx] = annotate(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the traced functions everywhere they are bound."""
        modules = {}
        for short in TRACED_MODULES:
            try:
                modules[short] = importlib.import_module(f"{self.package}.{short}")
            except ModuleNotFoundError:  # a module merged away leaves its layers at 0
                continue
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for fname, fn in public_functions(mod):
                if id(fn) not in wrappers:
                    span = f"{short}.{fname}"
                    wrappers[id(fn)] = (fn, self._wrap(span, fn, ANNOTATORS.get(span)))
        # Rebind every attribute of every loaded package module that holds an original.
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                span = f"{short}.{cls_name}.{meth}"
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(span, fn, ANNOTATORS.get(span)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        dur = self.durations()
        own = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for idx, name_id in enumerate(self.span_name):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["incl_s"] += dur[idx]
            entry["self_s"] += own[idx]
        return dict(out)

    def root_seconds(self) -> float:
        dur = self.durations()
        return sum(d for d, p in zip(dur, self.span_parent) if p < 0)

    def name_id(self, name: str) -> int | None:
        return self._name_ids.get(name)

    def ancestor_tag(self, idx: int, name: str):
        """Tag of the nearest enclosing span called ``name``, or None."""
        target = self.name_id(name)
        idx = self.span_parent[idx]
        while idx >= 0:
            if self.span_name[idx] == target:
                return self.tags.get(idx)
            idx = self.span_parent[idx]
        return None

    def spans(self) -> dict:
        """All spans as parallel arrays, for writing out."""
        return {
            "names": self.names,
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "tags": {str(k): v for k, v in self.tags.items()},
        }
