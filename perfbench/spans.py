"""In-memory span tracer installed around robustprune's public functions.

The tracer lives entirely in the benchmark: it replaces every public
function of the traced modules with a timing wrapper and rebinds every
``robustprune`` module that imported the function by name (``from .x import
f``), so a call through any alias records a span. Nothing under ``src/``
knows about it.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
span that was open when it started (-1 for a root). Tensor operations are
recorded twice: the forward call as ``tensor.<op>`` and, when
``tensor.backward`` replays the tape, each backward rule as
``tensor.<op>.bwd`` (the rule closure is wrapped as it is recorded).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

PACKAGE = "robustprune"

# The modules whose public functions are wrapped, in the order the layers
# sit from the outside in.
TRACED_MODULES = ("pipeline", "strategies", "checkpoint", "data", "pruning", "optim",
                  "adversary", "network", "tensor")

# Public names that are context-manager factories or pure helpers: wrapping
# them would time the creation of a context object, not work.
SKIP = {"tensor.scoped_tape", "tensor.no_grad", "tensor.input_grads_only",
        "tensor.tape_length", "tensor.forward_op"}

# Methods wrapped on their class; every other traced callable is a module
# function. ``Dataset.batches`` is a generator, so its wrapper times each
# ``next`` (the time a stage waits for a batch) instead of the call.
METHODS = (("network", "Network", "forward"), ("data", "Dataset", "batches"))

BATCH_WAIT = "data.batches.next"
STAGE_PREFIX = "bench."  # spans the benchmark opens around each stage


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue  # imported from elsewhere; wrapped where it is defined
        yield name, value


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self._current_op: list[str | None] = [None]
        # op name -> Counter of input-shape signatures seen by the forward wrapper
        self.shapes: dict[str, Counter] = {}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def _wrap_op(self, op, fn):
        """Forward wrapper for a tensor op: records input shapes and tags ``_record``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        current, shapes = self._current_op, self.shapes.setdefault(op, Counter())
        name = f"tensor.{op}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shapes[_signature(args, kwargs)] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            current[0] = op
            try:
                return fn(*args, **kwargs)
            finally:
                current[0] = None
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def _wrap_record(self, record):
        spans, stack, clock, current = self.spans, self._stack, time.perf_counter, self._current_op

        def traced_record(output, inputs, rule):
            op = current[0]
            if op is not None:
                name = f"tensor.{op}.bwd"
                inner = rule

                def rule(g):
                    idx = len(spans)
                    spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                    stack.append(idx)
                    try:
                        return inner(g)
                    finally:
                        spans[idx][2] = clock()
                        stack.pop()

            return record(output, inputs, rule)

        return traced_record

    def _wrap_batches(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append([BATCH_WAIT, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[idx][2] = clock()
                    stack.pop()
                yield item

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (stages, set-up, checks)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {n: sys.modules[f"{PACKAGE}.{n}"] for n in TRACED_MODULES}
        replace: dict[int, object] = {}
        for modname, mod in mods.items():
            for name, fn in _public_functions(mod):
                qual = f"{modname}.{name}"
                if qual in SKIP:
                    continue
                if modname == "tensor" and name != "backward":
                    wrapped = self._wrap_op(name, fn)
                else:
                    wrapped = self._wrap(qual, fn)
                replace[id(fn)] = wrapped
                self._originals[id(fn)] = qual
        # rebind every alias in every loaded module of the package
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patch(mod, attr, replace[id(value)])
        tensor = mods["tensor"]
        self._patch(tensor, "_record", self._wrap_record(tensor._record))
        for modname, cls_name, meth in METHODS:
            cls = getattr(mods[modname], cls_name)
            fn = vars(cls)[meth]
            self._originals[id(fn)] = f"{modname}.{cls_name}.{meth}"
            wrapped = (self._wrap_batches(fn) if meth == "batches"
                       else self._wrap(f"{modname}.{meth}", fn))
            self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def missed_bindings(self) -> list[str]:
        """Module globals and class attributes that still hold an unwrapped original.

        A binding missed here would let calls bypass the tracer without any
        error, so the benchmark counts a non-empty result as a failed check.
        """
        missed = []
        for modname, mod in sys.modules.items():
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in vars(mod).items():
                if id(value) in self._originals:
                    missed.append(f"{modname}.{attr} -> {self._originals[id(value)]}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in self._originals:
                            missed.append(f"{modname}.{attr}.{cattr}")
        return sorted(set(missed))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.spans)


def _signature(args, kwargs):
    """(argument shapes, or the value itself for non-arrays; sorted keyword items)."""
    parts = tuple(tuple(a.shape) if hasattr(a, "shape") else a for a in args)
    return parts, tuple(sorted(kwargs.items()))


class SpanTable:
    """Column view of a span list with self time and the enclosing stage per span.

    A span's stage is the ``bench.<stage>`` span it runs under ("" outside
    any); self time is its duration minus that of its direct children.
    """

    def __init__(self, spans: list[list]):
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        self._by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            self._by_name.setdefault(name, []).append(i)
        # parents precede children, so one forward pass resolves the stage
        self._stage_ids: dict[str, int] = {"": 0}
        stage = np.zeros(n, dtype=np.int64)
        for i, name in enumerate(self.names):
            if name.startswith(STAGE_PREFIX):
                key = name[len(STAGE_PREFIX):]
                stage[i] = self._stage_ids.setdefault(key, len(self._stage_ids))
            elif self.parent[i] >= 0:
                stage[i] = stage[self.parent[i]]
        self.stage = stage

    def select(self, name: str, stage: str | None = None) -> np.ndarray:
        idx = np.array(self._by_name.get(name, []), dtype=np.int64)
        if stage is None:
            return idx
        return idx[self.stage[idx] == self._stage_ids.get(stage, -1)]

    def count(self, name: str, stage: str | None = None) -> int:
        return int(self.select(name, stage).size)

    def total(self, name: str, stage: str | None = None) -> float:
        return float(self.dur[self.select(name, stage)].sum())

    def self_total(self, name: str, stage: str | None = None) -> float:
        return float(self.self_time[self.select(name, stage)].sum())

    def total_under(self, name: str, parent_name: str) -> float:
        """Summed duration of ``name`` spans whose direct parent is a ``parent_name`` span."""
        idx = self.select(name)
        parents = self.parent[idx]
        keep = [p >= 0 and self.names[p] == parent_name for p in parents]
        return float(self.dur[idx[np.array(keep, dtype=bool)]].sum()) if idx.size else 0.0

    def mean_ms(self, name: str) -> float:
        """Mean duration per span in ms; 0 when the span never ran."""
        idx = self.select(name)
        return float(self.dur[idx].mean() * 1e3) if idx.size else 0.0

    def children_of(self, idx: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.isin(self.parent, idx))
