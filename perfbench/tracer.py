"""In-memory span tracer that wraps library functions from outside the library.

A trace point names a function the way its caller looks it up, as
``"module:attribute.path"``; ``"module:LIST[name]"`` names the entry of a
module-level list of functions whose ``__name__`` is ``name``.  Wrapping
replaces that one binding with a recording wrapper and ``restore`` puts
the original object back.  A trace point that no longer resolves (the
module, attribute or list entry was renamed or removed) is recorded as
missing and skipped, so the run continues and its metrics read zero.

Spans are ``[name, op, parent, start, end]`` lists kept in memory:
``op`` is the index of the benchmark operation the span belongs to, or
``None`` during set-up, and ``parent`` is the index of the enclosing
span.  Everything runs on one thread, so the open spans form a stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_LIST_ENTRY = re.compile(r"^(\w+)\[(\w+)\]$")


@dataclass(frozen=True)
class TracePoint:
    """One binding to wrap.

    ``span`` is the span name, a function of the call's positional
    arguments returning one, or ``None`` for a point that only counts.
    ``count`` maps (args, result) to increments of named counters.
    ``count_arg0`` names a counter of calls to the callable passed as the
    first positional argument (a model, loss or target function).
    """

    target: str
    span: str | Callable[[tuple], str] | None = None
    count: Callable[[tuple, object], dict] | None = None
    count_arg0: str | None = None


def _resolve(target: str):
    """(owner, key, original) for a trace point; key is an attribute or list index."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    last = parts[-1]
    entry = _LIST_ENTRY.match(last)
    if entry:
        seq = getattr(owner, entry.group(1))
        for index, fn in enumerate(seq):
            if getattr(fn, "__name__", None) == entry.group(2):
                return seq, index, fn
        raise AttributeError(f"{target}: no entry named {entry.group(2)!r}")
    # getattr_static returns the raw class-dict entry, so restoring a
    # method puts back exactly the object that was there.
    return owner, last, inspect.getattr_static(owner, last)


def _get(owner, key):
    return owner[key] if isinstance(key, int) else inspect.getattr_static(owner, key)


def _set(owner, key, value):
    if isinstance(key, int):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records spans and counters for the functions named by trace points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int | None], float] = defaultdict(float)
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, object, object]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, self.clock(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][4] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")

    def add(self, name: str, amount: float = 1.0):
        self.counts[(name, self.op)] += amount

    def run_op(self, op: int, name: str, call: Callable[[], object]):
        """Run one benchmark operation as a root span tagged with ``op``."""
        self.op = op
        index = self.begin(name)
        try:
            return call()
        finally:
            self.end(index)
            self.op = None

    # -- wrapping ------------------------------------------------------

    def _counted(self, fn: Callable, counter: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(counter)
            return fn(*args, **kwargs)
        return counted

    def _wrapper(self, point: TracePoint, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if point.count_arg0 is not None and args:
                args = (tracer._counted(args[0], point.count_arg0),) + args[1:]
            index = None
            if point.span is not None:
                name = point.span if isinstance(point.span, str) else point.span(args)
                index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.end(index)
            if point.count is not None:
                for counter, amount in point.count(args, result).items():
                    tracer.add(counter, amount)
            return result

        traced.__perfbench_original__ = original
        return traced

    def install(self, points: list[TracePoint]):
        """Wrap every resolvable trace point; record the rest as missing."""
        self.missing = []
        for point in points:
            try:
                owner, key, original = _resolve(point.target)
            except (ImportError, AttributeError) as exc:
                self.missing.append(f"{point.target}: {exc}")
                continue
            if hasattr(original, "__perfbench_original__"):
                raise RuntimeError(f"{point.target} is already wrapped")
            _set(owner, key, self._wrapper(point, original))
            self._wrapped.append((owner, key, original))

    def restore(self):
        """Put every original object back, most recent wrap first."""
        for owner, key, original in reversed(self._wrapped):
            _set(owner, key, original)

    def restored(self) -> bool:
        """True when every binding ever wrapped holds its original object again."""
        return all(_get(owner, key) is original for owner, key, original in self._wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice and self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append((span[3], span[4]))
    out = []
    for index, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


@dataclass
class Totals:
    """Per-name sums over a trace, split into set-up and operation phases."""

    setup_self: dict[str, float]
    op_self: dict[str, float]
    setup_calls: dict[str, int]
    op_calls: dict[str, int]
    durations: dict[str, list[float]]
    setup_counts: dict[str, float]
    op_counts: dict[str, float]


def totals(tracer: Tracer) -> Totals:
    setup_self: dict[str, float] = defaultdict(float)
    op_self: dict[str, float] = defaultdict(float)
    setup_calls: dict[str, int] = defaultdict(int)
    op_calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, op = span[0], span[1]
        if op is None:
            setup_self[name] += own
            setup_calls[name] += 1
        else:
            op_self[name] += own
            op_calls[name] += 1
        durations[name].append(span[4] - span[3])
    setup_counts: dict[str, float] = defaultdict(float)
    op_counts: dict[str, float] = defaultdict(float)
    for (name, op), amount in tracer.counts.items():
        (setup_counts if op is None else op_counts)[name] += amount
    return Totals(setup_self, op_self, setup_calls, op_calls, durations,
                  setup_counts, op_counts)
