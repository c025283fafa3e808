"""Spans and counts recorded from outside the program.

The tracer replaces a public function at the name the program calls it by
(``tlcausal.pipeline.score_hypotheses``, not ``tlcausal.causal``'s own
binding) with a wrapper that records a span or bumps a counter, and puts the
original back on ``restore``.  Spans stay in memory; the benchmark reduces
them to per-layer metrics when a round ends.

The tracer is strict: a name that no longer exists, or a span that never
fires on a workload that should reach it, raises :class:`TracerError`
instead of letting the metric read 0.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional


class TracerError(RuntimeError):
    """A wrapped name is missing or an expected span never fired."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    op: str                # the benchmark operation the span belongs to


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Counter = Counter()  # (op, counter name) -> calls
        self._stack: List[int] = []
        self._undo: list = []
        self.op = ""

    # -- recording -----------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = Span(name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, timed: bool = True):
        """Replace ``owner.attr`` by a recording wrapper.  Untimed wrappers
        only count calls; use them for functions called per formula."""
        original = getattr(owner, attr, None)
        if not callable(original):
            raise TracerError(
                f"cannot trace {name}: {getattr(owner, '__name__', owner)}."
                f"{attr} is missing")
        if timed:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self.run(name, original, *args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls[(self.op, name)] += 1
                return original(*args, **kwargs)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()
        self.calls.clear()

    # -- reduction -----------------------------------------------------------

    def total(self, name: str, op: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and s.op == op)

    def self_time(self, name: str, op: str) -> float:
        """Span durations minus the parts covered by their direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return sum(s.end - s.start - child[i]
                   for i, s in enumerate(self.spans)
                   if s.name == name and s.op == op)

    def count(self, name: str, op: str) -> int:
        """Calls of a span or a counted name within one operation."""
        return (sum(1 for s in self.spans if s.name == name and s.op == op)
                + self.calls[(op, name)])

    def children_total(self, name: str, op: str) -> float:
        ids = {i for i, s in enumerate(self.spans)
               if s.name == name and s.op == op}
        return sum(s.end - s.start for s in self.spans if s.parent in ids)

    def require(self, expected, workload: str):
        """Fail loudly if an expected (span or counter, op) pair never fired."""
        missing = [f"{name} in {op}" for name, op in expected
                   if self.count(name, op) == 0]
        if missing:
            raise TracerError(f"workload {workload}: traced names never "
                              f"fired: {', '.join(missing)}")
