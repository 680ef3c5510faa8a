"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start, end, parent, calls, busy_s]``: ``parent`` is the
index of the enclosing span (``None`` for a root), ``start``/``end`` are
``time.perf_counter()`` seconds.  Coarse calls (network build, each
``Simulator.run`` chunk, the drain) get one span each through
:meth:`Spans.span`.  Hot calls (``algorithm.candidates``, the traffic and
fault-injector processes) run up to a million times per point, so
:meth:`Spans.timed` folds every call of one name under one parent into a
single span: ``start`` of the first call, ``end`` of the last, ``calls``
the number of calls and ``busy_s`` the summed call time.  For a plain span
``busy_s`` is its duration and ``calls`` is 1.

Garbage-collector pauses are recorded the same way, as ``gc`` spans under
the span that was open when the collector ran, and are left out of the
``busy_s`` of the folded call they interrupted: a full collection of the
simulator's heap takes a third of a second and would otherwise be charged
to whichever hot call happened to allocate the object that triggered it.

A span's self time is its ``busy_s`` minus the ``busy_s`` of its direct
children.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, CALLS, BUSY = range(6)


class Spans:
    """Span recorder; constructing one starts recording GC pauses."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]
        self._folded: dict[tuple, int] = {}
        #: summed collector pause time so far
        self.gc_s = 0.0
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        end = perf_counter()
        self.gc_s += end - self._gc_start
        self._fold("gc", self._gc_start, end, end - self._gc_start)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, perf_counter(), None, self._stack[-1], 1, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[END] = perf_counter()
            rec[BUSY] = rec[END] - rec[START]

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)``, folding the call into a ``name`` span."""
        gc_before = self.gc_s
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._fold(name, start, end, end - start - (self.gc_s - gc_before))

    def wrap(self, name: str, fn):
        """``fn`` with every call folded into a ``name`` span."""
        timed = self.timed
        return lambda *args: timed(name, fn, *args)

    def _fold(self, name: str, start: float, end: float, busy: float) -> None:
        key = (self._stack[-1], name)
        idx = self._folded.get(key)
        if idx is None:
            self._folded[key] = len(self.spans)
            self.spans.append([name, start, end, key[0], 1, busy])
        else:
            rec = self.spans[idx]
            rec[END] = end
            rec[CALLS] += 1
            rec[BUSY] += busy

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_busy = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_busy[rec[PARENT]] += rec[BUSY]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + rec[BUSY] - child_busy[i]
        return out

    def totals(self, name: str, parent: str | None = None) -> tuple[int, float]:
        """``(calls, busy_s)`` summed over every span called ``name`` (whose
        parent span is called ``parent``, when given)."""
        calls = busy = 0
        for rec in self.spans:
            if rec[NAME] == name and (
                parent is None
                or rec[PARENT] is not None and self.spans[rec[PARENT]][NAME] == parent
            ):
                calls += rec[CALLS]
                busy += rec[BUSY]
        return calls, busy

    def to_json(self) -> list[dict]:
        """Spans as records with times relative to the earliest start."""
        t0 = min((rec[START] for rec in self.spans), default=0.0)
        return [
            {
                "id": i,
                "name": rec[NAME],
                "start": rec[START] - t0,
                "end": rec[END] - t0,
                "parent": rec[PARENT],
                "calls": rec[CALLS],
                "busy_s": rec[BUSY],
            }
            for i, rec in enumerate(self.spans)
        ]
