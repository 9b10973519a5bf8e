"""Span recording at the boundaries where one cloudsched module calls another.

Spans are recorded only from the benchmark's side: a Tracer swaps a module
attribute (a function as bound in the calling module, or a class method)
for a wrapper that records (name, start, end, parent, work) and restores the
original afterwards. Wrapping the binding in the calling module is what
catches calls made inside the package, because each module looks its
imports up in its own globals at call time.

Spans stay in memory until the run ends; a layer's self time is its span
time minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects nested spans; one tracer per run, single-threaded."""

    def __init__(self):
        # Each span is [name, start, end, parent_index, work].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, work: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = work
        self._stack.pop()

    def wrap(self, fn, name: str, work=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index, work(args) if work is not None else 0)

        return traced

    @contextmanager
    def installed(self, bindings):
        """Patch every (owner, attribute, span name, work fn) for the block."""
        saved = []
        try:
            for owner, attr, name, work in bindings:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_stats(spans: list[list], first: int, last: int) -> dict:
    """Per-name totals over spans[first:last], which must hold whole trees.

    Returns {name: {"calls", "s" (self time), "incl_s", "work"}} plus, per
    name, how many of its spans had a parent of each name ("parents").
    """
    child_time = defaultdict(float)
    for i in range(first, last):
        name, t0, t1, parent, _ = spans[i]
        if parent >= first:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i in range(first, last):
        name, t0, t1, parent, work = spans[i]
        entry = out.setdefault(
            name, {"calls": 0, "s": 0.0, "incl_s": 0.0, "work": 0, "parents": defaultdict(int)}
        )
        entry["calls"] += 1
        entry["incl_s"] += t1 - t0
        entry["s"] += (t1 - t0) - child_time[i]
        entry["work"] += work
        if parent >= first:
            entry["parents"][spans[parent][0]] += 1
    return out
