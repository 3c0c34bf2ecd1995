"""In-memory span recorder for the benchmark's traced runs (stdlib only).

A span is (id, name, parent id, start, end), with times in seconds from
the recorder's creation.  Spans nest: the parent is whichever span was
open when the new one started.  Counts are plain named totals recorded at
the same call boundaries.  A disabled recorder hands out one shared no-op
context, so the untraced run pays nothing but a method call per boundary.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.sid = rec._next_id
        rec._next_id += 1
        self.parent = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.sid)
        self.start = time.perf_counter() - rec.t0
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.rec
        end = time.perf_counter() - rec.t0
        rec._stack.pop()
        rec.spans.append((self.sid, self.name, self.parent, self.start, end))
        return False


class Recorder:
    def __init__(self, enabled):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans = []   # closed spans, in closing order
        self.counts = {}
        self._stack = []
        self._next_id = 0

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name, k=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k

    def maximum(self, name, value):
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, value), value)

    def as_json(self):
        return [{"id": sid, "name": name, "parent": parent,
                 "start": start, "end": end}
                for sid, name, parent, start, end in
                sorted(self.spans)]


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children.

    ``spans`` are (id, name, parent, start, end) tuples.  Children of one
    parent never overlap (the traced run is single-threaded), so the part
    of the parent they cover is the sum of their durations.
    """
    child_time = {}
    for _sid, _name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _name, _parent, start, end in spans}


def totals_by_name(spans):
    """Summed self time and the longest single duration, per span name."""
    selfs = self_times(spans)
    total, longest = {}, {}
    for sid, name, _parent, start, end in spans:
        total[name] = total.get(name, 0.0) + selfs[sid]
        longest[name] = max(longest.get(name, 0.0), end - start)
    return total, longest


def per_span_cost(samples=20000):
    """Measured cost of recording one empty span, in seconds."""
    rec = Recorder(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with rec.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
