"""Spans recorded around the benchmark's own calls into byztrim.

A span is (name, start, end, parent, op_id).  Spans are kept in memory and
written out once, when the run ends.  Nothing here reaches inside the
library: every span wraps a call the benchmark itself makes, so the layer
boundaries are the modules' public functions.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Records one span per wrapped call; nesting follows the call stack."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int | None, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op_id)

    def call(self, name, fn, *args, **kwargs):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, parent, name, start)

    @contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)


def self_times(spans: list[tuple], first: int = 0, last: int | None = None) -> dict[str, dict]:
    """Per span name: call count, total time and self time (total minus the
    part covered by child spans), over spans[first:last]."""
    last = len(spans) if last is None else last
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx in range(first, last):
        name, start, end, _, _ = spans[idx]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return out
