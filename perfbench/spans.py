"""Spans recorded from the benchmark's own code around each call into a
layer of bindcat.  Nothing inside the package is instrumented.

A span has a name (the stem of its per-layer metric), start and end on
the monotonic clock, the index of its parent span, the workload-run id
it belongs to, and optional counts.  Spans stay in memory until the
worker prints its result.
"""

from __future__ import annotations

import contextlib
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: dict[str, float] = {}


class Aggregate:
    """Total time and call count of a function called too often to give
    each call its own span; recorded as one child of the enclosing span."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, *args):
        t0 = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0
            self.calls += 1


class Tracer:
    """Records nested spans for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # (parent index, name, Aggregate)
        self.aggregates: list[tuple[int, str, Aggregate]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def aggregate(self, name: str, fn):
        """Wrap fn so its calls are summed under the current span."""
        agg = Aggregate(fn)
        self.aggregates.append((self._stack[-1], name, agg))
        return agg

    def records(self) -> list[dict]:
        """Every span and aggregate, with self time: duration minus the
        time covered by direct children (children never overlap, since
        the workload is a single thread calling one layer at a time)."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        for parent, _, agg in self.aggregates:
            child_time[parent] += agg.seconds
        out = []
        for i, sp in enumerate(self.spans):
            dur = sp.end - sp.start
            out.append({"id": i, "run": self.run_id, "name": sp.name,
                        "parent": sp.parent, "start": sp.start, "end": sp.end,
                        "seconds": dur, "self_seconds": dur - child_time[i],
                        "counts": dict(sp.counts)})
        for parent, name, agg in self.aggregates:
            out.append({"id": None, "run": self.run_id, "name": name,
                        "parent": parent, "aggregate": True,
                        "seconds": agg.seconds, "self_seconds": agg.seconds,
                        "counts": {"calls": agg.calls}})
        return out


class _NullSpan:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[str, float] = {}


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield _NullSpan()

    def aggregate(self, name: str, fn):
        return fn
