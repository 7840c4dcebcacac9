"""In-memory spans and counts recorded around calls into the engine's layers.

A span has a name, start, end, parent span and the id of the job it belongs
to. Spans stay in memory until ``report()`` turns them into a JSON-ready dict
with a per-layer self-time table: a span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and counts; one ``job()`` block gives one trace id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[dict] = []
        self._trace_id: int | None = None

    @contextmanager
    def job(self, name: str):
        """Root span of one job; every span opened inside shares its id."""
        self._trace_id = next(self._ids)
        try:
            with self.span(name) as root:
                yield root
        finally:
            self._trace_id = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "trace_id": self._trace_id if self._trace_id is not None else next(self._ids),
            "span_id": next(self._ids),
            "parent": parent["span_id"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def count(self, name: str, value: float, span: dict | None = None) -> None:
        """Record a count at ``span``'s boundary (default: the open span)."""
        cur = span or (self._stack[-1] if self._stack else None)
        self.counts.append(
            {
                "trace_id": cur["trace_id"] if cur else None,
                "span_id": cur["span_id"] if cur else None,
                "name": name,
                "value": value,
            }
        )

    def self_times(self, trace_id: int) -> dict[str, float]:
        """Summed self time per span name within one trace."""
        spans = [s for s in self.spans if s["trace_id"] == trace_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in spans:
            dur = s["end"] - s["start"]
            own = max(0.0, dur - child_time.get(s["span_id"], 0.0))
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def report(self) -> dict:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = sorted(self.spans, key=lambda s: s["start"])
        trace_ids = sorted({s["trace_id"] for s in spans})
        return {
            "spans": [
                {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in spans
            ],
            "counts": self.counts,
            "self_time_s": {str(t): self.self_times(t) for t in trace_ids},
        }


class NullTracer(Tracer):
    """Tracing off: the same calls, nothing recorded."""

    @contextmanager
    def job(self, name: str):
        yield {"attrs": {}}

    @contextmanager
    def span(self, name: str, **attrs):
        yield {"attrs": {}}

    def count(self, name: str, value: float, span: dict | None = None) -> None:
        pass
