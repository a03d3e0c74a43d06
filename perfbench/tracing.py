"""In-memory spans recorded around calls into the program's layers.

The benchmark traces from outside: a span wraps one public call
(``parse_program``, ``cache.store``, ``run_program`` ...) and nothing is
added inside ``src/``.  Spans stay in memory until the run ends and are
then written in Chrome ``trace_event`` form.  A layer's *self time* is
its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Span:
    """One timed call: name, start, end, the span that caused it, job id."""

    __slots__ = ("name", "start", "end", "parent", "job", "lane")

    def __init__(self, name: str, start: float, parent: "Optional[Span]",
                 job: int, lane: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.lane = lane

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._jobs = 0

    def next_job(self) -> int:
        """A fresh identifier shared by the spans of one job."""
        self._jobs += 1
        return self._jobs

    @contextmanager
    def span(self, name: str, job: int, lane: str = "bench") -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, job, lane)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span], job: int, lane: str) -> Span:
        """Record a span whose times were reported rather than observed
        (a farm worker's service time, as the driver saw it)."""
        span = Span(name, start, parent, job, lane)
        span.end = end
        self.spans.append(span)
        return span

    def self_seconds(self) -> list[tuple[Span, float]]:
        """Each span with its self time: its duration minus what its
        direct children cover (never negative: children that ran in
        parallel, like farm jobs under a batch, can cover more)."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                covered[key] = covered.get(key, 0.0) + span.seconds
        return [
            (span, max(span.seconds - covered.get(id(span), 0.0), 0.0))
            for span in self.spans
        ]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def coverage(self) -> float:
        """Share of the top-level spans' time (one per job, or per farm
        round) that their direct children account for."""
        total = sum(s.seconds for s in self.spans if s.parent is None)
        inside = sum(
            s.seconds for s in self.spans
            if s.parent is not None and s.parent.parent is None
        )
        return inside / total if total > 0 else 0.0

    def chrome_trace_json(self) -> str:
        """Chrome ``trace_event`` JSON: complete ("X") events in
        microseconds from the first span, one ``tid`` lane per layer."""
        origin = min((s.start for s in self.spans), default=0.0)
        index = {id(span): n for n, span in enumerate(self.spans)}
        lanes = {
            lane: n
            for n, lane in enumerate(sorted({s.lane for s in self.spans}))
        }
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": n,
             "args": {"name": lane}}
            for lane, n in lanes.items()
        ]
        for n, span in enumerate(self.spans):
            events.append({
                "ph": "X",
                "name": span.name,
                "pid": 1,
                "tid": lanes[span.lane],
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": {
                    "span": n,
                    "parent": index[id(span.parent)]
                    if span.parent is not None else -1,
                    "job": span.job,
                },
            })
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
