"""The per-layer ledger: timings and counts gathered during a traced run.

Timings are kept as samples and reported as medians; counts are summed
(or maxed) over exactly one pass of the workload's distinct job specs, so
they repeat exactly for a given seed whatever the host's speed.
"""

from __future__ import annotations

import statistics
import traceback

from perfbench.tracing import SpanRecorder


class Ledger:
    """Accumulates per-layer samples and renders them as metric values."""

    def __init__(self, declared: list[str]):
        self.declared = list(declared)
        self.times: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        #: Probes that raised: ``"<metric>: <ExceptionType>: <text>"``.
        self.probe_errors: list[str] = []

    def time(self, name: str, seconds: float) -> None:
        self.times.setdefault(name, []).append(seconds)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def highest(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def set(self, name: str, value: float) -> None:
        self.counts[name] = value

    def probe(self, name: str, thunk) -> None:
        """Run a direct probe; a probe that cannot run (an import or a
        call into a layer that has since changed) reports 0 and is listed
        under ``probe_errors`` — layer metrics diagnose, they never gate."""
        try:
            thunk()
        except Exception as error:  # boundary: record and keep measuring
            traceback.print_exc()
            self.probe_errors.append(
                f"{name}: {type(error).__name__}: {error}"
            )

    def harvest(self, spans: SpanRecorder) -> None:
        """Fold spans named after a declared metric into timings: one
        sample per job, the sum of that job's self times in the span."""
        declared = set(self.declared)
        per_job: dict[tuple[str, int], float] = {}
        for span, own in spans.self_seconds():
            if span.name in declared:
                key = (span.name, span.job)
                per_job[key] = per_job.get(key, 0.0) + own
        for (name, _job), seconds in per_job.items():
            self.time(name, seconds)

    def median(self, name: str) -> float:
        samples = self.times.get(name)
        return statistics.median(samples) if samples else 0.0

    def values(self) -> dict[str, float]:
        """Every declared metric: its count, else its median timing,
        else 0 (the workload does not exercise that layer)."""
        out = {}
        for name in self.declared:
            if name in self.counts:
                out[name] = self.counts[name]
            else:
                out[name] = self.median(name)
        return out
