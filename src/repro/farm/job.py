"""Per-job outcome records of a farm batch.

The job spec itself (:class:`~repro.runspec.FarmJob`) lives with the
execute path in :mod:`repro.runspec`; this module holds what the farm
wraps around a finished — or failed — job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runspec import FarmJob


@dataclass
class JobResult:
    """A completed job: its canonical report plus the farm envelope.

    ``report`` is the :class:`~repro.obs.report.RunReport` dict with
    ``wall_seconds`` fixed at 0 — byte-identical to a serial in-process
    run of the same job.  Everything host- or placement-dependent
    (worker id, attempts, wall clock, cache accounting) lives here in
    the envelope, never in the report.
    """

    index: int
    job: FarmJob
    report: dict
    output: list
    worker: str
    attempts: int
    wall_seconds: float
    compiles: int
    cache_hits: int
    translations: int
    warm: bool

    status = "ok"

    def as_dict(self, include_report: bool = True) -> dict:
        out = {
            "index": self.index,
            "status": self.status,
            **self.job.identity(),
            "worker": self.worker,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 6),
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "translations": self.translations,
            "warm": self.warm,
            "simulated_cycles": self.report.get("simulated_cycles", 0),
        }
        if include_report:
            out["report"] = self.report
        return out


@dataclass
class JobFailure:
    """A job that did not produce a report.

    ``reason`` is ``"crash"`` (the worker died), ``"timeout"`` (the
    worker exceeded the job's wall-clock budget and was killed) or
    ``"error"`` (the job itself raised — compile error, runtime trap —
    which is deterministic and therefore never retried).  ``attempts``
    counts every try, so a crash retried twice records ``attempts=2``.
    """

    index: int
    job: FarmJob
    reason: str
    detail: str
    worker: str
    attempts: int

    status = "failed"

    def as_dict(self, include_report: bool = True) -> dict:
        return {
            "index": self.index,
            "status": self.status,
            **self.job.identity(),
            "worker": self.worker,
            "attempts": self.attempts,
            "reason": self.reason,
            "detail": self.detail,
        }
