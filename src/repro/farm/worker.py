"""Farm worker: the worker-process loop and the serial baseline.

Both deployment shapes run jobs through
:func:`repro.runspec.execute_job` — :func:`run_jobs_serial` inline (the
baseline the determinism tests and the CI farm job diff against),
:func:`worker_main` inside a pooled worker process — so a farm run
cannot drift from a serial run.

Each worker holds the two warmth layers ``execute_job`` takes: its
in-process warm-program memo, and a handle on the shared on-disk
compile cache (``cache_dir``) that survives pool restarts.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Optional

from repro.farm.job import JobResult
from repro.obs.metrics import MetricsHub
from repro.runspec import FarmJob, execute_job


def worker_main(worker_id: str, cache_dir: Optional[str], conn) -> None:
    """The worker-process loop: recv job, execute, send result.

    The duplex pipe ``conn`` is the worker's only channel: a message is
    ``(index, attempt, job)``; ``None`` is the shutdown sentinel.  Every
    reply carries the worker id and job index so the driver can match
    results to assignments.  Unexpected exceptions are reported as
    ``("err", ...)`` — deterministic job failures, never retried — while
    a hard crash simply drops the pipe, which the driver observes as
    EOF.
    """
    from repro.compiler.cache import cache_at

    # A forked worker inherits the driver's whole heap, none of it its
    # garbage: keep full collections (tens of ms each) from walking it.
    gc.freeze()
    cache = cache_at(cache_dir) if cache_dir else None
    memo: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, _attempt, job = message
        try:
            payload = execute_job(job, cache=cache, memo=memo)
        except Exception as exc:  # deterministic: report, don't retry
            try:
                conn.send(
                    ("err", worker_id, index,
                     f"{type(exc).__name__}: {exc}")
                )
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send(("ok", worker_id, index, payload))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


def run_jobs_serial(
    jobs: list[FarmJob],
    cache_dir: Optional[str] = None,
    on_result: Optional[Callable] = None,
):
    """Execute ``jobs`` serially in-process: the farm's reference shape.

    Returns the same :class:`~repro.farm.driver.BatchSummary` a
    :class:`~repro.farm.driver.Farm` produces (``workers`` 0, worker id
    ``"serial"``), with per-job reports byte-identical to the pooled
    run.  Fault directives are honoured — a ``crash`` job takes the
    whole process down — so serial baselines should use fault-free
    batches.
    """
    from repro.compiler.cache import cache_at
    from repro.farm.driver import BatchSummary, summarize_batch

    cache = cache_at(cache_dir) if cache_dir else None
    memo: dict = {}
    hub = MetricsHub()
    started = time.perf_counter()
    results = []
    for index, job in enumerate(jobs):
        payload = execute_job(job, cache=cache, memo=memo)
        result = JobResult(
            index=index, job=job, worker="serial", attempts=1, **payload
        )
        hub.observe(
            "farm.job_wall_ms", None, int(payload["wall_seconds"] * 1000)
        )
        results.append(result)
        if on_result is not None:
            on_result(result)
    wall = time.perf_counter() - started
    return summarize_batch(
        results, workers=0, wall_seconds=wall, retried=0, hub=hub,
        worker_busy={"serial": wall},
    )
