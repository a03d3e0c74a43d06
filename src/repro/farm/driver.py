"""The farm driver: a persistent worker pool behind per-worker channels.

Structure follows the FastFlow exemplar (PAPERS.md) rather than a naive
``multiprocessing.Pool``: the driver and each worker share a dedicated
duplex pipe (single-producer/single-consumer in each direction — no
shared lock-protected queue, no feeder threads), jobs are dispatched to
idle workers, and results stream back as they complete.  Compile,
dispatch and simulate are decoupled stages: the compile stage is
absorbed by the shared on-disk cache plus each worker's warm-program
memo, so on a long-lived pool the steady state is pure simulation.

Dispatch is **sharded by program**: the first worker to run a program
(:func:`~repro.runspec.program_key`) owns that key for the life of
the pool, and later jobs with the same key only ever dispatch to the
owner.  That makes warm mode a guarantee rather than a scheduling
accident — on a repeat batch every job lands on the worker whose memo
already holds its program, so zero compiles and zero translations is
deterministic, not dependent on which worker happened to be idle.
Ownership spreads across the pool as distinct programs arrive (an
unowned key is claimed by whichever idle worker reaches it first) and
migrates to the replacement worker when an owner crashes.  The
corollary — jobs sharing one program serialize on their shard owner —
is exactly the cache-affinity trade the paper's locality scheduling
makes, and the corpus builders seed-vary their workloads to keep
batches spread.

Robustness is structural, not bolted on:

* **crash detection** — a dead worker's pipe raises EOF (and
  ``Process.is_alive`` goes false even when the worker dies while
  idle); the driver records the attempt, respawns the worker and
  retries the job up to ``max_attempts`` times before emitting a
  :class:`~repro.farm.job.JobFailure` with reason ``"crash"``;
* **per-job timeout** — a wedged worker is terminated when the job's
  wall-clock budget expires (reason ``"timeout"``, same bounded
  retry);
* **deterministic errors** — a job that raises (compile error, runtime
  trap) is reported once with reason ``"error"`` and never retried.

The driver can therefore always drain a batch: every job ends as a
:class:`~repro.farm.job.JobResult` or a structured failure, never as a
hung ``run_batch``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Optional

from repro.farm.job import JobFailure, JobResult
from repro.farm.worker import worker_main
from repro.obs.metrics import MetricsHub
from repro.runspec import FarmJob, program_key

#: Bump when the batch-summary JSON layout changes shape.
SUMMARY_SCHEMA_VERSION = 1

#: The ``kind`` discriminator in farm summary files.
SUMMARY_KIND = "repro-farm-summary"


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class BatchSummary:
    """One ``run_batch`` (or serial run), aggregated.

    ``results`` holds a :class:`~repro.farm.job.JobResult` or
    :class:`~repro.farm.job.JobFailure` per job, in job order.  The
    aggregate warmth counters (``compiles``/``translations``/
    ``warm_jobs``) are what the CI farm job asserts on: a warm batch on
    a persistent pool must report ``compiles == 0`` and
    ``translations == 0``.
    """

    jobs: int
    ok: int
    failed: int
    retried: int
    workers: int
    wall_seconds: float
    jobs_per_sec: float
    compiles: int
    cache_hits: int
    translations: int
    warm_jobs: int
    results: list = field(default_factory=list)
    worker_stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[JobFailure]:
        return [r for r in self.results if isinstance(r, JobFailure)]

    def as_dict(self, include_reports: bool = True) -> dict:
        return {
            "jobs": self.jobs,
            "ok": self.ok,
            "failed": self.failed,
            "retried": self.retried,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "translations": self.translations,
            "warm_jobs": self.warm_jobs,
            "worker_stats": self.worker_stats,
            "results": [
                r.as_dict(include_reports) for r in self.results
            ],
            "metrics": self.metrics,
        }


def summarize_batch(
    results: list,
    workers: int,
    wall_seconds: float,
    retried: int,
    hub: Optional[MetricsHub] = None,
    worker_busy: Optional[dict] = None,
) -> BatchSummary:
    """Fold per-job outcomes into a :class:`BatchSummary`.

    Shared by the pooled driver and the serial runner so both produce
    the same summary shape.  Worker utilization is busy wall over batch
    wall; the warmth gauges land in ``hub`` (the farm metrics lane) as
    well as in the summary fields.
    """
    ok = [r for r in results if isinstance(r, JobResult)]
    failed = [r for r in results if isinstance(r, JobFailure)]
    compiles = sum(r.compiles for r in ok)
    cache_hits = sum(r.cache_hits for r in ok)
    translations = sum(r.translations for r in ok)
    warm_jobs = sum(1 for r in ok if r.warm)
    worker_busy = worker_busy or {}
    worker_stats = {}
    for worker_id in sorted(worker_busy):
        busy = worker_busy[worker_id]
        jobs_done = sum(1 for r in ok if r.worker == worker_id)
        worker_stats[worker_id] = {
            "jobs": jobs_done,
            "busy_seconds": round(busy, 6),
            "utilization": round(busy / wall_seconds, 4)
            if wall_seconds > 0 else 0.0,
        }
        if hub is not None:
            hub.gauge_set("farm.worker_jobs", jobs_done, worker_id)
            hub.gauge_set(
                "farm.worker_busy_ms", int(busy * 1000), worker_id
            )
    if hub is not None:
        hub.gauge_set("farm.compiles", compiles)
        hub.gauge_set("farm.warm_jobs", warm_jobs)
    return BatchSummary(
        jobs=len(results),
        ok=len(ok),
        failed=len(failed),
        retried=retried,
        workers=workers,
        wall_seconds=wall_seconds,
        jobs_per_sec=len(results) / wall_seconds if wall_seconds > 0 else 0.0,
        compiles=compiles,
        cache_hits=cache_hits,
        translations=translations,
        warm_jobs=warm_jobs,
        results=list(results),
        worker_stats=worker_stats,
        metrics=hub.as_dict() if hub is not None else {},
    )


def summary_json(summaries: list[BatchSummary], workers: int,
                 include_reports: bool = False) -> str:
    """Canonical JSON for one farm run (one or more batches)."""
    obj = {
        "kind": SUMMARY_KIND,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "workers": workers,
        "batches": [s.as_dict(include_reports) for s in summaries],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class _Assignment:
    """What one busy worker is doing right now."""

    __slots__ = ("index", "attempt", "started", "deadline")

    def __init__(self, index: int, attempt: int, started: float,
                 deadline: Optional[float]):
        self.index = index
        self.attempt = attempt
        self.started = started
        self.deadline = deadline


class _Worker:
    """One pooled process plus its driver-side pipe end."""

    __slots__ = ("worker_id", "process", "conn", "busy_seconds")

    def __init__(self, worker_id: str, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.busy_seconds = 0.0


class Farm:
    """A persistent pool of simulation workers.

    Args:
        workers: Pool size.
        cache_dir: Shared content-addressed compile-cache directory
            (:mod:`repro.compiler.cache`); workers also keep in-process
            warm-program memos, so a long-lived farm stops compiling
            after its first pass over a job mix.
        timeout: Default per-job wall-clock budget in seconds
            (:attr:`FarmJob.timeout` overrides; 0 disables).
        max_attempts: Tries per job for crash/timeout failures
            (deterministic job errors are never retried).
        start_method: ``multiprocessing`` start method; default
            ``"fork"`` where available (fast worker spawn), else
            ``"spawn"``.

    Use as a context manager, or call :meth:`close` explicitly; workers
    persist across :meth:`run_batch` calls — that persistence *is* warm
    mode.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = 300.0,
        max_attempts: int = 2,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._pool: list[_Worker] = []
        self._busy: dict[str, _Assignment] = {}
        # Program-key shard map: program_key -> owning worker_id.  The
        # pool's warm state lives in worker memos, so ownership persists
        # exactly as long as the pool does.
        self._owner: dict[str, str] = {}
        self._spawned = 0
        self._started = False

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Farm":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Spawn the pool (idempotent; ``run_batch`` calls it lazily)."""
        if self._started:
            return
        for _ in range(self.workers):
            self._pool.append(self._spawn())
        self._started = True

    def _spawn(self) -> _Worker:
        worker_id = f"w{self._spawned}"
        self._spawned += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.cache_dir, child_conn),
            name=f"repro-farm-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child holds its own copy
        return _Worker(worker_id, process, parent_conn)

    def close(self) -> None:
        """Shut the pool down (graceful sentinel, then terminate)."""
        for worker in self._pool:
            if worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._pool:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._pool.clear()
        self._busy.clear()
        self._owner.clear()
        self._started = False

    # ------------------------------------------------------------ batches

    def run_batch(
        self,
        jobs: list[FarmJob],
        on_result: Optional[Callable] = None,
    ) -> BatchSummary:
        """Execute ``jobs`` across the pool; always drains.

        ``on_result`` is called with each :class:`JobResult` /
        :class:`JobFailure` as it lands (streaming consumers — the CLI's
        JSONL writer — hook in here).  Results in the returned summary
        are in job order regardless of completion order.
        """
        self.start()
        hub = MetricsHub()
        for worker in self._pool:
            worker.busy_seconds = 0.0
        started = time.perf_counter()
        keys = [program_key(job) for job in jobs]
        pending: deque[tuple[int, int]] = deque(
            (index, 1) for index in range(len(jobs))
        )
        outcomes: list = [None] * len(jobs)
        remaining = len(jobs)
        retried = 0

        def settle(index: int, outcome) -> None:
            nonlocal remaining
            outcomes[index] = outcome
            remaining -= 1
            if on_result is not None:
                on_result(outcome)

        def handle_message(worker: _Worker, message) -> None:
            kind, worker_id, index, payload = message
            assignment = self._busy.get(worker.worker_id)
            if assignment is None or assignment.index != index:
                return  # stale reply from a recycled assignment
            del self._busy[worker.worker_id]
            elapsed = time.perf_counter() - assignment.started
            worker.busy_seconds += elapsed
            if kind == "ok":
                hub.observe(
                    "farm.job_wall_ms", None,
                    int(payload["wall_seconds"] * 1000),
                )
                settle(
                    index,
                    JobResult(
                        index=index,
                        job=jobs[index],
                        worker=worker_id,
                        attempts=assignment.attempt,
                        **payload,
                    ),
                )
            else:  # deterministic job error: no retry
                settle(
                    index,
                    JobFailure(
                        index=index,
                        job=jobs[index],
                        reason="error",
                        detail=payload,
                        worker=worker_id,
                        attempts=assignment.attempt,
                    ),
                )

        def handle_death(worker: _Worker, reason: str, detail: str) -> None:
            nonlocal retried
            # A worker can die *after* sending its result; drain the
            # pipe first so a completed job is never re-run or failed.
            try:
                while worker.conn.poll(0):
                    handle_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            assignment = self._busy.pop(worker.worker_id, None)
            if assignment is not None:
                worker.busy_seconds += (
                    time.perf_counter() - assignment.started
                )
                if assignment.attempt < self.max_attempts:
                    retried += 1
                    pending.appendleft(
                        (assignment.index, assignment.attempt + 1)
                    )
                else:
                    settle(
                        assignment.index,
                        JobFailure(
                            index=assignment.index,
                            job=jobs[assignment.index],
                            reason=reason,
                            detail=detail,
                            worker=worker.worker_id,
                            attempts=assignment.attempt,
                        ),
                    )
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5)
            replacement = self._spawn()
            # The replacement inherits the dead worker's shard (it will
            # recompile each owned program once, through the shared
            # cache, on first contact).
            for key, owner in self._owner.items():
                if owner == worker.worker_id:
                    self._owner[key] = replacement.worker_id
            self._pool[self._pool.index(worker)] = replacement

        while remaining:
            # Reap workers that died while idle or whose death the pipe
            # has not surfaced yet.
            for worker in list(self._pool):
                if not worker.process.is_alive():
                    exitcode = worker.process.exitcode
                    handle_death(
                        worker, "crash",
                        f"worker exited with code {exitcode}",
                    )
            # Dispatch to every idle worker, sharded by program key: an
            # idle worker takes the oldest pending job whose program it
            # owns or that nobody owns yet (claiming it).  Jobs whose
            # owner is busy wait for it — that wait is what buys the
            # zero-compile warm guarantee.
            busy_ids = set(self._busy)
            pool_ids = {worker.worker_id for worker in self._pool}
            for worker in self._pool:
                if not pending:
                    break
                if worker.worker_id in busy_ids:
                    continue
                picked = None
                for slot, (index, _attempt) in enumerate(pending):
                    owner = self._owner.get(keys[index])
                    if (
                        owner is None
                        or owner == worker.worker_id
                        or owner not in pool_ids
                    ):
                        picked = slot
                        break
                if picked is None:
                    continue  # everything pending belongs to busy shards
                index, attempt = pending[picked]
                del pending[picked]
                job = jobs[index]
                hub.observe("farm.queue_occupancy", None, len(pending))
                budget = (
                    job.timeout if job.timeout is not None else self.timeout
                )
                now = time.perf_counter()
                deadline = now + budget if budget else None
                try:
                    worker.conn.send((index, attempt, job))
                except (BrokenPipeError, OSError):
                    pending.appendleft((index, attempt))
                    continue  # death reaped on the next loop turn
                self._owner[keys[index]] = worker.worker_id
                self._busy[worker.worker_id] = _Assignment(
                    index, attempt, now, deadline
                )
            # Wait for any worker pipe to become readable (a result, or
            # EOF from a dying worker).
            conns = {
                worker.conn: worker
                for worker in self._pool
                if not worker.conn.closed
            }
            for conn in connection_wait(list(conns), timeout=0.05):
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    handle_death(worker, "crash", "worker pipe closed")
                    continue
                handle_message(worker, message)
            # Enforce per-job deadlines on whoever is still busy.
            now = time.perf_counter()
            for worker in list(self._pool):
                assignment = self._busy.get(worker.worker_id)
                if (
                    assignment is not None
                    and assignment.deadline is not None
                    and now > assignment.deadline
                ):
                    handle_death(
                        worker, "timeout",
                        f"job exceeded its "
                        f"{assignment.deadline - assignment.started:.3g}s "
                        f"budget and the worker was killed",
                    )

        wall = time.perf_counter() - started
        return summarize_batch(
            outcomes,
            workers=self.workers,
            wall_seconds=wall,
            retried=retried,
            hub=hub,
            worker_busy={
                worker.worker_id: worker.busy_seconds
                for worker in self._pool
            },
        )
