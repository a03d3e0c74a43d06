"""The farm driver: a persistent worker pool behind per-worker channels.

Structure follows the FastFlow exemplar (PAPERS.md) rather than a naive
``multiprocessing.Pool``: the driver and each worker share a dedicated
duplex pipe (single-producer/single-consumer in each direction — no
shared lock-protected queue, no feeder threads), and dispatch is
streamed: a worker holds :data:`IN_FLIGHT` jobs, the one it runs and
the next, already in its pipe, so it never waits a round trip for work.
Results stream back as they complete; per result the driver does one
poll (one ``select.poll`` set, rebuilt only when the pool changes), one
receive and one scan of the pending queue.  Compile, dispatch and
simulate are decoupled stages: the compile stage is absorbed by the
shared on-disk cache plus each worker's warm-program memo, so on a
long-lived pool the steady state is pure simulation.

Dispatch is **sharded by program**: the first worker to run a program
(:func:`~repro.runspec.program_key`) owns that key for the life of
the pool, and later jobs with the same key only ever dispatch to the
owner.  That makes warm mode a guarantee rather than a scheduling
accident — on a repeat batch every job lands on the worker whose memo
already holds its program, so zero compiles and zero translations is
deterministic, not dependent on which worker happened to be free.
Claims are **owned-first**: a worker with a free slot takes its oldest
pending job whose program it owns, and claims an unowned program only
when it owns nothing pending.  Ownership spreads across the pool as
distinct programs arrive and passes to the replacement worker when an
owner dies.  The corollary — jobs sharing one program serialize on
their shard owner — is exactly the cache-affinity trade the paper's
locality scheduling makes, and the corpus builders seed-vary their
workloads to keep batches spread.

Robustness is structural, not bolted on.  Only the head of a worker's
queue runs, so only it is charged an attempt or a deadline (its budget
starts when it reaches the head); jobs queued behind it go back to the
front of the pending queue, in order, uncharged:

* **crash detection** — a dead worker's pipe raises EOF (a poll that
  times out also reaps workers that died while idle), and a reply that
  is not a result for the head job counts the same; the driver records
  the attempt, respawns the worker and retries the job up to
  ``max_attempts`` times before emitting a
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
import pickle
import select
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.farm.job import JobFailure, JobResult
from repro.farm.worker import worker_main
from repro.obs.metrics import MetricsHub
from repro.runspec import FarmJob, program_key

#: Bump when the batch-summary JSON layout changes shape.
SUMMARY_SCHEMA_VERSION = 1

#: The ``kind`` discriminator in farm summary files.
SUMMARY_KIND = "repro-farm-summary"

#: Jobs a worker holds at once: the one it runs and the next.
IN_FLIGHT = 2


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
    """One job sent to a worker; ``started`` and ``deadline`` are set
    when it reaches the head of the worker's queue."""

    __slots__ = ("index", "attempt", "started", "deadline")

    def __init__(self, index: int, attempt: int):
        self.index = index
        self.attempt = attempt
        self.started = 0.0
        self.deadline: Optional[float] = None


class _Worker:
    """One pooled process, its driver-side pipe end and its queue of
    assignments (head first)."""

    __slots__ = ("worker_id", "process", "conn", "busy_seconds", "inflight")

    def __init__(self, worker_id: str, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.busy_seconds = 0.0
        self.inflight: deque[_Assignment] = deque()


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
        if any(worker.inflight for worker in self._pool):
            self.close()  # a batch that raised left replies in the pipes
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
        poller = None  # rebuilt whenever the pool changes

        def settle(index: int, outcome) -> None:
            nonlocal remaining
            outcomes[index] = outcome
            remaining -= 1
            if on_result is not None:
                on_result(outcome)

        def arm(assignment: _Assignment, now: float) -> None:
            job = jobs[assignment.index]
            budget = job.timeout if job.timeout is not None else self.timeout
            assignment.started = now
            assignment.deadline = now + budget if budget else None

        def settle_head(worker: _Worker, data: bytes) -> Optional[str]:
            """Settle ``worker``'s head job from one reply; returns what
            is wrong with a reply that is not a result for it."""
            head = worker.inflight[0] if worker.inflight else None
            try:
                kind, _worker_id, index, payload = pickle.loads(data)
                if head is None or index != head.index:
                    raise ValueError(f"reply names job {index!r}")
                if kind == "ok":
                    outcome = JobResult(
                        index=index, job=jobs[index],
                        worker=worker.worker_id, attempts=head.attempt,
                        **payload,
                    )
                    wall_ms = int(outcome.wall_seconds * 1000)
                elif kind == "err":  # deterministic job error: no retry
                    outcome = JobFailure(
                        index=index, job=jobs[index], reason="error",
                        detail=str(payload), worker=worker.worker_id,
                        attempts=head.attempt,
                    )
                else:
                    raise ValueError(f"unknown reply kind {kind!r}")
            except Exception as exc:
                return f"bad reply from the worker: {type(exc).__name__}: {exc}"
            worker.inflight.popleft()
            now = time.perf_counter()
            worker.busy_seconds += now - head.started
            if kind == "ok":
                hub.observe("farm.job_wall_ms", None, wall_ms)
            if worker.inflight:
                arm(worker.inflight[0], now)
            settle(index, outcome)
            return None

        def handle_death(worker: _Worker, reason: str, detail: str) -> None:
            nonlocal retried, poller
            # A worker can die *after* sending its result; drain the
            # pipe first so a completed job is never re-run or failed.
            try:
                while worker.inflight and worker.conn.poll(0):
                    if settle_head(worker, worker.conn.recv_bytes()):
                        break
            except (EOFError, OSError):
                pass
            if worker.inflight:
                head = worker.inflight.popleft()
                worker.busy_seconds += time.perf_counter() - head.started
                # Queued jobs never started: back to the front, uncharged.
                pending.extendleft(
                    (queued.index, queued.attempt)
                    for queued in reversed(worker.inflight)
                )
                if head.attempt < self.max_attempts:
                    retried += 1
                    pending.appendleft((head.index, head.attempt + 1))
                else:
                    settle(
                        head.index,
                        JobFailure(
                            index=head.index,
                            job=jobs[head.index],
                            reason=reason,
                            detail=detail,
                            worker=worker.worker_id,
                            attempts=head.attempt,
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
            poller = None

        def pick(worker_id: str) -> Optional[int]:
            """The pending slot of the oldest job whose program
            ``worker_id`` owns, else of the oldest unowned one."""
            claim = None
            for slot, (index, _attempt) in enumerate(pending):
                owner = self._owner.get(keys[index])
                if owner == worker_id:
                    return slot
                if owner is None and claim is None:
                    claim = slot
            return claim

        while remaining:
            # Fill free slots a depth at a time, so every worker gets a
            # first job before any gets a second.  Jobs whose owner is
            # full wait for it — that wait is what buys the
            # zero-compile warm guarantee.
            for depth in range(IN_FLIGHT):
                for worker in self._pool:
                    if not pending:
                        break
                    if len(worker.inflight) != depth:
                        continue
                    slot = pick(worker.worker_id)
                    if slot is None:
                        continue
                    index, attempt = pending[slot]
                    del pending[slot]
                    hub.observe("farm.queue_occupancy", None, len(pending))
                    try:
                        worker.conn.send((index, attempt, jobs[index]))
                    except (BrokenPipeError, OSError):
                        pending.insert(slot, (index, attempt))
                        continue  # its EOF reaps it below
                    self._owner[keys[index]] = worker.worker_id
                    assignment = _Assignment(index, attempt)
                    if not worker.inflight:
                        arm(assignment, time.perf_counter())
                    worker.inflight.append(assignment)
            if poller is None:
                poller = select.poll()
                by_fd = {}
                for worker in self._pool:
                    poller.register(worker.conn, select.POLLIN)
                    by_fd[worker.conn.fileno()] = worker
            events = poller.poll(50)  # milliseconds
            if not events:
                # Nothing to read: reap workers that died while idle.
                for worker in list(self._pool):
                    if not worker.process.is_alive():
                        handle_death(
                            worker, "crash",
                            f"worker exited with code "
                            f"{worker.process.exitcode}",
                        )
            for fd, _event in events:
                worker = by_fd[fd]
                try:
                    data = worker.conn.recv_bytes()
                except (EOFError, OSError):
                    handle_death(worker, "crash", "worker pipe closed")
                    continue
                bad = settle_head(worker, data)
                if bad is not None:
                    handle_death(worker, "crash", bad)
            # Enforce the deadline of each worker's running job.
            now = time.perf_counter()
            for worker in list(self._pool):
                head = worker.inflight[0] if worker.inflight else None
                if (
                    head is not None
                    and head.deadline is not None
                    and now > head.deadline
                ):
                    handle_death(
                        worker, "timeout",
                        f"job exceeded its "
                        f"{head.deadline - head.started:.3g}s "
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
