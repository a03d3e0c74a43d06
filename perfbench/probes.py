"""Direct probes: public layer calls timed on their own.

A probe measures something the job-level spans cannot separate — one DMA
``get`` + ``wait``, a software-cache hit, pickling a job for a worker
pipe, the same frame on every engine.  Each runs a fixed number of
operations and records the median, so its cost does not depend on
``--seconds``.
"""

from __future__ import annotations

import dataclasses
import pickle
import statistics
import time

from repro.farm import Farm, FarmJob, execute_job, run_jobs_serial
from repro.ir import program_from_json, program_to_json
from repro.machine import Machine, resolve_target
from repro.obs import MetricsHub, TraceRecorder
from repro.runtime import DirectMappedCache
from repro.vm import DEFAULT_ENGINE, ENGINE_NAMES, RunOptions, run_program

from perfbench.ledger import Ledger
from perfbench.spec import ORACLE_ENGINE

#: Repeats of each whole-run probe (engines, observability).
_RUNS = 7


def _median_seconds(*thunks) -> list[float]:
    """Median wall time of each thunk, the thunks taking turns so that
    drift in the host's speed touches all of them alike."""
    samples: list[list[float]] = [[] for _ in thunks]
    for _ in range(_RUNS):
        for thunk, times in zip(thunks, samples):
            started = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - started)
    return [statistics.median(times) for times in samples]


def artifact(ledger: Ledger, program, count: bool) -> None:
    """``ir``: serialise a program to canonical JSON and back."""
    started = time.perf_counter()
    text = program_to_json(program)
    ledger.time("ir.serialize_s", time.perf_counter() - started)
    started = time.perf_counter()
    program_from_json(text)
    ledger.time("ir.deserialize_s", time.perf_counter() - started)
    if count:
        ledger.add("ir.artifact_bytes", len(text))


def engines(ledger: Ledger, job: FarmJob) -> None:
    """``vm``: one fixed frame simulated on every engine the program
    has, each warmed by a first run.  Reports the default, the oracle
    and the fastest, whatever the engines are called."""
    seconds: dict[str, float] = {}
    for engine in ENGINE_NAMES:
        memo: dict = {}
        pinned = dataclasses.replace(job, engine=engine)
        execute_job(pinned, memo=memo)
        (seconds[engine],) = _median_seconds(
            lambda: execute_job(pinned, memo=memo)
        )
    ledger.set("vm.engines", len(seconds))
    ledger.time("vm.engine_s.default", seconds[DEFAULT_ENGINE])
    ledger.time("vm.engine_s.reference", seconds[ORACLE_ENGINE])
    ledger.time("vm.engine_s.best", min(seconds.values()))


def observability(ledger: Ledger, job: FarmJob, program, sched) -> None:
    """``obs``: the same run with a metrics hub, with a trace recorder,
    and with neither."""
    config = resolve_target(job.target)
    options = RunOptions(engine=job.resolved_engine(), sched=sched)

    def run(attach) -> None:
        machine = Machine(config)
        attach(machine)
        run_program(program, machine, options)

    recorder = TraceRecorder(capacity=1 << 16)
    bare, metered, traced = _median_seconds(
        lambda: run(lambda machine: None),
        lambda: run(lambda machine: machine.attach_metrics(MetricsHub())),
        lambda: run(lambda machine: machine.attach_trace(recorder)),
    )
    ledger.set("obs.metrics_overhead_ratio", metered / bare)
    ledger.set("obs.trace_overhead_ratio", traced / bare)


def dma(ledger: Ledger, operations: int = 2000) -> None:
    """``machine``: one tagged ``get`` and its ``wait`` on a ``cell``
    accelerator's DMA engine."""
    core = Machine(resolve_target("cell")).accelerator(0)
    engine = core.dma
    now = 0
    started = time.perf_counter()
    for n in range(operations):
        now = engine.get(tag=n & 15, local_addr=0, outer_addr=(n & 63) * 128,
                         size=128, now=now)
        now = engine.wait(n & 15, now)
    elapsed = time.perf_counter() - started
    ledger.set("machine.dma_op_us", elapsed / operations * 1e6)


def softcache(ledger: Ledger, operations: int = 2000) -> None:
    """``runtime``: direct-mapped cache loads that hit, and loads that
    miss (a stride of one cache's worth of lines evicts every time)."""
    core = Machine(resolve_target("cell")).accelerator(0)
    cache = DirectMappedCache(core, local_base=0, line_size=128, num_lines=64)
    now = 0
    _, now = cache.load(0, 4, now)
    started = time.perf_counter()
    for n in range(operations):
        _, now = cache.load((n & 31) * 4, 4, now)
    hit = time.perf_counter() - started
    span = 128 * 64
    started = time.perf_counter()
    for n in range(operations):
        _, now = cache.load((n + 1) * span, 4, now)
    miss = time.perf_counter() - started
    ledger.set("runtime.softcache_load_hit_us", hit / operations * 1e6)
    ledger.set("runtime.softcache_load_miss_us", miss / operations * 1e6)


def pickling(ledger: Ledger, job: FarmJob, operations: int = 200) -> None:
    """``farm``: what crosses a worker pipe — the job going out, the
    result payload coming back."""
    payload = ("ok", "w0", 0, execute_job(job))
    started = time.perf_counter()
    for _ in range(operations):
        pickle.loads(pickle.dumps((0, 1, job)))
    out = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(operations):
        pickle.loads(pickle.dumps(payload))
    back = time.perf_counter() - started
    ledger.set("farm.pickle_job_us", out / operations * 1e6)
    ledger.set("farm.pickle_result_us", back / operations * 1e6)


def roundtrip(ledger: Ledger, job: FarmJob, cache_dir: str,
              jobs: int = 60) -> None:
    """``farm``: per-job dispatch cost.  ``jobs`` copies of one warm job
    on a one-worker pool: batch wall per job minus the service time the
    worker reports is what the pipe, pickling and driver bookkeeping
    cost."""
    with Farm(workers=1, cache_dir=cache_dir) as farm:
        farm.run_batch([job])  # load and translate once
        summary = farm.run_batch([job] * jobs)
    service = sum(result.wall_seconds for result in summary.results)
    ledger.set("farm.roundtrip_overhead_us",
               (summary.wall_seconds - service) / jobs * 1e6)


def serial_speedup(ledger: Ledger, batch: list, cache_dir: str,
                   workers: int) -> None:
    """``farm``: the batch on a fresh pool (open and close included)
    against ``run_jobs_serial`` on the same batch and cache."""
    started = time.perf_counter()
    with Farm(workers=workers, cache_dir=cache_dir) as farm:
        farm.run_batch(batch)
    pooled = time.perf_counter() - started
    started = time.perf_counter()
    run_jobs_serial(batch, cache_dir=cache_dir)
    serial = time.perf_counter() - started
    ledger.set("farm.speedup_vs_serial", serial / pooled)
