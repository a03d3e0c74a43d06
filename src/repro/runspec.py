"""The run spec and the one execute path every front end shares.

A :class:`FarmJob` names everything one simulation needs — program
(source text or a serialized artifact path), registry target, execution
engine, scheduling policy, queue depth and a seed — and nothing about
*where* it runs.  Three steps turn one into a report:

* :func:`prepare` — the program: warm-memo probe, artifact load or
  (cached) compile, ahead-of-time translation, with the warmth
  accounting of what that cost;
* :func:`simulate` — the run, on a fresh machine.  Per-run observers
  (trace recorder, metrics hub, race-check and admission modes) are
  not job identity, so they are keyword arguments, never job fields;
* :func:`job_report` — the canonical report of the finished run.

:func:`execute_job` is the three in sequence: what farm workers and the
serial baseline run.  ``repro.tools.run`` / ``sched`` / ``bench`` build
a job from their flags and call the steps, so a report cannot depend on
which front end produced it.  This module sits below
``repro.farm`` and ``repro.tools`` and imports neither.

Jobs are frozen dataclasses: hashable (the determinism tests key result
maps on them), picklable (they cross the driver/worker pipes) and
validated at construction time — an unknown engine, target or policy
fails when the batch is *built*, not minutes later inside a worker.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.compiler.cache import compile_cache_key
from repro.compiler.driver import CompileOptions, compile_program
from repro.ir.module import IRProgram
from repro.ir.serialize import load_program
from repro.machine.config import resolve_target
from repro.machine.machine import Machine
from repro.obs.metrics import MetricsHub
from repro.obs.report import RunReport, collect_report
from repro.sched.policy import POLICY_NAMES
from repro.sched.scheduler import SchedOptions
from repro.vm.codegen import CodegenStats, ensure_module
from repro.vm.interpreter import (
    DEFAULT_ENGINE,
    RunOptions,
    RunResult,
    run_program,
    validate_engine,
)

#: Fault-injection directives accepted by :attr:`FarmJob.fault` (chaos
#: hooks for the robustness tests and for operational drills):
#:
#: * ``"crash"`` — the worker process exits hard (``os._exit``) without
#:   reporting, exercising crash detection + bounded retry;
#: * ``"crash-once:<path>"`` — crash only if ``<path>`` does not exist
#:   yet (the first attempt creates it), exercising retry-then-succeed;
#: * ``"sleep:<seconds>"`` — wedge the worker before executing,
#:   exercising the per-job timeout.
FAULT_KINDS = ("crash", "crash-once", "sleep")


def _validate_fault(fault: str) -> None:
    kind = fault.split(":", 1)[0]
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault directive {fault!r}; known kinds: "
            + ", ".join(FAULT_KINDS)
        )
    if kind == "sleep":
        try:
            seconds = float(fault.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ValueError(
                f"fault {fault!r} must be 'sleep:<seconds>'"
            ) from None
        if seconds < 0:
            raise ValueError(f"fault sleep seconds must be >= 0, got {fault!r}")
    if kind == "crash-once" and ":" not in fault:
        raise ValueError("fault 'crash-once' needs a marker path: "
                         "'crash-once:<path>'")


@dataclass(frozen=True)
class FarmJob:
    """One simulation request.

    Attributes:
        workload: Human-readable name, recorded as the
            :class:`~repro.obs.report.RunReport` workload.
        source: OffloadMini source text.  Exactly one of ``source`` /
            ``artifact`` must be set.
        artifact: Path to a serialized program artifact
            (:mod:`repro.ir.serialize`); loaded instead of compiling.
        target: Registered machine target name
            (:func:`repro.machine.config.resolve_target`).
        engine: Execution engine, or None for the process default
            (:data:`repro.vm.interpreter.DEFAULT_ENGINE`).
        policy: Scheduling policy
            (:data:`repro.sched.policy.POLICY_NAMES`); None runs compat
            mode unless ``queue_depth`` forces explicit scheduling.
        queue_depth: Per-accelerator ready-queue bound (None: target
            default).
        seed: Batch-builder seed, recorded for job identity.  The
            simulator itself is deterministic; seeds vary *which*
            workload a corpus generator emits, never how it executes.
        options: Compiler options for ``source`` jobs.
        timeout: Per-job wall-clock budget in seconds, overriding the
            farm's default; 0 disables the timeout for this job.
        fault: Fault-injection directive (see :data:`FAULT_KINDS`), or
            None for a normal job.
    """

    workload: str
    source: Optional[str] = None
    artifact: Optional[str] = None
    target: str = "cell"
    engine: Optional[str] = None
    policy: Optional[str] = None
    queue_depth: Optional[int] = None
    seed: int = 0
    options: CompileOptions = field(default_factory=CompileOptions)
    timeout: Optional[float] = None
    fault: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.source is None) == (self.artifact is None):
            raise ValueError(
                f"job {self.workload!r}: exactly one of source/artifact "
                f"must be set"
            )
        resolve_target(self.target, source=f"FarmJob({self.workload!r}).target")
        if self.engine is not None:
            validate_engine(self.engine, source="FarmJob.engine")
        if self.policy is not None and self.policy not in POLICY_NAMES:
            raise ValueError(
                f"job {self.workload!r}: unknown policy {self.policy!r}; "
                f"choose one of {', '.join(POLICY_NAMES)}"
            )
        if self.queue_depth is not None and self.queue_depth < 0:
            raise ValueError(
                f"job {self.workload!r}: queue_depth must be >= 0"
            )
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"job {self.workload!r}: timeout must be >= 0")
        if self.fault is not None:
            _validate_fault(self.fault)

    # ------------------------------------------------------------ identity

    def resolved_engine(self) -> str:
        """The concrete engine this job runs on (None -> env default)."""
        if self.engine is not None:
            return self.engine
        return validate_engine(DEFAULT_ENGINE, source="REPRO_VM_ENGINE")

    def explicit_sched(self) -> bool:
        """Whether the job asks for explicit scheduling: it names a
        policy *or* a queue depth (``0`` included — it means unbounded,
        not unset; a bare queue depth implies the greedy policy)."""
        return self.policy is not None or self.queue_depth is not None

    def identity(self) -> dict:
        """The job's JSON-able identity fields (no program text)."""
        return {
            "workload": self.workload,
            "target": self.target,
            "engine": self.resolved_engine(),
            "policy": self.policy or "",
            "queue_depth": self.queue_depth if self.queue_depth is not None
            else -1,
            "seed": self.seed,
        }

    def as_dict(self) -> dict:
        """The full job spec as a JSON-able dict (batch-file format)."""
        out: dict = {
            "workload": self.workload,
            "target": self.target,
            "seed": self.seed,
        }
        if self.source is not None:
            out["source"] = self.source
        if self.artifact is not None:
            out["artifact"] = self.artifact
        if self.engine is not None:
            out["engine"] = self.engine
        if self.policy is not None:
            out["policy"] = self.policy
        if self.queue_depth is not None:
            out["queue_depth"] = self.queue_depth
        if self.timeout is not None:
            out["timeout"] = self.timeout
        if self.fault is not None:
            out["fault"] = self.fault
        options = dataclasses.asdict(self.options)
        if options != dataclasses.asdict(CompileOptions()):
            out["options"] = options
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "FarmJob":
        """Inverse of :meth:`as_dict` (rejects unknown fields loudly)."""
        if not isinstance(obj, dict):
            raise ValueError(f"job spec must be an object, got {obj!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(
                f"job spec has unknown field(s): {', '.join(unknown)}"
            )
        kwargs = dict(obj)
        if "options" in kwargs:
            kwargs["options"] = CompileOptions(**kwargs["options"])
        return cls(**kwargs)


def program_key(job: FarmJob) -> str:
    """The warm-program memo key: what makes two jobs share translations.

    Jobs that compile the same source for the same target with the same
    options — under the same engine — reuse one warmed program object
    inside a worker, whatever their policy, queue depth or seed.
    Artifact jobs key on the artifact path.  The key is kept on the
    job after the first call (its fields cannot change under it), so it
    crosses a farm pipe inside the job's pickle.
    """
    key = job.__dict__.get("_program_key")
    if key is None:
        if job.artifact is not None:
            base = f"artifact:{job.artifact}:{job.target}"
        else:
            base = compile_cache_key(job.source, job.target, job.options)
        key = f"{base}:{job.resolved_engine()}"
        object.__setattr__(job, "_program_key", key)
    return key


# -------------------------------------------------------- the execute path


class Prepared(NamedTuple):
    """:func:`prepare`'s program and what obtaining it cost: full
    pipeline runs, artifacts served from the disk cache, functions
    translated, and whether the memo already held it (none of those)."""

    program: IRProgram
    compiles: int = 0
    cache_hits: int = 0
    translations: int = 0
    warm: bool = False


def prepare(
    job: FarmJob,
    cache=None,
    memo: Optional[dict] = None,
    filename: str = "<input>",
) -> Prepared:
    """Step 1: the program ``job`` runs — recalled, loaded or compiled.

    ``cache`` is an optional :class:`~repro.compiler.cache.CompileCache`
    and ``memo`` the warm-program dict (:func:`program_key` -> program):
    pass the same dict across calls and every job after the first with
    a given key performs zero compiles and zero translations.  Compile
    diagnostics are rendered against ``filename``.
    """
    if memo is not None:
        key = program_key(job)
        program = memo.get(key)
        if program is not None:
            return Prepared(program, warm=True)
    config = resolve_target(job.target, source="FarmJob.target")
    engine = job.resolved_engine()
    compiles = cache_hits = translations = 0
    digest = None
    if job.artifact is not None:
        program = load_program(job.artifact)
    elif cache is not None:
        hits0, stores0 = cache.stats.hits, cache.stats.stores
        program = compile_program(
            job.source, config, job.options, filename, cache=cache
        )
        cache_hits = cache.stats.hits - hits0
        compiles = cache.stats.stores - stores0
        # The cache holds the artifact text it just stored or loaded;
        # nothing has touched the program since, so its digest keys the
        # engine's cached code objects without a second serialization.
        digest = cache.artifact_digest(
            compile_cache_key(job.source, config, job.options)
        )
    else:
        program = compile_program(job.source, config, job.options, filename)
        compiles = 1
    if engine != "reference":
        # Translations are kept on the program per cost model object:
        # the target's, which every machine built for it runs under.
        stats = CodegenStats()
        ensure_module(program, config.cost, stats, cache, digest)
        translations = stats.translations
    if memo is not None:
        memo[key] = program
    return Prepared(program, compiles, cache_hits, translations)


def simulate(
    program: IRProgram,
    job: FarmJob,
    *,
    trace=None,
    hub=None,
    racecheck: Optional[str] = "raise",
    admission: str = "stall",
) -> RunResult:
    """Step 2: run ``program`` as ``job`` describes, on a fresh machine,
    with the caller's trace recorder / metrics hub attached and its
    :attr:`RunOptions.racecheck` / :attr:`SchedOptions.admission` modes.
    """
    machine = Machine(resolve_target(job.target, source="FarmJob.target"))
    if trace is not None:
        machine.attach_trace(trace)
    if hub is not None:
        machine.attach_metrics(hub)
    sched = None
    if job.explicit_sched():
        sched = SchedOptions(
            policy=job.policy or "greedy",
            queue_depth=job.queue_depth,
            admission=admission,
        )
    options = RunOptions(
        racecheck=racecheck, engine=job.resolved_engine(), sched=sched
    )
    return run_program(program, machine, options)


def job_report(
    result: RunResult, job: FarmJob, hub=None, wall_seconds: float = 0.0
) -> RunReport:
    """Step 3: the canonical report (``wall_seconds`` 0 keeps it
    byte-reproducible: farm payloads, committed baselines)."""
    return collect_report(
        result,
        workload=job.workload,
        hub=hub,
        wall_seconds=wall_seconds,
        engine=job.resolved_engine(),
        target=job.target,
    )


def _apply_fault(fault: Optional[str]) -> None:
    """Honour a fault-injection directive (see :data:`FAULT_KINDS`)."""
    if fault is None:
        return
    kind, _, arg = fault.partition(":")
    if kind == "crash":
        os._exit(13)
    if kind == "crash-once":
        if not os.path.exists(arg):
            with open(arg, "w") as handle:
                handle.write("crashed\n")
            os._exit(13)
        return
    if kind == "sleep":
        time.sleep(float(arg))


def execute_job(job: FarmJob, cache=None, memo: Optional[dict] = None) -> dict:
    """Run one job to a payload dict: prepare, simulate, report.

    ``cache`` and ``memo`` are :func:`prepare`'s.  The payload carries
    the canonical ``report`` (``wall_seconds`` 0, byte-identical across
    deployment shapes), the program ``output``, :class:`Prepared`'s
    accounting and ``wall_seconds`` (host clock, envelope only).
    """
    started = time.perf_counter()
    _apply_fault(job.fault)
    prepared = prepare(job, cache=cache, memo=memo)
    hub = MetricsHub()
    result = simulate(prepared.program, job, hub=hub)
    return {
        "report": job_report(result, job, hub).as_dict(),
        "output": list(result.output),
        "compiles": prepared.compiles,
        "cache_hits": prepared.cache_hits,
        "translations": prepared.translations,
        "warm": prepared.warm,
        "wall_seconds": time.perf_counter() - started,
    }
