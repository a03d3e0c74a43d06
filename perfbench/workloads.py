"""The five workloads: set-up, the measured pass, the traced pass.

Every workload offers the same three operations:

* ``setup()`` — generate inputs from the seed, run each distinct job spec
  once on the ``reference`` engine (the oracle), pre-fill caches and warm
  programs.  Timed by the caller as ``setup_s``.
* ``measured_pass(samples)`` — run every job of one pass through the
  program's real one-call path (``execute_job``, ``PassManager.run``,
  ``Farm.run_batch``), append each job's wall time to ``samples`` and
  check each result against the oracle.
* ``traced_pass(spans, ledger)`` — re-enact the same jobs from outside as
  the sequence of public calls the one-call path makes, one span per
  call, and feed the per-layer ledger.

Jobs run on the *default* engine (``FarmJob(engine=None)``); the code
iterates ``repro.vm.ENGINE_NAMES`` instead of naming engines, and imports
package roots only, so deleting an engine or flipping the default does
not break the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time

from repro.compiler import (
    CompileCache,
    CompileOptions,
    PassManager,
    compile_cache_key,
)
from repro.farm import (
    Farm,
    FarmJob,
    JobResult,
    execute_job,
    program_key,
)
from repro.lang import tokenize
from repro.machine import Machine, resolve_target, target_names
from repro.obs import MetricsHub, collect_report
from repro.sched import SchedOptions
from repro.vm import RunOptions, run_program, warm_translations

from perfbench import inputs, probes, spec
from perfbench.hygiene import fresh_dir
from perfbench.ledger import Ledger
from perfbench.tracing import SpanRecorder

ORACLE_ENGINE = spec.ORACLE_ENGINE

#: Farm pool size: ``nproc`` is 2 on the measuring host.
FARM_WORKERS = 2

#: Span name of one re-enacted job (its children are the layer calls).
JOB_SPAN = "job"


def canonical(report: dict) -> str:
    """Canonical JSON of a run report with the engine identity blanked:
    reports of one job from two engines must be byte-identical apart
    from that field."""
    return json.dumps(
        {**report, "engine": ""}, sort_keys=True, separators=(",", ":")
    )


def oracle_text(job: FarmJob) -> tuple[str, int]:
    """(canonical report, simulated cycles) of ``job`` on the oracle
    engine, compiled from scratch with no cache and no memo."""
    payload = execute_job(dataclasses.replace(job, engine=ORACLE_ENGINE))
    report = payload["report"]
    return canonical(report), report["simulated_cycles"]


def _sched_options(job: FarmJob):
    if job.policy is None and job.queue_depth is None:
        return None
    return SchedOptions(
        policy=job.policy or "greedy", queue_depth=job.queue_depth
    )


def _simulate(spans: SpanRecorder, ledger: Ledger, jid: int, job: FarmJob,
              program, engine: str) -> tuple[dict, str]:
    """The tail of ``execute_job``: fresh machine, run, report."""
    config = resolve_target(job.target)
    with spans.span("machine.build_s", jid, "machine"):
        machine = Machine(config)
        hub = MetricsHub()
        machine.attach_metrics(hub)
    with spans.span("vm.simulate_s", jid, "vm") as run:
        result = run_program(
            program, machine,
            RunOptions(engine=engine, sched=_sched_options(job)),
        )
    ledger.time("vm.ns_per_sim_instr",
                run.seconds / max(result.instructions, 1) * 1e9)
    with spans.span("obs.collect_report_s", jid, "obs"):
        report = collect_report(
            result, workload=job.workload, hub=hub, engine=engine,
            target=job.target,
        ).as_dict()
    with spans.span("obs.report_json_s", jid, "obs"):
        text = canonical(report)
    return report, text


def _pass_span_name(pass_name: str) -> str:
    return {
        "parse": "lang.parse_s",
        "sema": "lang.sema_s",
        "analyze": "analysis.run_s",
    }.get(pass_name, f"compiler.pass_s.{pass_name}")


def _run_passes(spans: SpanRecorder, jid: int, source: str, config,
                options: CompileOptions, filename: str):
    """``PassManager.run`` re-enacted one ``Pass.run`` at a time.

    The first pass goes through ``run(stop_after=...)`` to obtain the
    context object; the rest are driven directly.  Returns the context,
    the seconds spent compiling (every pass but ``analyze``) and the
    seconds spent analysing."""
    manager = PassManager.default()
    first, *rest = manager.passes
    compiling = analysing = 0.0
    with spans.span(_pass_span_name(first.name), jid, "lang") as span:
        ctx = manager.run(
            source, config, options, filename, stop_after=first.name
        )
    compiling += span.seconds
    for step in rest:
        if step.skip is not None and step.skip(ctx):
            continue
        name = _pass_span_name(step.name)
        with spans.span(name, jid, name.split(".", 1)[0]) as span:
            step.run(ctx)
        if step.name == "analyze":
            analysing += span.seconds
        else:
            compiling += span.seconds
    return ctx, compiling, analysing


def _count_report(ledger: Ledger, report: dict) -> None:
    """Fold one run report's simulated statistics into the ledger."""
    counters = report["counters"]

    def total(*names: str) -> int:
        return sum(counters.get(name, 0) for name in names)

    ledger.add("vm.sim_cycles", report["simulated_cycles"])
    ledger.add("vm.sim_instructions", report["instructions"])
    ledger.add("vm.calls", total("vm.calls"))
    ledger.add("machine.dma_ops", total("dma.gets", "dma.puts"))
    ledger.add("machine.dma_bytes", total("dma.bytes_get", "dma.bytes_put"))
    ledger.add("machine.dma_waits", total("dma.waits"))
    ledger.add("machine.outer_accesses", total("outer.loads", "outer.stores"))
    ledger.add("machine.interconnect_bytes", total("interconnect.bytes"))
    ledger.add("runtime.softcache_probes", total("softcache.probes"))
    ledger.add("_softcache_hits", total("softcache.hits"))
    ledger.add("runtime.dispatch_vcalls", total("dispatch.vcalls"))
    ledger.add("_dispatch_probes",
               total("dispatch.outer_probes", "dispatch.inner_probes"))
    ledger.add("runtime.accessor_bulk_bytes",
               total("accessor.bytes_in", "accessor.bytes_out"))
    ledger.add("sched.launches", total("offload.launches"))
    ledger.add("sched.uploads", total("sched.uploads"))
    ledger.add("sched.upload_bytes", total("sched.upload_bytes"))
    ledger.add("sched.stalls", total("sched.stalls"))
    ledger.add("sched.stall_cycles", total("sched.stall_cycles"))
    ledger.highest("sched.queue_high_water",
                   report["gauges"].get("sched.queue_high_water", 0))
    ledger.add("_utilization_pct",
               report["derived"].get("accelerator_utilization_pct", 0.0))
    ledger.add("_reports", 1)


def derive(ledger: Ledger) -> None:
    """Ratios over the counts of one pass (0 when the base is 0)."""
    counts = ledger.counts

    def ratio(top: str, *bottom: str) -> float:
        base = sum(counts.get(name, 0) for name in bottom)
        return counts.get(top, 0) / base if base else 0.0

    ledger.set("runtime.softcache_hit_ratio",
               ratio("_softcache_hits", "runtime.softcache_probes"))
    ledger.set("runtime.dispatch_probes_per_vcall",
               ratio("_dispatch_probes", "runtime.dispatch_vcalls"))
    ledger.set("sched.accel_utilization_pct",
               ratio("_utilization_pct", "_reports"))
    ledger.set("cache.hit_ratio",
               ratio("cache.hits", "cache.hits", "cache.misses"))


def _ir_instrs(program) -> int:
    return sum(len(fn.code) for fn in program.functions.values())


def _count_program(ledger: Ledger, source: str, program) -> None:
    """Front-end and IR size counts for one compiled source."""
    ledger.add("lang.source_lines", source.count("\n"))
    ledger.add("compiler.ir_functions", len(program.functions))
    ledger.add("compiler.ir_instrs", _ir_instrs(program))
    ledger.add("compiler.accel_duplicates", len(program.accel_functions()))


def _probe_lexer(ledger: Ledger, source: str, count: bool) -> None:
    """``lang.lex_s``: the lexer alone (inside a job it is part of
    ``parse``), run outside the job's wall time."""
    started = time.perf_counter()
    tokens = tokenize(source)
    ledger.time("lang.lex_s", time.perf_counter() - started)
    if count:
        ledger.add("lang.tokens", len(tokens))


class Workload:
    """Common state; see the module docstring for the three operations."""

    name = ""
    #: Farm workers are children: their peak RSS counts too.
    counts_children = False
    #: Name of the top-level span that re-enacts what one measured job
    #: (or farm round) does.
    root_span = JOB_SPAN
    #: A pass is measured in this many slices, ``measured_pass`` running
    #: the next one each call.  Short slices let the runner drop the
    #: stretches a noisy neighbour disturbed without dropping much else.
    slices = 1

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        #: Smoke runs shrink the longest pass (see ``CheckVerdicts``).
        self.quick = quick
        #: Simulated cycles summed over the distinct job specs (oracle).
        self.sim_cycles = 0
        #: Seconds of set-up spent generating source text.
        self.generator_seconds = 0.0
        self._dirs: list[str] = []

    def _fresh_dir(self) -> str:
        path = fresh_dir(self.name)
        self._dirs.append(path)
        return path

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def setup(self) -> None:
        raise NotImplementedError

    def measured_pass(self, samples: list[float]) -> tuple[int, int]:
        """Run one pass (its next slice, when ``slices`` > 1); returns
        (attempted, failed)."""
        raise NotImplementedError

    def traced_pass(self, spans: SpanRecorder, ledger: Ledger,
                    count: bool) -> tuple[int, int]:
        """Re-enact one pass under spans; fold counts into the ledger
        when ``count`` is set (the first pass only, so counts are per
        pass).  Returns (attempted, failed)."""
        raise NotImplementedError

    def probe(self, ledger: Ledger) -> None:
        """Direct probes of the layers this workload exercises."""


# ---------------------------------------------------------------- sim_*


class SimWorkload(Workload):
    """Warm programs through ``execute_job`` with a shared memo."""

    unified = False

    def setup(self) -> None:
        started = time.perf_counter()
        self.jobs = inputs.sim_jobs(self.seed, self.unified)
        self.generator_seconds = time.perf_counter() - started
        self.memo: dict = {}
        self.oracle: list[str] = []
        self.sim_cycles = 0
        for job in self.jobs:
            text, cycles = oracle_text(job)
            self.oracle.append(text)
            self.sim_cycles += cycles
            execute_job(job, memo=self.memo)  # compile + translate once

    def measured_pass(self, samples: list[float]) -> tuple[int, int]:
        failed = 0
        memo = self.memo
        for job, expected in zip(self.jobs, self.oracle):
            started = time.perf_counter()
            payload = execute_job(job, memo=memo)
            samples.append(time.perf_counter() - started)
            if not payload["warm"] or canonical(payload["report"]) != expected:
                failed += 1
        return len(self.jobs), failed

    def traced_pass(self, spans, ledger, count):
        failed = 0
        engine = self.jobs[0].resolved_engine()
        for job, expected in zip(self.jobs, self.oracle):
            jid = spans.next_job()
            with spans.span(JOB_SPAN, jid):
                with spans.span("cache.key_s", jid, "cache"):
                    key = program_key(job)
                report, text = _simulate(
                    spans, ledger, jid, job, self.memo[key], engine
                )
            if text != expected:
                failed += 1
            if count:
                _count_report(ledger, report)
                ledger.add("obs.report_bytes", len(text))
        return len(self.jobs), failed

    def probe(self, ledger: Ledger) -> None:
        job = self.jobs[0]
        program = self.memo[program_key(job)]
        ledger.probe("vm.engine_s", lambda: probes.engines(ledger, job))
        ledger.probe("obs.overhead", lambda: probes.observability(
            ledger, job, program, _sched_options(job)))
        if not self.unified:
            ledger.probe("machine.dma_op_us", lambda: probes.dma(ledger))
            ledger.probe("runtime.softcache",
                         lambda: probes.softcache(ledger))


class SimDistributed(SimWorkload):
    name = spec.SIM_DISTRIBUTED


class SimUnified(SimWorkload):
    name = spec.SIM_UNIFIED
    unified = True


# ------------------------------------------------------------ edit_cold


class EditCold(Workload):
    """Never-seen sources: cache miss, compile, store, translate, run."""

    name = spec.EDIT_COLD

    def setup(self) -> None:
        started = time.perf_counter()
        self.variants = inputs.edit_variants(self.seed)
        self.generator_seconds = time.perf_counter() - started
        self.oracle: list[str] = []
        self.sim_cycles = 0
        for variant in self.variants:
            text, cycles = oracle_text(variant.job("oracle"))
            self.oracle.append(text)
            self.sim_cycles += cycles
        # One job on the default engine, so lazily imported modules and
        # engine start-up are paid before the window, then an empty cache.
        execute_job(self.variants[0].job("warm-up"))
        self.cache = CompileCache(self._fresh_dir())
        self.edits = 0

    def _next_job(self, variant: inputs.EditVariant) -> FarmJob:
        self.edits += 1
        return variant.job(f"{self.seed}-{self.edits}")

    def measured_pass(self, samples: list[float]) -> tuple[int, int]:
        failed = 0
        # A new cache object each pass over the same directory: its
        # in-memory text layer would otherwise grow with every job, and
        # peak memory with the length of the run.
        self.cache = CompileCache(self.cache.directory)
        for variant, expected in zip(self.variants, self.oracle):
            job = self._next_job(variant)
            started = time.perf_counter()
            payload = execute_job(job, cache=self.cache, memo={})
            samples.append(time.perf_counter() - started)
            cold = payload["compiles"] == 1 and payload["cache_hits"] == 0
            if not cold or canonical(payload["report"]) != expected:
                failed += 1
        return len(self.variants), failed

    def traced_pass(self, spans, ledger, count):
        failed = 0
        cache = self.cache
        stats0 = dataclasses.replace(cache.stats)
        for variant, expected in zip(self.variants, self.oracle):
            jid = spans.next_job()
            job = self._next_job(variant)
            engine = job.resolved_engine()
            config = resolve_target(job.target)
            with spans.span(JOB_SPAN, jid):
                with spans.span("cache.key_s", jid, "cache"):
                    program_key(job)
                with spans.span("cache.key_s", jid, "cache"):
                    key = compile_cache_key(job.source, config, job.options)
                with spans.span("cache.load_miss_s", jid, "cache"):
                    missed = cache.load(key) is None
                ctx, compiling, _ = _run_passes(
                    spans, jid, job.source, config, job.options, "<input>"
                )
                program = ctx.program
                with spans.span("cache.store_s", jid, "cache"):
                    cache.store(key, program)
                translations = 0
                if engine != ORACLE_ENGINE:
                    with spans.span("vm.translate_s", jid, "vm"):
                        translations = warm_translations(
                            program, Machine(config), engine=engine,
                            cache=cache,
                        )
                report, text = _simulate(
                    spans, ledger, jid, job, program, engine)
            ledger.time("compiler.compile_s", compiling)
            if not missed or text != expected:
                failed += 1
            ledger.probe("ir", lambda: probes.artifact(ledger, program, count))
            _probe_lexer(ledger, job.source, count)
            if count:
                _count_report(ledger, report)
                _count_program(ledger, job.source, program)
                ledger.add("obs.report_bytes", len(text))
                ledger.add("vm.translations", translations)
        if count:
            stats = cache.stats
            ledger.add("cache.misses", stats.misses - stats0.misses)
            ledger.add("cache.stores", stats.stores - stats0.stores)
            ledger.add("cache.hits", stats.hits - stats0.hits)
        return len(self.variants), failed


# ------------------------------------------------------- check_verdicts


class CheckVerdicts(Workload):
    """Programs x targets through the analysing pass pipeline."""

    name = spec.CHECK_VERDICTS
    OPTIONS = CompileOptions(analyze=True)
    #: Sixty jobs take seconds: measured a fifth at a time.
    slices = 5

    def setup(self) -> None:
        started = time.perf_counter()
        self.specs = inputs.check_specs(self.seed)
        if self.quick:  # every program still, for the first target only
            first = target_names()[0]
            self.specs = [s for s in self.specs if s[2] == first]
        self.generator_seconds = time.perf_counter() - started
        self._slice = 0
        self.expected = inputs.expected_verdicts()
        # Warm-up: every program once (for its first target in the
        # seeded order), so imports the analyses make on first use and
        # anything a first run builds lazily are paid before the window.
        seen: set[str] = set()
        for name, source, target in self.specs:
            if name not in seen:
                seen.add(name)
                PassManager.default().run(
                    source, resolve_target(target), self.OPTIONS, name
                )

    def _wrong(self, name: str, target: str, findings: list) -> bool:
        """True when the error-severity code set is not the known
        answer for (program, target)."""
        got = sorted({f.code for f in findings if f.severity == "error"})
        return got != sorted(self.expected.get(name, {}).get(target, []))

    def measured_pass(self, samples: list[float]) -> tuple[int, int]:
        failed = 0
        specs = self.specs[self._slice::self.slices]
        self._slice = (self._slice + 1) % self.slices
        for name, source, target in specs:
            config = resolve_target(target)
            started = time.perf_counter()
            ctx = PassManager.default().run(
                source, config, self.OPTIONS, name
            )
            samples.append(time.perf_counter() - started)
            failed += self._wrong(name, target, ctx.findings)
        return len(specs), failed

    def traced_pass(self, spans, ledger, count):
        failed = 0
        lexed: set[str] = set()
        for name, source, target in self.specs:
            jid = spans.next_job()
            config = resolve_target(target)
            with spans.span(JOB_SPAN, jid):
                ctx, compiling, analysing = _run_passes(
                    spans, jid, source, config, self.OPTIONS, name
                )
            ledger.time("compiler.compile_s", compiling)
            ledger.time("analysis.us_per_ir_instr",
                        analysing / max(_ir_instrs(ctx.program), 1) * 1e6)
            parts: dict[str, float] = {}
            for timing in ctx.analysis_timings:
                parts[timing.analysis] = (
                    parts.get(timing.analysis, 0.0) + timing.seconds
                )
            for analysis, seconds in parts.items():
                ledger.time(f"analysis.part_s.{analysis}", seconds)
            wrong = self._wrong(name, target, ctx.findings)
            failed += wrong
            if name not in lexed:
                lexed.add(name)
                _probe_lexer(ledger, source, count)
            if count:
                _count_program(ledger, source, ctx.program)
                ledger.add("analysis.findings", len(ctx.findings))
                ledger.add("analysis.error_findings", sum(
                    1 for f in ctx.findings if f.severity == "error"))
                ledger.add("analysis.wrong_verdicts", wrong)
        return len(self.specs), failed


# -------------------------------------------------------- farm_diskwarm


class FarmDiskwarm(Workload):
    """Fresh pools over a pre-filled disk cache, batches of short jobs."""

    name = spec.FARM_DISKWARM
    counts_children = True
    root_span = "farm.round"

    def setup(self) -> None:
        started = time.perf_counter()
        self.batch = inputs.farm_batch(self.seed)
        self.generator_seconds = time.perf_counter() - started
        self.distinct = sorted(set(self.batch), key=lambda j: j.workload)
        self.cache_dir = self._fresh_dir()
        # Pre-fill through a private cache object: the process-wide
        # ``cache_at`` registry would hand forked workers the artifact
        # text in memory and they would never read the disk.
        prefill = CompileCache(self.cache_dir)
        self.oracle: dict[str, str] = {}
        self.sim_cycles = 0
        for job in self.distinct:
            text, cycles = oracle_text(job)
            self.oracle[job.workload] = text
            self.sim_cycles += cycles
            execute_job(job, cache=prefill)

    def _failed(self, summary) -> int:
        return sum(
            1 for result in summary.results
            if not isinstance(result, JobResult)
            or canonical(result.report) != self.oracle[result.job.workload]
        )

    def measured_pass(self, samples: list[float]) -> tuple[int, int]:
        with Farm(workers=FARM_WORKERS, cache_dir=self.cache_dir) as farm:
            summary = farm.run_batch(self.batch)
        samples.extend(
            r.wall_seconds for r in summary.results
            if isinstance(r, JobResult)
        )
        return len(self.batch), self._failed(summary)

    def traced_pass(self, spans, ledger, count):
        arrivals: list[tuple[float, object]] = []
        farm = Farm(workers=FARM_WORKERS, cache_dir=self.cache_dir)
        rid = spans.next_job()
        with spans.span(self.root_span, rid, "farm"):
            try:
                with spans.span("farm.pool_open_s", rid, "farm"):
                    farm.start()
                with spans.span("farm.batch", rid, "farm") as batch:
                    summary = farm.run_batch(
                        self.batch,
                        on_result=lambda result: arrivals.append(
                            (time.perf_counter(), result)),
                    )
            finally:
                with spans.span("farm.pool_close_s", rid, "farm"):
                    farm.close()
        service = 0.0
        for arrived, result in arrivals:
            if isinstance(result, JobResult):
                service += result.wall_seconds
                spans.add("farm.job", arrived - result.wall_seconds, arrived,
                          batch, result.index, f"worker {result.worker}")
        ledger.time("farm.batch_wall_s", batch.seconds)
        ledger.time("farm.service_s_sum", service)
        ledger.time("farm.overhead_share",
                    1.0 - service / (FARM_WORKERS * batch.seconds))
        if count:
            ledger.add("farm.warm_jobs", summary.warm_jobs)
            ledger.add("farm.cache_hits", summary.cache_hits)
            ledger.add("farm.retries", summary.retried)
            ledger.add("cache.hits", summary.cache_hits)
            ledger.add("cache.misses", summary.compiles)
            ledger.add("vm.translations", summary.translations)
            for result in summary.results:
                if isinstance(result, JobResult):
                    _count_report(ledger, result.report)
                    ledger.add("obs.report_bytes",
                               len(canonical(result.report)))
        failed = self._failed(summary)
        failed += self._worker_side(spans, ledger, count)
        return len(self.batch), failed

    def _worker_side(self, spans: SpanRecorder, ledger: Ledger,
                     count: bool) -> int:
        """What a worker does for the first job of each program, which
        the driver cannot see: re-enacted in this process against the
        same disk cache, one fresh cache object per job so every load
        reads the disk."""
        failed = 0
        for job in self.distinct:
            jid = spans.next_job()
            cache = CompileCache(self.cache_dir)
            engine = job.resolved_engine()
            config = resolve_target(job.target)
            with spans.span(JOB_SPAN, jid):
                with spans.span("cache.key_s", jid, "cache"):
                    program_key(job)
                with spans.span("cache.key_s", jid, "cache"):
                    key = compile_cache_key(job.source, config, job.options)
                with spans.span("cache.load_hit_s", jid, "cache"):
                    program = cache.load(key)
                if program is None:  # the pre-filled entry is gone
                    failed += 1
                    continue
                if engine != ORACLE_ENGINE:
                    with spans.span("vm.translate_diskwarm_s", jid, "vm"):
                        warm_translations(
                            program, Machine(config), engine=engine,
                            cache=cache,
                        )
                _report, text = _simulate(
                    spans, ledger, jid, job, program, engine)
            if text != self.oracle[job.workload]:
                failed += 1
            ledger.probe("ir", lambda: probes.artifact(ledger, program, count))
        return failed

    def probe(self, ledger: Ledger) -> None:
        job = self.distinct[0]
        ledger.probe("farm.pickle", lambda: probes.pickling(ledger, job))
        ledger.probe("farm.roundtrip_overhead_us",
                     lambda: probes.roundtrip(ledger, job, self.cache_dir))
        # Last: ``run_jobs_serial`` registers the directory in the
        # process-wide cache registry, which later forks would inherit.
        ledger.probe("farm.speedup_vs_serial",
                     lambda: probes.serial_speedup(
                         ledger, self.batch, self.cache_dir, FARM_WORKERS))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SimDistributed, SimUnified, EditCold, CheckVerdicts,
                FarmDiskwarm)
}
