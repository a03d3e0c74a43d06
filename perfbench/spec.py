"""What the benchmark declares: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; its schema has no room for *why* a layer metric exists.  This
module holds the full declaration — each per-layer metric with its layer,
the end-to-end metrics it should move and the workloads it should move
them on — and ``python3 -m perfbench --validate`` checks that the two
agree.  On a workload outside a metric's ``on`` set the prediction is "no
change", and the traced run reports 0 there when the layer is not
exercised at all.
"""

from __future__ import annotations

from typing import NamedTuple

SIM_DISTRIBUTED = "sim_distributed"
SIM_UNIFIED = "sim_unified"
EDIT_COLD = "edit_cold"
CHECK_VERDICTS = "check_verdicts"
FARM_DISKWARM = "farm_diskwarm"

#: The oracle engine: the reference decode loop, slow but the semantic
#: source of truth every other engine is equivalence-locked against.
ORACLE_ENGINE = "reference"

#: Measured seconds per run (``--seconds`` default; the driver passes it).
RUN_SECONDS = 15

WORKLOADS: dict[str, str] = {
    SIM_DISTRIBUTED: (
        "warm programs on scratch-pad targets (cell, manycore): vm, DMA, "
        "softcache, dispatch and scheduler do the host work; compiler, "
        "cache and farm do none"
    ),
    SIM_UNIFIED: (
        "the same sources on unified-memory targets (apu, smp): zero DMA, "
        "softcache and uploads, so it bypasses memory-system host paths "
        "but not the engine core loop"
    ),
    EDIT_COLD: (
        "never-seen sources through cache miss, full compile, artifact "
        "store, translation and a short simulation: the developer's "
        "edit-compile-run loop"
    ),
    CHECK_VERDICTS: (
        "twelve programs linted for all five targets with no simulation: "
        "time to verdict, dominated by the static analyses"
    ),
    FARM_DISKWARM: (
        "fresh two-worker pools over a pre-filled disk cache running "
        "batches of short jobs: spawn, pipes, cache reads and artifact "
        "loads, the CI and design-space-exploration shape"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


END_TO_END: tuple[EndToEnd, ...] = (
    # Everything before the measured window: source generation, oracle
    # runs on the reference engine, cache pre-fill, warm-up.
    EndToEnd("setup_s", "s", "lower", 0.25),
    # Median host wall time per job, over the quiet passes.
    EndToEnd("job_s_p50", "s", "lower", 0.25),
    # 90th percentile of the same per-job samples.
    EndToEnd("job_s_p90", "s", "lower", 0.25),
    # Jobs completed divided by the time the quiet passes took.
    EndToEnd("jobs_per_s", "1/s", "higher", 0.25),
    # ru_maxrss of the benchmark process (plus the largest farm worker
    # on farm_diskwarm).
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metrics this layer metric should move.
    moves: tuple[str, ...]
    #: Workloads it should move them on (and is measured on).
    on: tuple[str, ...]
    #: True when 0 is a healthy reading on an ``on`` workload.
    zero_ok: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_SIM = (SIM_DISTRIBUTED, SIM_UNIFIED)
_COMPILING = (EDIT_COLD, CHECK_VERDICTS)
_SIMULATING = (SIM_DISTRIBUTED, SIM_UNIFIED, EDIT_COLD, FARM_DISKWARM)
_DMA = (SIM_DISTRIBUTED, EDIT_COLD, FARM_DISKWARM)
_ALL = tuple(WORKLOADS)
_SPEED = ("job_s_p50", "jobs_per_s")
_TAIL = ("job_s_p50", "job_s_p90")
_PASSES = ("layout", "domains", "offload-meta", "lower-host",
           "drain-duplicates", "optimize", "validate")
_ANALYSES = ("dma-discipline", "local-footprint", "offload-handles",
             "dma-bounds", "cost", "outer-traffic", "annotations")


def _t(name, moves, on, **kw):  # a timing, in seconds
    return PerLayer(name, "s", "lower", moves, on, **kw)


def _us(name, moves, on):  # a micro-probe, in microseconds per operation
    return PerLayer(name, "us", "lower", moves, on)


def _n(name, moves, on, unit="count", better="lower", **kw):  # a count
    return PerLayer(name, unit, better, moves, on, **kw)


PER_LAYER: tuple[PerLayer, ...] = (
    # lang ---------------------------------------------------------------
    _t("lang.lex_s", _SPEED, _COMPILING),
    _t("lang.parse_s", _SPEED, _COMPILING),
    _t("lang.sema_s", _SPEED, _COMPILING),
    _n("lang.tokens", _SPEED, _COMPILING),
    _n("lang.source_lines", _SPEED, _COMPILING),
    # compiler -----------------------------------------------------------
    _t("compiler.compile_s", _SPEED, _COMPILING),
    *(
        _t(f"compiler.pass_s.{name}", _SPEED,
           (EDIT_COLD,) if name == "optimize" else _COMPILING)
        for name in _PASSES
    ),
    _n("compiler.ir_functions", _SPEED, _COMPILING),
    _n("compiler.ir_instrs", _SPEED, _COMPILING),
    _n("compiler.accel_duplicates", _SPEED, _COMPILING),
    # analysis -----------------------------------------------------------
    _t("analysis.run_s", _TAIL, (CHECK_VERDICTS,)),
    *(
        _t(f"analysis.part_s.{name}", _TAIL, (CHECK_VERDICTS,))
        for name in _ANALYSES
    ),
    _n("analysis.findings", _TAIL, (CHECK_VERDICTS,)),
    _n("analysis.error_findings", _TAIL, (CHECK_VERDICTS,)),
    _us("analysis.us_per_ir_instr", _TAIL, (CHECK_VERDICTS,)),
    _n("analysis.wrong_verdicts", _TAIL, (CHECK_VERDICTS,), zero_ok=True),
    # ir -----------------------------------------------------------------
    _t("ir.serialize_s", _SPEED, (EDIT_COLD, FARM_DISKWARM)),
    _t("ir.deserialize_s", _SPEED, (EDIT_COLD, FARM_DISKWARM)),
    _n("ir.artifact_bytes", _SPEED, (EDIT_COLD, FARM_DISKWARM), unit="bytes"),
    # compiler.cache -----------------------------------------------------
    _t("cache.key_s", _SPEED, _SIMULATING),
    _t("cache.store_s", _SPEED, (EDIT_COLD,)),
    _t("cache.load_hit_s", _SPEED, (FARM_DISKWARM,)),
    _t("cache.load_miss_s", _SPEED, (EDIT_COLD,)),
    _n("cache.hits", _SPEED, (FARM_DISKWARM,), better="higher"),
    _n("cache.misses", _SPEED, (EDIT_COLD,)),
    _n("cache.stores", _SPEED, (EDIT_COLD,)),
    _n("cache.hit_ratio", _SPEED, (FARM_DISKWARM,), unit="ratio",
       better="higher"),
    # vm -----------------------------------------------------------------
    _t("vm.translate_s", _SPEED, (EDIT_COLD,)),
    _t("vm.translate_diskwarm_s", _SPEED, (FARM_DISKWARM,)),
    _t("vm.simulate_s", _SPEED, _SIMULATING),
    _t("vm.engine_s.default", _SPEED, _SIM),
    _t("vm.engine_s.reference", ("setup_s",), _SIM),
    _t("vm.engine_s.best", _SPEED, _SIM),
    _n("vm.engines", _SPEED, _SIM),
    _n("vm.sim_cycles", _SPEED, _SIMULATING, unit="cycles"),
    _n("vm.sim_instructions", _SPEED, _SIMULATING),
    PerLayer("vm.ns_per_sim_instr", "ns", "lower", _SPEED, _SIMULATING),
    _n("vm.translations", _SPEED, (EDIT_COLD, FARM_DISKWARM)),
    _n("vm.calls", _SPEED, _SIMULATING),
    # machine ------------------------------------------------------------
    _t("machine.build_s", _SPEED, _SIMULATING),
    _n("machine.dma_ops", _SPEED, _DMA),
    _n("machine.dma_bytes", _SPEED, _DMA, unit="bytes"),
    _n("machine.dma_waits", _SPEED, _DMA),
    _n("machine.outer_accesses", _SPEED, _DMA),
    _n("machine.interconnect_bytes", _SPEED, (SIM_DISTRIBUTED,),
       unit="bytes"),
    _us("machine.dma_op_us", _SPEED, (SIM_DISTRIBUTED,)),
    # runtime ------------------------------------------------------------
    _n("runtime.softcache_probes", _SPEED, (SIM_DISTRIBUTED, EDIT_COLD)),
    _n("runtime.softcache_hit_ratio", _SPEED, (SIM_DISTRIBUTED, EDIT_COLD),
       unit="ratio", better="higher"),
    _us("runtime.softcache_load_hit_us", _SPEED, (SIM_DISTRIBUTED,)),
    _us("runtime.softcache_load_miss_us", _SPEED, (SIM_DISTRIBUTED,)),
    _n("runtime.dispatch_vcalls", _SPEED, (SIM_DISTRIBUTED, EDIT_COLD)),
    _n("runtime.dispatch_probes_per_vcall", _SPEED,
       (SIM_DISTRIBUTED, EDIT_COLD), unit="ratio"),
    _n("runtime.accessor_bulk_bytes", _SPEED, _DMA, unit="bytes"),
    # sched --------------------------------------------------------------
    _n("sched.launches", _SPEED, _SIMULATING),
    _n("sched.uploads", _SPEED, _DMA),
    _n("sched.upload_bytes", _SPEED, _DMA, unit="bytes"),
    _n("sched.stalls", _SPEED, (SIM_DISTRIBUTED,), zero_ok=True),
    _n("sched.stall_cycles", _SPEED, (SIM_DISTRIBUTED,), unit="cycles",
       zero_ok=True),
    _n("sched.queue_high_water", _SPEED, _SIMULATING),
    _n("sched.accel_utilization_pct", _SPEED, _SIMULATING, unit="%",
       better="higher"),
    # obs ----------------------------------------------------------------
    _t("obs.collect_report_s", _SPEED, _SIMULATING),
    _t("obs.report_json_s", _SPEED, _SIMULATING),
    _n("obs.report_bytes", _SPEED, _SIMULATING, unit="bytes"),
    _n("obs.metrics_overhead_ratio", _SPEED, _SIM, unit="ratio"),
    _n("obs.trace_overhead_ratio", _SPEED, _SIM, unit="ratio"),
    # farm ---------------------------------------------------------------
    _t("farm.pool_open_s", ("jobs_per_s",), (FARM_DISKWARM,)),
    _t("farm.pool_close_s", ("jobs_per_s",), (FARM_DISKWARM,)),
    _t("farm.batch_wall_s", ("jobs_per_s",), (FARM_DISKWARM,)),
    _t("farm.service_s_sum", _SPEED, (FARM_DISKWARM,)),
    _n("farm.overhead_share", ("jobs_per_s",), (FARM_DISKWARM,),
       unit="ratio"),
    _us("farm.roundtrip_overhead_us", ("jobs_per_s",), (FARM_DISKWARM,)),
    _us("farm.pickle_job_us", ("jobs_per_s",), (FARM_DISKWARM,)),
    _us("farm.pickle_result_us", ("jobs_per_s",), (FARM_DISKWARM,)),
    _n("farm.speedup_vs_serial", ("jobs_per_s",), (FARM_DISKWARM,),
       unit="ratio", better="higher"),
    _n("farm.warm_jobs", ("jobs_per_s",), (FARM_DISKWARM,),
       better="higher"),
    _n("farm.cache_hits", ("jobs_per_s",), (FARM_DISKWARM,),
       better="higher"),
    _n("farm.retries", ("jobs_per_s",), (FARM_DISKWARM,), zero_ok=True),
    # bench: validity of the ledger itself ---------------------------------
    _n("bench.trace_overhead_ratio", (), _ALL, unit="ratio"),
    _n("bench.span_coverage", (), _ALL, unit="ratio", better="higher"),
    _t("bench.generator_s", ("setup_s",), _ALL),
)

PER_LAYER_NAMES: tuple[str, ...] = tuple(m.name for m in PER_LAYER)

#: Units whose per-layer readings are exact for a given seed: ``--agree``
#: requires them to be equal between two result sets of one commit.
EXACT_UNITS = ("count", "bytes", "cycles")


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this declaration corresponds to."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
