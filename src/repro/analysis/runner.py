"""The analysis driver: run every static analysis over one program.

One entry point, :func:`run_analyses`, runs the whole-program analyses
(DMA discipline, local-store footprint, outer traffic and — when
semantic info is supplied — domain-annotation coverage) and returns the
merged, deterministically sorted findings plus per-unit wall-clock
timings.  Each analysis of each function/offload emits one
:data:`repro.obs.trace.EV_ANALYSIS` span on the ``analysis`` track, so
``repro.tools.check --time-passes`` and the Perfetto export both show
where check time goes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis import bounds, cost, dmacheck, footprint, offloads, traffic
from repro.analysis.annotations import report_for_program
from repro.analysis.diagnostics import Finding, dedupe_findings
from repro.analysis.intervals import compute_summaries as interval_summaries
from repro.ir.instructions import OffloadLaunch
from repro.ir.module import IRProgram
from repro.machine.config import MachineConfig, resolve_target
from repro.obs.trace import EV_ANALYSIS, NULL_RECORDER


@dataclass(frozen=True)
class AnalysisTiming:
    """Wall-clock cost of one analysis over one function/offload."""

    analysis: str
    function: str
    seconds: float


@dataclass
class AnalysisResult:
    """Everything one :func:`run_analyses` call produced."""

    findings: list[Finding] = field(default_factory=list)
    timings: list[AnalysisTiming] = field(default_factory=list)


class _Meter:
    """Times one unit of analysis work and emits its trace span."""

    def __init__(self, result: AnalysisResult, trace) -> None:
        self.result = result
        self.trace = trace
        self._cursor_us = 0

    def run(self, analysis: str, function: str, thunk) -> object:
        start = time.perf_counter()
        out = thunk()
        seconds = time.perf_counter() - start
        self.result.timings.append(AnalysisTiming(analysis, function, seconds))
        if self.trace.enabled:
            duration_us = int(seconds * 1_000_000)
            self.trace.emit(
                self._cursor_us,
                "analysis",
                EV_ANALYSIS,
                (analysis, function, duration_us),
            )
            self._cursor_us += duration_us
        return out


def run_analyses(
    program: IRProgram,
    config: "MachineConfig | str",
    *,
    info=None,
    file: str = "<input>",
    trace=NULL_RECORDER,
) -> AnalysisResult:
    """Run every static analysis; returns sorted findings + timings.

    ``config`` — the machine the program targets (its local-store
    capacity bounds the footprint analysis) — is a
    :class:`MachineConfig` or a registered target name resolved through
    :func:`repro.machine.config.resolve_target`.  ``info`` (a
    :class:`repro.lang.sema.SemanticInfo`) enables the
    annotation-coverage analysis (``E-domain-missing``); IR-only callers
    may omit it.  ``trace`` receives ``analysis.span`` events stamped
    with wall-clock microseconds, like compile-pass spans.
    """
    config = resolve_target(config, source="run_analyses")
    result = AnalysisResult()
    meter = _Meter(result, trace)
    findings = result.findings

    # DMA discipline: summaries once, then per-function checks.
    accel = sorted(program.accel_functions(), key=lambda f: f.name)
    accel_names = frozenset(f.name for f in accel)
    summaries = meter.run(
        "dma-discipline",
        "(summaries)",
        lambda: dmacheck.compute_summaries(accel),
    )
    for function in accel:
        findings.extend(
            meter.run(
                "dma-discipline",
                function.name,
                lambda fn=function: dmacheck.check_function(
                    fn, summaries, accel_names, file=file
                ),
            )
        )

    # Local-store footprint, per offload block.
    for offload_id in sorted(program.offload_meta):
        meta = program.offload_meta[offload_id]
        findings.extend(
            meter.run(
                "local-footprint",
                meta.entry,
                lambda m=meta: footprint.check_offload(
                    program, m, config, file=file
                ),
            )
        )

    # Offload-handle discipline, per host function containing launches.
    for function in sorted(program.host_functions(), key=lambda f: f.name):
        if not any(isinstance(i, OffloadLaunch) for i in function.code):
            continue
        findings.extend(
            meter.run(
                "offload-handles",
                function.name,
                lambda fn=function: offloads.check_function(fn, file=file),
            )
        )

    # DMA bounds/alignment over the interval domain, per accel function
    # (interval summaries computed once, shared with the cost model).
    ivals = meter.run(
        "dma-bounds",
        "(summaries)",
        lambda: interval_summaries(accel),
    )
    for function in accel:
        findings.extend(
            meter.run(
                "dma-bounds",
                function.name,
                lambda fn=function: bounds.check_function(
                    program, fn, config, summaries=ivals, file=file
                ),
            )
        )

    # Static cost model: flags loops it cannot bound (whole-program —
    # the walk follows each offload's call graph).
    findings.extend(
        meter.run(
            "cost",
            "(offloads)",
            lambda: cost.check_program(
                program, config, summaries=ivals, file=file
            ),
        )
    )

    # Outer traffic, per function reachable from an uncached offload.
    reach = traffic.uncached_reachable(program)
    for function in accel:
        if function.name not in reach:
            continue
        findings.extend(
            meter.run(
                "outer-traffic",
                function.name,
                lambda fn=function: traffic.check_function(fn, file=file),
            )
        )

    # Domain-annotation coverage (source-level; needs semantic info).
    if info is not None:
        for report in report_for_program(info):
            entry = f"__offload_{report.offload_id}"
            findings.extend(
                meter.run(
                    "annotations",
                    entry,
                    lambda r=report, e=entry: _annotation_findings(
                        r, e, file
                    ),
                )
            )

    result.findings = dedupe_findings(findings)
    return result


def _annotation_findings(report, entry: str, file: str) -> list[Finding]:
    missing = report.missing
    if not missing:
        return []
    return [
        Finding(
            code="E-domain-missing",
            message=(
                f"offload #{report.offload_id} can dispatch to "
                f"{len(missing)} virtual method(s) absent from its "
                f"domain(...) annotation"
            ),
            file=file,
            function=entry,
            notes=tuple(f"missing: {name}" for name in missing),
            analysis="annotations",
        )
    ]


def format_analysis_timings(timings: list[AnalysisTiming]) -> str:
    """Aggregate per-analysis timing table (``--time-passes`` extra)."""
    totals: dict[str, tuple[float, int]] = {}
    for t in timings:
        seconds, units = totals.get(t.analysis, (0.0, 0))
        totals[t.analysis] = (seconds + t.seconds, units + 1)
    grand = sum(seconds for seconds, _ in totals.values())
    lines = ["analysis             seconds      units     share"]
    for analysis in sorted(totals):
        seconds, units = totals[analysis]
        share = (seconds / grand * 100.0) if grand > 0 else 0.0
        lines.append(
            f"{analysis:20s} {seconds:10.6f} {units:9d} {share:8.1f}%"
        )
    lines.append(f"{'total':20s} {grand:10.6f}")
    return "\n".join(lines)
