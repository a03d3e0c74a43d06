"""Canonical run reports: one versioned JSON snapshot per execution.

A :class:`RunReport` captures everything a run produced that is worth
comparing over time — workload/target/engine/policy identity, simulated
cycle and instruction totals, the machine-wide
:class:`~repro.machine.perf.PerfCounters`, every histogram and gauge
from an attached :class:`~repro.obs.metrics.MetricsHub`, scheduler
statistics, derived metrics (bus bandwidth, utilization, CPI), and the
fingerprints of any diagnostics.  Every simulated quantity in the
report is an integer or a deterministically rounded float, so
:func:`report_json` is **byte-identical** across the reference and
codegen engines and across repeat runs; only ``wall_seconds`` (opt-in,
default 0) is host-dependent.

The JSON form is canonical — sorted keys, no whitespace — which makes
reports diffable as artifacts: commit one as a baseline and let CI run
:mod:`repro.tools.report` ``diff`` against it.  :func:`diff_reports`
flattens both reports into dotted metric paths
(``counters.dma.gets``, ``histograms.dma.wait_cycles[dma0].p90``,
``sched.stalls``) and compares each with a per-metric tolerance
(default: exact).  ``wall_seconds`` is exempt by default — wall clock
is the one quantity the simulator does not control.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.metrics import derived_metrics

#: Bump when the report layout changes shape (adding optional fields
#: is allowed without a bump; renaming or retyping is not).
REPORT_SCHEMA_VERSION = 1

#: The ``kind`` discriminator in every report file.
REPORT_KIND = "repro-run-report"

#: Metric paths whose differences are informational by default:
#: wall clock is host noise, not a simulated quantity.
DEFAULT_IGNORE = ("wall_seconds",)


@dataclass
class RunReport:
    """One run, snapshotted for comparison.

    All fields except ``wall_seconds`` derive from the deterministic
    simulation.  ``histograms``/``gauges`` are empty when no
    :class:`~repro.obs.metrics.MetricsHub` was attached — counters-only
    reports are still valid and diffable.
    """

    workload: str
    target: str
    engine: str
    policy: str
    queue_depth: int
    simulated_cycles: int
    host_cycles: int
    instructions: int
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)
    sched: dict = field(default_factory=dict)
    #: Sorted diagnostic fingerprints (stable finding identity).
    diagnostics: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "kind": REPORT_KIND,
            "schema_version": REPORT_SCHEMA_VERSION,
            "workload": self.workload,
            "target": self.target,
            "engine": self.engine,
            "policy": self.policy,
            "queue_depth": self.queue_depth,
            "simulated_cycles": self.simulated_cycles,
            "host_cycles": self.host_cycles,
            "instructions": self.instructions,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: self.histograms[k] for k in sorted(self.histograms)
            },
            "derived": dict(sorted(self.derived.items())),
            "sched": self.sched,
            "diagnostics": sorted(self.diagnostics),
            "wall_seconds": round(self.wall_seconds, 6),
        }


def collect_report(
    result,
    workload: str,
    hub=None,
    wall_seconds: float = 0.0,
    engine: str = "",
    target: str = "",
) -> RunReport:
    """Build a :class:`RunReport` from a finished run.

    Args:
        result: The :class:`~repro.vm.interpreter.RunResult`.
        workload: Human-readable workload name (e.g. ``"figure2"``).
        hub: The :class:`~repro.obs.metrics.MetricsHub` attached for
            the run, if any; its histograms and gauges are embedded.
        wall_seconds: Host wall-clock of the run.  Leave at 0 when the
            report must be byte-reproducible.
        engine: Engine name (``RunResult`` does not record it).
        target: Registry target name; defaults to the machine's config
            name (e.g. ``"cell-like"`` rather than ``"cell"``).

    Gauges that describe end-of-run state are computed here rather
    than pushed through the hub: ``heap.allocated_bytes`` from the
    machine's allocator, ``trace.dropped_events`` from an attached
    recorder, ``sched.queue_high_water`` from the scheduler stats.
    """
    # Imported here, not at module scope: the diagnostics module pulls
    # in the frontend, which pulls in the machine layer, which imports
    # repro.obs.metrics — a cycle at package-import time.
    from repro.analysis.diagnostics import fingerprint

    machine = result.machine
    sched = result.sched
    counters = machine.perf.as_dict() if machine is not None else {}
    gauges: dict = {}
    if machine is not None:
        gauges["heap.allocated_bytes"] = machine.heap.used
        if machine.trace.enabled:
            gauges["trace.dropped_events"] = machine.trace.dropped
    if sched is not None:
        gauges["sched.queue_high_water"] = sched.queue_high_water
    if hub is not None and hub.enabled:
        gauges.update(hub.gauges_dict())
    cycles = result.cycles
    accelerators = len(machine.accelerators) if machine is not None else 0
    return RunReport(
        workload=workload,
        target=target
        or (machine.config.name if machine is not None else ""),
        engine=engine,
        policy=sched.policy if sched is not None else "",
        queue_depth=sched.queue_depth if sched is not None else 0,
        simulated_cycles=cycles,
        host_cycles=result.host_cycles,
        instructions=result.instructions,
        counters=counters,
        gauges=dict(sorted(gauges.items())),
        histograms=(
            hub.histograms_dict() if hub is not None and hub.enabled else {}
        ),
        derived=derived_metrics(
            counters, cycles, result.instructions, sched, accelerators
        ),
        sched=sched.as_dict(cycles) if sched is not None else {},
        diagnostics=sorted(fingerprint(f) for f in result.diagnostics),
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------- serialization


def report_json(report: RunReport) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline."""
    return (
        json.dumps(report.as_dict(), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def save_report(report: RunReport, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(report_json(report))


def validate_report(obj: object) -> list[str]:
    """Problems with a loaded report dict; empty list means valid."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"report must be a JSON object, got {type(obj).__name__}"]
    if obj.get("kind") != REPORT_KIND:
        problems.append(
            f"kind must be {REPORT_KIND!r}, got {obj.get('kind')!r}"
        )
    version = obj.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {REPORT_SCHEMA_VERSION}, got {version!r}"
        )
    for key, kinds in (
        ("workload", str),
        ("target", str),
        ("engine", str),
        ("policy", str),
        ("simulated_cycles", int),
        ("host_cycles", int),
        ("instructions", int),
        ("counters", dict),
        ("gauges", dict),
        ("histograms", dict),
        ("derived", dict),
        ("sched", dict),
        ("diagnostics", list),
    ):
        if key not in obj:
            problems.append(f"missing field {key!r}")
        elif not isinstance(obj[key], kinds):
            problems.append(
                f"field {key!r} must be {kinds.__name__}, "
                f"got {type(obj[key]).__name__}"
            )
    return problems


def load_report(path: str) -> dict:
    """Load and validate one report file.

    Raises:
        ReportError: On unreadable, unparsable or malformed input.
    """
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ReportError(f"cannot read report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportError(f"report {path!r} is not JSON: {exc}") from exc
    problems = validate_report(obj)
    if problems:
        raise ReportError(
            f"report {path!r} is malformed: " + "; ".join(problems)
        )
    return obj


class ReportError(Exception):
    """A report file could not be loaded or is malformed."""


# ------------------------------------------------------------------- diffing


def flatten_report(obj: dict) -> dict:
    """Flatten a report dict into dotted metric paths -> scalar values.

    Nested dicts join with ``.``; histogram bucket lists collapse to a
    canonical string so a pure distribution shift (same count/total,
    different buckets) still registers.  ``diagnostics`` collapses to a
    comma-joined string.  ``kind`` and ``schema_version`` are dropped —
    a version mismatch is a load error, not a metric regression.
    """
    flat: dict = {}

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list):
            flat[prefix] = json.dumps(value, separators=(",", ":"))
        else:
            flat[prefix] = value

    for key in sorted(obj):
        if key in ("kind", "schema_version"):
            continue
        walk(key, obj[key])
    return flat


@dataclass
class DiffEntry:
    """One metric that differs between the baseline and the new report."""

    metric: str
    base: object
    new: object
    #: Relative change in percent, or None for non-numeric values and
    #: metrics present on only one side.
    pct: Optional[float]
    #: The tolerance (percent) this metric was allowed; exceeded.
    tolerance: float

    def describe(self) -> str:
        if self.pct is None:
            return f"{self.metric}: {self.base!r} -> {self.new!r}"
        sign = "+" if self.pct >= 0 else ""
        return (
            f"{self.metric}: {self.base} -> {self.new} "
            f"({sign}{self.pct:.2f}%, tolerance {self.tolerance:g}%)"
        )


def _tolerance_for(
    metric: str, thresholds: dict, default: float
) -> Optional[float]:
    """Tolerance (percent) for a metric path; None means ignored.

    Thresholds match on the longest prefix: ``counters`` covers every
    counter, ``counters.dma.gets`` just the one.  The pseudo-value
    ``"ignore"`` (or a negative number) exempts the subtree.
    """
    best_len = -1
    best = default
    for pattern, value in thresholds.items():
        if metric == pattern or metric.startswith(pattern + "."):
            if len(pattern) > best_len:
                best_len = len(pattern)
                best = value
    if isinstance(best, str) or (isinstance(best, (int, float)) and best < 0):
        return None
    return float(best)


def diff_reports(
    base: dict,
    new: dict,
    thresholds: Optional[dict] = None,
    default_tolerance: float = 0.0,
    ignore: Iterable[str] = DEFAULT_IGNORE,
) -> list[DiffEntry]:
    """Metrics that changed beyond their tolerance, sorted by path.

    Args:
        base, new: Loaded report dicts (see :func:`load_report`).
        thresholds: Metric-path prefix -> tolerance in percent
            (``{"counters": 0, "derived": 1.5}``); ``"ignore"`` or a
            negative value exempts the subtree.
        default_tolerance: Tolerance for paths with no threshold entry.
        ignore: Paths exempted outright (default: ``wall_seconds``).

    A metric present on only one side always counts as a difference
    (unless ignored) — reports being compared should have the same
    shape, and a vanished histogram is a finding, not noise.
    """
    thresholds = dict(thresholds or {})
    for path in ignore:
        thresholds.setdefault(path, "ignore")
    flat_base = flatten_report(base)
    flat_new = flatten_report(new)
    entries: list[DiffEntry] = []
    for metric in sorted(set(flat_base) | set(flat_new)):
        tolerance = _tolerance_for(metric, thresholds, default_tolerance)
        if tolerance is None:
            continue
        a = flat_base.get(metric)
        b = flat_new.get(metric)
        if a == b:
            continue
        if (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and not isinstance(a, bool)
            and not isinstance(b, bool)
        ):
            if a == 0:
                pct = math.inf if b else 0.0
            else:
                pct = 100.0 * (b - a) / abs(a)
            if abs(pct) <= tolerance:
                continue
            entries.append(DiffEntry(metric, a, b, pct, tolerance))
        else:
            # Non-numeric or one-sided: tolerance cannot apply.
            entries.append(DiffEntry(metric, a, b, None, tolerance))
    return entries


# -------------------------------------------------------------------- trend


def trend_rows(
    reports: list[tuple[str, dict]], metric: str = "simulated_cycles"
) -> list[dict]:
    """Per-report values of one metric path, with deltas vs previous.

    Args:
        reports: ``(name, report dict)`` pairs in presentation order
            (callers typically sort by filename — encode run order
            there).
        metric: Flattened metric path (see :func:`flatten_report`).
    """
    rows: list[dict] = []
    previous: Optional[float] = None
    for name, obj in reports:
        value = flatten_report(obj).get(metric)
        row: dict = {"name": name, "value": value}
        if (
            isinstance(value, (int, float))
            and isinstance(previous, (int, float))
            and previous != 0
        ):
            row["delta_pct"] = round(
                100.0 * (value - previous) / abs(previous), 4
            )
        if isinstance(value, (int, float)):
            previous = value
        rows.append(row)
    return rows


def load_report_dir(directory: str) -> list[tuple[str, dict]]:
    """All ``*.json`` report files in a directory, sorted by filename."""
    names = sorted(
        entry for entry in os.listdir(directory) if entry.endswith(".json")
    )
    out = []
    for name in names:
        out.append((name, load_report(os.path.join(directory, name))))
    return out
