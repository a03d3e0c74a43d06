"""Render, diff and trend canonical run reports.

Usage::

    python -m repro.tools.report show REPORT [--format text|json|markdown]
    python -m repro.tools.report diff BASELINE NEW
        [--tolerance PATH=PCT ...] [--default-tolerance PCT]
        [--include-wall] [--format text|json]
    python -m repro.tools.report trend DIR [--metric PATH]
        [--format text|json]
    python -m repro.tools.report validate TRACE.json
    python -m repro.tools.report emit DIR [--quick] [--policy P]
        [--target NAME ...]

``show`` pretty-prints one report (produced by ``repro.tools.run
--report`` or ``emit``).  ``diff`` compares two
reports metric-by-metric: every flattened path (``simulated_cycles``,
``counters.dma.gets``, ``histograms.dma.wait_cycles[dma0].p90``, …)
must match within its tolerance, which defaults to exact for simulated
quantities and *ignored* for ``wall_seconds``.  ``trend`` walks a
directory of historical reports (sorted by filename) and tabulates one
metric over time.  ``validate`` checks a Chrome trace exported by
``repro.tools.run --trace`` against the structural trace-event rules
Perfetto relies on and prints any problems.  ``emit`` writes one
canonical report per cell of the bench matrix (:func:`emit_run_reports`,
no timing and no ``BENCH_vm.json``): with no flags, the files
``baselines/reports/`` holds.

Exit status follows the checker convention (:mod:`repro.tools.check`):

* 0 — clean: reports load and match within tolerances.
* 1 — the tool could not do its job (missing/malformed file, unknown
  metric path, bad tolerance spec), or the trace ``validate`` was
  given has problems.
* 3 — differences beyond tolerance (``diff`` only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.game.sources import (
    ai_kernel_source,
    figure2_source,
    game_demo_source,
    move_loop_source,
    word_struct_source,
)
from repro.obs import MetricsHub, save_report
from repro.obs.export import validate_chrome_trace
from repro.obs.report import (
    DEFAULT_IGNORE,
    ReportError,
    diff_reports,
    flatten_report,
    load_report,
    load_report_dir,
    trend_rows,
)
from repro.runspec import FarmJob, job_report, prepare, simulate
from repro.tools.flags import add_policy_flag, add_target_flag

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_DIFFERENCES = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render one report")
    show.add_argument("report", help="report JSON file")
    show.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text"
    )

    diff = sub.add_parser("diff", help="compare two reports")
    diff.add_argument("baseline", help="baseline report JSON file")
    diff.add_argument("new", help="new report JSON file")
    diff.add_argument(
        "--tolerance", action="append", default=[], metavar="PATH=PCT",
        help="per-metric tolerance in percent; longest prefix wins; "
        "PCT may be 'ignore' (e.g. --tolerance derived=1.5 "
        "--tolerance counters.softcache=ignore)",
    )
    diff.add_argument(
        "--default-tolerance", type=float, default=0.0, metavar="PCT",
        help="tolerance for paths without a --tolerance entry "
        "(default: 0, exact match)",
    )
    diff.add_argument(
        "--include-wall", action="store_true",
        help="also compare wall_seconds (ignored by default)",
    )
    diff.add_argument("--format", choices=("text", "json"), default="text")

    trend = sub.add_parser("trend", help="tabulate a metric across reports")
    trend.add_argument("directory", help="directory of report JSON files")
    trend.add_argument(
        "--metric", default="simulated_cycles", metavar="PATH",
        help="flattened metric path (default: simulated_cycles)",
    )
    trend.add_argument("--format", choices=("text", "json"), default="text")

    validate = sub.add_parser(
        "validate", help="check an exported Chrome trace's structure"
    )
    validate.add_argument("trace", help="Chrome trace JSON file")

    emit = sub.add_parser(
        "emit", help="write the bench matrix's run reports (untimed)"
    )
    emit.add_argument("directory", help="where the reports go")
    emit.add_argument(
        "--quick", action="store_true", help="the bench's smaller workloads"
    )
    add_policy_flag(
        emit,
        help="run the workload matrix under this scheduling policy "
             "(default: compat mode, no explicit scheduling)",
    )
    add_target_flag(
        emit, action="append", default=None, dest="targets",
        metavar="NAME",
        help="target(s) of the portability reports; repeat to add more "
             "(default: cell, apu, manycore)",
    )
    return parser


#: Default targets for the per-target game-frame portability section:
#: the paper's distributed-memory machine plus the two registry presets
#: whose cost structures bracket it (unified memory / many accelerators).
BENCH_TARGETS = ("cell", "apu", "manycore")


def workloads(quick: bool) -> list[dict]:
    """The benchmark matrix.  ``game-frame`` is the headline workload."""
    scale = 1 if quick else 2
    return [
        {
            "name": "game-frame",
            "description": "Figure 2 frame loop, offloaded (headline)",
            "source": figure2_source(
                entity_count=48 * scale,
                pair_count=32 * scale,
                frames=2 * scale,
            ),
            "config": "cell",
        },
        {
            "name": "game-frame-sequential",
            "description": "Figure 2 frame loop, host only",
            "source": figure2_source(
                entity_count=48 * scale,
                pair_count=32 * scale,
                frames=2 * scale,
                offloaded=False,
            ),
            "config": "cell",
        },
        {
            "name": "ai-kernel-cached",
            "description": "Section 4.1 AI pass through a direct cache",
            "source": ai_kernel_source(entity_count=32 * scale),
            "config": "cell",
        },
        {
            "name": "move-loop-accessor",
            "description": "Section 4.2 locality loop, accessor-staged",
            "source": move_loop_source(
                object_count=32 * scale, use_accessor=True, cache="direct"
            ),
            "config": "cell",
        },
        {
            "name": "word-struct",
            "description": "Section 5 word-addressed packet loop",
            "source": word_struct_source(packet_count=32 * scale),
            "config": "dsp",
        },
        {
            "name": "game-demo",
            "description": "Whole-frame pipeline, three offloads per frame",
            "source": game_demo_source(
                entity_count=16 * scale,
                pair_count=12 * scale,
                particles=8 * scale,
                frames=scale,
            ),
            "config": "cell",
        },
    ]


def portability_jobs(quick: bool, targets) -> list[FarmJob]:
    """The 4-frame game frame under the locality policy, once per target."""
    scale = 1 if quick else 2
    source = figure2_source(
        entity_count=48 * scale, pair_count=32 * scale, frames=4
    )
    return [
        FarmJob(
            "game-frame-portability", source=source, target=target,
            engine="codegen", policy="locality",
        )
        for target in targets
    ]


def emit_run_reports(
    quick: bool, targets, directory: str, policy=None
) -> list[str]:
    """One canonical :class:`~repro.obs.report.RunReport` per cell of the
    bench matrix (:func:`workloads`, :func:`portability_jobs`; the
    matrix ``repro.tools.bench`` times), written to ``directory``.

    Each workload of the matrix gets one run with a metrics hub
    attached, reported as ``{workload}__{target}.json``; the game-frame
    portability section adds ``game-frame-portability__{target}.json``
    per target.  Nothing is timed, and reports carry no wall-clock, so
    the files are byte-reproducible and committed as CI baselines.
    """
    jobs = [
        FarmJob(
            spec["name"], source=spec["source"], target=spec["config"],
            engine="codegen", policy=policy,
        )
        for spec in workloads(quick)
    ] + portability_jobs(quick, targets)
    os.makedirs(directory, exist_ok=True)
    written = []
    for job in jobs:
        hub = MetricsHub()
        result = simulate(prepare(job).program, job, hub=hub)
        path = os.path.join(directory, f"{job.workload}__{job.target}.json")
        save_report(job_report(result, job, hub), path)
        written.append(path)
    return written


def cmd_emit(args) -> int:
    written = emit_run_reports(
        args.quick, args.targets or BENCH_TARGETS, args.directory, args.policy
    )
    print(f"-- {len(written)} run reports -> {args.directory}")
    return EXIT_CLEAN


# ------------------------------------------------------------------ show


_SUMMARY_FIELDS = (
    "workload", "target", "engine", "policy", "queue_depth",
    "simulated_cycles", "host_cycles", "instructions", "wall_seconds",
)


def format_report_text(obj: dict) -> str:
    lines = ["run report"]
    for key in _SUMMARY_FIELDS:
        lines.append(f"  {key:<18} {obj.get(key)}")
    for section in ("derived", "gauges", "counters"):
        values = obj.get(section) or {}
        if values:
            lines.append(f"{section}:")
            for key in sorted(values):
                lines.append(f"  {key:<34} {values[key]}")
    histograms = obj.get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        lines.append(
            f"  {'metric':<34} {'count':>8} {'min':>8} {'p50':>8} "
            f"{'p90':>8} {'max':>8}"
        )
        for key in sorted(histograms):
            h = histograms[key]
            lines.append(
                f"  {key:<34} {h['count']:>8} {h['min']:>8} {h['p50']:>8} "
                f"{h['p90']:>8} {h['max']:>8}"
            )
    sched = obj.get("sched") or {}
    if sched:
        lines.append("sched:")
        for key in (
            "policy", "queue_depth", "jobs", "stalls", "stall_cycles",
            "uploads", "busy_cycles", "queue_high_water", "utilization",
        ):
            if key in sched:
                lines.append(f"  {key:<34} {sched[key]}")
    diagnostics = obj.get("diagnostics") or []
    if diagnostics:
        lines.append("diagnostics:")
        for item in diagnostics:
            lines.append(f"  {item}")
    return "\n".join(lines)


def format_report_markdown(obj: dict) -> str:
    lines = [
        f"## Run report: {obj.get('workload')} on {obj.get('target')}",
        "",
        "| field | value |",
        "| --- | --- |",
    ]
    for key in _SUMMARY_FIELDS:
        lines.append(f"| {key} | {obj.get(key)} |")
    for section in ("derived", "gauges", "counters"):
        values = obj.get(section) or {}
        if values:
            lines += ["", f"### {section}", "", "| metric | value |",
                      "| --- | --- |"]
            for key in sorted(values):
                lines.append(f"| {key} | {values[key]} |")
    histograms = obj.get("histograms") or {}
    if histograms:
        lines += ["", "### histograms", "",
                  "| metric | count | min | p50 | p90 | max |",
                  "| --- | --- | --- | --- | --- | --- |"]
        for key in sorted(histograms):
            h = histograms[key]
            lines.append(
                f"| {key} | {h['count']} | {h['min']} | {h['p50']} "
                f"| {h['p90']} | {h['max']} |"
            )
    return "\n".join(lines)


def cmd_show(args) -> int:
    obj = load_report(args.report)
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    elif args.format == "markdown":
        print(format_report_markdown(obj))
    else:
        print(format_report_text(obj))
    return EXIT_CLEAN


# ------------------------------------------------------------------ diff


def parse_tolerances(specs: list[str]) -> dict:
    """``PATH=PCT`` pairs -> thresholds dict; PCT may be ``ignore``."""
    thresholds: dict = {}
    for spec in specs:
        path, sep, value = spec.partition("=")
        if not sep or not path:
            raise ValueError(
                f"bad --tolerance {spec!r}, expected PATH=PCT"
            )
        if value == "ignore":
            thresholds[path] = "ignore"
        else:
            try:
                thresholds[path] = float(value)
            except ValueError:
                raise ValueError(
                    f"bad --tolerance {spec!r}: {value!r} is not a "
                    f"number or 'ignore'"
                ) from None
    return thresholds


def cmd_diff(args) -> int:
    thresholds = parse_tolerances(args.tolerance)
    base = load_report(args.baseline)
    new = load_report(args.new)
    ignore = () if args.include_wall else DEFAULT_IGNORE
    entries = diff_reports(
        base, new,
        thresholds=thresholds,
        default_tolerance=args.default_tolerance,
        ignore=ignore,
    )
    if args.format == "json":
        print(json.dumps(
            [
                {
                    "metric": e.metric, "base": e.base, "new": e.new,
                    "pct": None if e.pct is None else round(e.pct, 4),
                    "tolerance": e.tolerance,
                }
                for e in entries
            ],
            sort_keys=True,
        ))
    else:
        if not entries:
            print(
                f"reports match: {args.new} vs baseline {args.baseline}"
            )
        else:
            print(
                f"{len(entries)} difference(s): {args.new} vs baseline "
                f"{args.baseline}"
            )
            for entry in entries:
                print(f"  {entry.describe()}")
    return EXIT_DIFFERENCES if entries else EXIT_CLEAN


# ------------------------------------------------------------------ trend


def cmd_trend(args) -> int:
    reports = load_report_dir(args.directory)
    if not reports:
        print(f"no report files in {args.directory}", file=sys.stderr)
        return EXIT_ERROR
    known = set(flatten_report(reports[0][1]))
    if args.metric not in known:
        print(
            f"metric {args.metric!r} not present in {reports[0][0]}; "
            f"try e.g. {', '.join(sorted(known)[:6])}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    rows = trend_rows(reports, args.metric)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
        return EXIT_CLEAN
    print(f"{args.metric}:")
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        delta = row.get("delta_pct")
        suffix = "" if delta is None else f"  ({delta:+.2f}%)"
        print(f"  {row['name']:<{width}}  {row['value']}{suffix}")
    return EXIT_CLEAN


# --------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    with open(args.trace, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    problems = validate_chrome_trace(trace)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"-- {args.trace}: {len(problems)} problem(s)", file=sys.stderr)
        return EXIT_ERROR
    count = len(trace.get("traceEvents", []))
    print(f"-- {args.trace}: valid Chrome trace ({count} events)",
          file=sys.stderr)
    return EXIT_CLEAN


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "show":
            return cmd_show(args)
        if args.command == "diff":
            return cmd_diff(args)
        if args.command == "trend":
            return cmd_trend(args)
        if args.command == "emit":
            return cmd_emit(args)
        return cmd_validate(args)
    except (ReportError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
