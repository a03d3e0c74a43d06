"""``--validate`` and ``--agree``: checks on the benchmark's own files.

``validate`` holds ``BENCHMARK.json`` against the declaration in
:mod:`perfbench.spec` and, given a results file, checks that every
printed metric is declared and every declared metric printed.  ``agree``
compares two result sets of one commit, metric by metric, against the
benchmark's own bounds: the repeatability criterion.
"""

from __future__ import annotations

import json
import os
import re

from perfbench import spec
from perfbench.hygiene import ROOT

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _declaration_problems() -> list[str]:
    problems = []
    e2e_names = {m.name for m in spec.END_TO_END}
    if not 2 <= len(spec.WORKLOADS) <= 8:
        problems.append(f"{len(spec.WORKLOADS)} workloads (want 2 to 8)")
    if not 1 <= len(spec.END_TO_END) <= 16:
        problems.append(f"{len(spec.END_TO_END)} end-to-end metrics")
    if not 1 <= len(spec.PER_LAYER) <= 128:
        problems.append(f"{len(spec.PER_LAYER)} per-layer metrics")
    names = (list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END]
             + [m.name for m in spec.PER_LAYER])
    for name in names:
        if not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"name {name!r} is used more than once")
    for name, why in spec.WORKLOADS.items():
        if not why or "\n" in why or len(why) > 200:
            problems.append(f"workload {name}: needs a one-line reason "
                            f"of at most 200 characters")
    for metric in spec.END_TO_END + spec.PER_LAYER:
        if not _UNIT.match(metric.unit):
            problems.append(f"{metric.name}: bad unit {metric.unit!r}")
        if metric.better not in ("lower", "higher"):
            problems.append(f"{metric.name}: bad direction {metric.better!r}")
    for metric in spec.END_TO_END:
        if not 0 <= metric.bound <= 0.25:
            problems.append(f"{metric.name}: bound {metric.bound} "
                            f"outside 0..0.25")
    setup = [m for m in spec.END_TO_END if m.name == "setup_s"]
    if not setup or setup[0].unit != "s" or setup[0].better != "lower":
        problems.append("end-to-end metrics need setup_s (s, lower)")
    for metric in spec.PER_LAYER:
        if not metric.moves and metric.layer != "bench":
            problems.append(f"{metric.name}: names no end-to-end metric "
                            f"it should move")
        for moved in metric.moves:
            if moved not in e2e_names:
                problems.append(f"{metric.name}: moves unknown end-to-end "
                                f"metric {moved!r}")
        if not metric.on:
            problems.append(f"{metric.name}: names no workload")
        for workload in metric.on:
            if workload not in spec.WORKLOADS:
                problems.append(f"{metric.name}: unknown workload "
                                f"{workload!r}")
    return problems


def _result_problems(results: dict) -> list[str]:
    problems = []
    declared = {
        0: {m.name: m.unit for m in spec.END_TO_END},
        1: {m.name: m.unit for m in spec.PER_LAYER},
    }
    for run in results.get("runs", []):
        where = f"{run.get('workload')} trace={run.get('trace')}"
        if run.get("workload") not in spec.WORKLOADS:
            problems.append(f"{where}: unknown workload")
            continue
        want = declared[run["trace"]]
        got = run["metrics"]
        for name in sorted(set(got) - set(want)):
            problems.append(f"{where}: prints undeclared metric {name}")
        for name in sorted(set(want) - set(got)):
            problems.append(f"{where}: does not print declared {name}")
        for name in sorted(set(want) & set(got)):
            if got[name]["unit"] != want[name]:
                problems.append(f"{where}: {name} printed in "
                                f"{got[name]['unit']}, declared {want[name]}")
    return problems


def validate(results_path: str | None) -> int:
    """Exit status 0 when ``BENCHMARK.json`` (and the results file)
    match the declaration."""
    problems = _declaration_problems()
    committed = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if committed != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from perfbench.spec "
                        "(regenerate it from spec.benchmark_json())")
    if results_path:
        problems += _result_problems(_load(results_path))
    for problem in problems:
        print(f"problem: {problem}")
    print(f"-- {len(problems)} problem(s)")
    return 1 if problems else 0


def _runs_by_key(results: dict) -> dict[tuple[str, int], dict]:
    return {(run["workload"], run["trace"]): run for run in results["runs"]}


def agree(path_a: str, path_b: str) -> int:
    """Two result sets of one commit: timings within the end-to-end
    bounds, counts exactly equal.  One row per workload x metric."""
    runs_a = _runs_by_key(_load(path_a))
    runs_b = _runs_by_key(_load(path_b))
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    exact = {m.name for m in spec.PER_LAYER if m.unit in spec.EXACT_UNITS}
    breaches = 0
    for key in sorted(set(runs_a) | set(runs_b)):
        workload, trace = key
        if key not in runs_a or key not in runs_b:
            print(f"{workload:16s} trace={trace}: in one result set only")
            breaches += 1
            continue
        metrics_a = runs_a[key]["metrics"]
        metrics_b = runs_b[key]["metrics"]
        for name in sorted(set(metrics_a) & set(metrics_b)):
            a, b = metrics_a[name]["value"], metrics_b[name]["value"]
            if name in bounds:
                base = min(abs(a), abs(b))
                gap = abs(a - b) / base if base else float(a != b)
                ok = gap <= bounds[name]
                rule = f"within {bounds[name]:.0%}"
            elif name in exact:
                gap = float(a != b)
                ok = a == b
                rule = "exact"
            else:
                continue  # per-layer timings diagnose, they do not gate
            breaches += not ok
            print(f"{workload:16s} {name:32s} {a:14.6f} {b:14.6f} "
                  f"{gap:8.2%} {rule:12s} {'ok' if ok else 'BREACH'}")
    print(f"-- {breaches} breach(es)")
    return 1 if breaches else 0
