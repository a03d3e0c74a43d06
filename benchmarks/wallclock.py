"""Wall-clock comparison of the two execution engines.

Thin entry point over :mod:`repro.tools.bench` so the benchmark lives
alongside the paper-experiment suites::

    PYTHONPATH=src python benchmarks/wallclock.py [--quick] [--out BENCH_vm.json]
    PYTHONPATH=src python benchmarks/wallclock.py --validate BENCH_vm.json

Unlike the ``test_e*`` suites (which measure *simulated cycles* and are
engine-independent by construction), this measures *host seconds*: how
fast the simulator itself executes under the source-codegen engine
versus the reference decode loop, workload by workload.  One-time
translation cost is timed separately (the ``codegen_translate_seconds``
column) so the per-engine simulation times — and the
``codegen_speedup`` ratio derived from them — are not polluted by the
first-run translation cost.

``--validate`` checks a previously written ``BENCH_vm.json`` instead of
benchmarking: schema version, required sections, and that every
workload row carries its timing and counter columns.  A truncated or
hand-edited report exits non-zero, so CI can gate on report integrity
before reading numbers out of it.
"""

import json
import sys

from repro.tools.bench import BENCH_ENGINES, BENCH_SCHEMA_VERSION, main

#: Columns every workload row must carry for the report to be usable.
_WORKLOAD_FIELDS = (
    "name",
    "simulated_cycles",
    "reference_seconds",
    "codegen_seconds",
    "codegen_speedup",
    "engines_identical",
    "perf_counters",
)

_SECTIONS = (
    "workloads",
    "scheduler",
    "targets",
    "summary",
)


def validate_bench_report(obj: object) -> list[str]:
    """Problems with a loaded ``BENCH_vm.json``; empty means valid."""
    if not isinstance(obj, dict):
        return [f"report must be a JSON object, got {type(obj).__name__}"]
    problems: list[str] = []
    if obj.get("benchmark") != "vm-engine-wallclock":
        problems.append(
            f"benchmark must be 'vm-engine-wallclock', "
            f"got {obj.get('benchmark')!r}"
        )
    version = obj.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, got {version!r}"
            + (" (regenerate with repro.tools.bench)" if version is None
               else "")
        )
    for section in _SECTIONS:
        if section not in obj:
            problems.append(f"missing section {section!r}")
    workloads = obj.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        problems.append("'workloads' must be a non-empty list")
        workloads = []
    for index, row in enumerate(workloads):
        if not isinstance(row, dict):
            problems.append(f"workloads[{index}]: not an object")
            continue
        where = f"workloads[{index}] ({row.get('name', '?')})"
        for column in _WORKLOAD_FIELDS:
            if column not in row:
                problems.append(f"{where}: missing column {column!r}")
        if row.get("engines_identical") is False:
            problems.append(f"{where}: engines diverged during the bench")
    scheduler = obj.get("scheduler")
    if isinstance(scheduler, dict):
        policies = scheduler.get("policies")
        if not isinstance(policies, dict) or not policies:
            problems.append("'scheduler.policies' must be a non-empty object")
    summary = obj.get("summary")
    if isinstance(summary, dict):
        for key in ("geomean_codegen_speedup", "all_identical"):
            if key not in summary:
                problems.append(f"summary: missing {key!r}")
    return problems


def _validate_file(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = validate_bench_report(obj)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"-- {path}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    count = len(obj.get("workloads", []))
    print(
        f"-- {path}: valid bench report (schema v{BENCH_SCHEMA_VERSION}, "
        f"{count} workloads, {len(BENCH_ENGINES)} engines)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--validate":
        if len(sys.argv) != 3:
            print("usage: wallclock.py --validate BENCH_vm.json",
                  file=sys.stderr)
            sys.exit(1)
        sys.exit(_validate_file(sys.argv[2]))
    sys.exit(main())
