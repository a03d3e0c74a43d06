"""Trace an OffloadMini program and export the event timeline.

Usage::

    python -m repro.tools.trace program.om [--target cell|smp|dsp|apu|manycore]
        [--optimize] [--demand-load] [--cache none|direct|setassoc|victim]
        [--wordaddr hybrid|emulate] [--engine codegen|reference]
        [--format chrome|timeline|profile] [--out FILE]
        [--capacity N] [--frame-marker SUFFIX] [--compile-spans]

    python -m repro.tools.trace --validate TRACE.json

The first form compiles the program, runs it with a
:class:`~repro.obs.trace.TraceRecorder` attached, and writes the export
to ``--out`` (stdout by default).  The target, compile and engine flags
are the shared ones of :mod:`repro.tools.flags` (``--engine`` defaults
to :data:`repro.vm.DEFAULT_ENGINE`).  ``--compile-spans`` additionally
runs the compilation through the pass manager with per-pass span events
on the ``compile`` track — note those spans carry *wall-clock*
microseconds, so the export is no longer run-to-run byte-identical.

The second form loads an exported Chrome trace JSON file and checks it
against the structural trace-event rules Perfetto relies on, printing
any problems; exit status 0 means the file validates.

Exit status: 0 on success, 1 on compile/validation errors, 2 on runtime
traps.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.compiler.passes import PassManager
from repro.errors import CompileError, ReproError
from repro.machine.config import resolve_target
from repro.obs import TraceRecorder, validate_chrome_trace
from repro.runspec import FarmJob, prepare, simulate
from repro.tools.flags import (
    TRACE_FORMATS,
    add_compile_flags,
    add_engine_flag,
    add_target_flag,
    compile_options,
    read_source,
)
from repro.tools.run import write_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "source", nargs="?", default=None,
        help="OffloadMini source file to trace",
    )
    parser.add_argument(
        "--validate", default=None, metavar="FILE",
        help="validate an exported Chrome trace JSON file and exit",
    )
    add_target_flag(parser)
    add_compile_flags(parser)
    add_engine_flag(parser)
    parser.add_argument(
        "--format", choices=list(TRACE_FORMATS),
        default="chrome", dest="fmt",
        help="export format (default: chrome trace_event JSON)",
    )
    parser.add_argument(
        "--out", default="-", metavar="FILE",
        help="output path (default: stdout)",
    )
    parser.add_argument(
        "--capacity", type=int, default=1 << 20,
        help="recorder ring capacity in events (default: 1048576)",
    )
    parser.add_argument(
        "--frame-marker", default="doFrame", metavar="SUFFIX",
        help="function-name suffix that marks frame boundaries "
             "(default: doFrame; empty string disables)",
    )
    parser.add_argument(
        "--compile-spans", action="store_true",
        help="include wall-clock compile-pass spans in the trace "
             "(breaks run-to-run byte-identity)",
    )
    return parser


def _validate_file(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"-- {path}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    count = len(trace.get("traceEvents", []))
    print(f"-- {path}: valid Chrome trace ({count} events)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate is not None:
        return _validate_file(args.validate)
    if args.source is None:
        print("error: a source file (or --validate) is required",
              file=sys.stderr)
        return 1
    source = read_source(args.source)
    if source is None:
        return 1
    try:
        recorder = TraceRecorder(
            capacity=args.capacity,
            frame_marker=args.frame_marker or None,
        )
        job = FarmJob(
            workload=args.source, source=source, target=args.target,
            engine=args.engine, options=compile_options(args),
        )
        if args.compile_spans:
            # Pass spans come from the pass pipeline itself, so this
            # one mode drives it directly instead of prepare().
            program = PassManager.default().run(
                source, resolve_target(job.target), job.options,
                filename=args.source, trace=recorder,
            ).program
        else:
            program = prepare(job, filename=args.source).program
    except CompileError as error:
        print(error, file=sys.stderr)
        return 1
    except ValueError as error:
        # --capacity <= 0, an unknown engine name in REPRO_VM_ENGINE
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        result = simulate(program, job, trace=recorder)
    except ReproError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return 2
    write_trace(recorder, args.out, args.fmt)
    print(
        f"-- {result.cycles} simulated cycles on "
        f"{result.machine.config.name}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
