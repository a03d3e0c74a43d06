"""Compile and run an OffloadMini source file (or a compiled artifact).

Usage::

    python -m repro.tools.run program.om [--target cell|smp|dsp|apu|manycore]
        [--optimize] [--demand-load] [--cache none|direct|setassoc|victim]
        [--wordaddr hybrid|emulate] [--engine codegen|reference]
        [--policy greedy|least-loaded|locality|critical-path]
        [--queue-depth N] [--trace FILE]
        [--trace-format chrome|timeline|profile] [--report FILE]
        [--dump-ir] [--perf] [--record-races] [--dump-codegen]
        [--dump-after PASS] [--time-passes] [--cache-dir DIR]
        [--emit-artifact PATH]

The target, compile, engine and scheduling flags are the shared ones
of :mod:`repro.tools.flags` (``--engine`` defaults to
:data:`repro.vm.DEFAULT_ENGINE`).  They describe one
:class:`repro.runspec.FarmJob`, run through the same ``prepare`` →
``simulate`` → ``job_report`` steps as a farm job; only ``--dump-after``
/ ``--time-passes`` drive the pass pipeline directly.

This is the one tool that traces a run.  ``--trace FILE`` records the
run's cycle-stamped events and exports them in ``--trace-format``; a run
that traps still writes the events recorded up to the trap.  With
``--time-passes`` the trace also holds the compile passes as
``compile``-track spans, which carry wall-clock microseconds, so such a
file is not run-to-run byte-identical.  When ``--trace`` or ``--report``
is ``-`` (stdout), the program's output goes to stderr so stdout holds
only the artefact; the two cannot both be ``-``.

A ``.json`` input is loaded as a serialized program artifact (see
``--emit-artifact`` and :mod:`repro.ir.serialize`) instead of being
compiled; compilation flags are then ignored, and the machine is the
one the artifact was compiled for.

Exit status: 0 on success, 1 on compile errors, 2 on runtime traps.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.compiler.cache import cache_at
from repro.compiler.passes import DEFAULT_PASS_NAMES, PassManager, format_timings
from repro.errors import CompileError, ReproError
from repro.ir.printer import format_program
from repro.ir.serialize import load_program, save_program
from repro.machine.config import resolve_target
from repro.obs import (
    NULL_RECORDER,
    MetricsHub,
    TraceRecorder,
    chrome_trace_json,
    format_profile,
    format_timeline,
    offload_profile,
    report_json,
    save_report,
)
from repro.runspec import FarmJob, job_report, prepare, simulate
from repro.tools.flags import (
    add_compile_flags,
    add_engine_flag,
    add_policy_flag,
    add_queue_depth_flag,
    add_target_flag,
    compile_options,
    read_source,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "source", help="OffloadMini source file (or .json program artifact)"
    )
    add_target_flag(parser)
    add_compile_flags(parser)
    add_engine_flag(parser)
    add_policy_flag(
        parser,
        help="offload scheduling policy (enables explicit scheduling: "
             "upload modelling, sched.* trace events, utilization summary)",
    )
    add_queue_depth_flag(
        parser, note=". Implies --policy greedy when no policy is given"
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a cycle-accurate event trace of the run to FILE "
             "('-' for stdout)",
    )
    parser.add_argument(
        "--trace-format", choices=["chrome", "timeline", "profile"],
        default="chrome",
        help="trace export format (default: chrome, the Chrome/Perfetto "
             "trace_event JSON)",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write a canonical JSON run report (counters, histograms, "
             "derived metrics) to FILE ('-' for stdout); render/compare "
             "with repro.tools.report",
    )
    parser.add_argument("--dump-ir", action="store_true",
                        help="print the compiled IR instead of running")
    parser.add_argument(
        "--dump-after", choices=list(DEFAULT_PASS_NAMES), default=None,
        metavar="PASS",
        help="run the pipeline through PASS, print its dump, and exit "
             f"(one of: {', '.join(DEFAULT_PASS_NAMES)})",
    )
    parser.add_argument(
        "--time-passes", action="store_true",
        help="print per-pass compile timings to stderr",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed compile cache directory "
             "(also via REPRO_COMPILE_CACHE)",
    )
    parser.add_argument(
        "--emit-artifact", default=None, metavar="PATH",
        help="write the compiled program as a JSON artifact and exit",
    )
    parser.add_argument("--perf", action="store_true",
                        help="print performance counters after the run")
    parser.add_argument(
        "--record-races", action="store_true",
        help="record DMA races instead of aborting on the first one",
    )
    parser.add_argument(
        "--dump-codegen", action="store_true",
        help="print the codegen engine's generated Python module for "
             "the compiled program instead of running it",
    )
    return parser


def export_trace(recorder, fmt: str) -> str:
    """Render a recorder in one of the ``--trace-format`` flavours."""
    if fmt == "chrome":
        return chrome_trace_json(recorder)
    if fmt == "timeline":
        return format_timeline(recorder)
    return format_profile(offload_profile(recorder))


def write_trace(recorder, path: str, fmt: str) -> None:
    """Export ``recorder`` to ``path`` ('-' for stdout), warning on
    stderr when the ring buffer wrapped and the capture is truncated."""
    text = export_trace(recorder, fmt)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"-- trace: {len(recorder)} events -> {path}", file=sys.stderr
        )
    if recorder.dropped:
        print(
            f"warning: trace truncated, {recorder.dropped} oldest events "
            f"dropped (raise the recorder capacity, currently "
            f"{recorder.capacity})",
            file=sys.stderr,
        )


def _run_pass_pipeline(args, job: FarmJob, recorder):
    """``--dump-after`` / ``--time-passes``: drive the pass pipeline
    itself, bypassing cache and warm-up so every pass runs and is timed
    (and, given a recorder, traced as ``compile``-track spans).
    Returns the program, or None when ``--dump-after`` ended the job."""
    ctx = PassManager.default().run(
        job.source,
        resolve_target(job.target),
        job.options,
        filename=args.source,
        stop_after=args.dump_after,
        dump_after=(args.dump_after,) if args.dump_after else (),
        trace=recorder if recorder is not None else NULL_RECORDER,
    )
    if args.time_passes:
        print(format_timings(ctx.timings), file=sys.stderr)
    if args.dump_after is not None:
        print(ctx.dumps[args.dump_after])
        return None
    return ctx.program


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace == "-" and args.report == "-":
        print("error: --trace and --report cannot both write to stdout",
              file=sys.stderr)
        return 1
    recorder = TraceRecorder() if args.trace is not None else None
    spec = dict(
        workload=os.path.splitext(os.path.basename(args.source))[0],
        engine=args.engine,
        policy=args.policy,
        queue_depth=args.queue_depth,
    )
    try:
        if args.source.endswith(".json"):
            # An artifact names its own machine, so it is loaded here —
            # not by prepare() — to learn the target the job must name.
            program = load_program(args.source)
            target = args.target
            if program.target_name != resolve_target(target).name:
                target = program.target_name
            job = FarmJob(artifact=args.source, target=target, **spec)
        else:
            source = read_source(args.source)
            if source is None:
                return 1
            job = FarmJob(
                source=source, target=args.target,
                options=compile_options(args), **spec,
            )
            if args.dump_after is not None or args.time_passes:
                program = _run_pass_pipeline(args, job, recorder)
                if program is None:
                    return 0
            else:
                cache = cache_at(args.cache_dir) if args.cache_dir else None
                program = prepare(
                    job, cache=cache, filename=args.source
                ).program
    except CompileError as error:
        print(error, file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        # unreadable / malformed artifact or one for an unknown machine,
        # --queue-depth < 0, an unknown engine name in REPRO_VM_ENGINE
        print(f"error: {error}", file=sys.stderr)
        return 1
    config = resolve_target(job.target)
    if args.emit_artifact is not None:
        try:
            save_program(program, args.emit_artifact)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"-- artifact written to {args.emit_artifact}", file=sys.stderr)
        return 0
    if args.dump_ir:
        print(format_program(program))
        return 0
    if args.dump_codegen:
        from repro.vm.codegen import (
            LADDER_MARK,
            CodegenStats,
            generate_module_source,
        )

        stats = CodegenStats()
        source_text = generate_module_source(program, config.cost, stats)
        print(source_text)
        print(
            f"-- codegen: {len(program.functions)} functions, "
            f"{len(source_text.splitlines())} lines, "
            f"{source_text.count(LADDER_MARK)} ladders, "
            f"{stats.proven_wraps} wraps proven",
            file=sys.stderr,
        )
        return 0
    hub = MetricsHub() if args.report is not None else None
    started = time.perf_counter()
    try:
        result = simulate(
            program, job, trace=recorder, hub=hub,
            racecheck="record" if args.record_races else "raise",
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        if recorder is not None:
            write_trace(recorder, args.trace, args.trace_format)
        return 2
    # Program output must not interleave with an artefact on stdout.
    out = sys.stderr if "-" in (args.trace, args.report) else sys.stdout
    for core, value in result.output:
        print(f"[{core}] {value}", file=out)
    if recorder is not None:
        write_trace(recorder, args.trace, args.trace_format)
    if args.report is not None:
        report = job_report(
            result, job, hub, wall_seconds=time.perf_counter() - started
        )
        if args.report == "-":
            sys.stdout.write(report_json(report))
        else:
            save_report(report, args.report)
            print(f"-- report written to {args.report}", file=sys.stderr)
    print(f"-- {result.cycles} simulated cycles on {config.name}", file=sys.stderr)
    if job.explicit_sched():
        st = result.sched
        util = ", ".join(
            f"acc{i}={u:.0%}"
            for i, u in enumerate(st.utilization(result.cycles))
        )
        print(
            f"-- sched: policy={st.policy} jobs={st.jobs} "
            f"uploads={st.uploads} stalls={st.stalls} "
            f"(+{st.stall_cycles} cycles) "
            f"queue-high-water={st.queue_high_water}",
            file=sys.stderr,
        )
        print(f"-- sched utilization: {util}", file=sys.stderr)
    for finding in result.diagnostics:
        print(finding.render(), file=sys.stderr)
    if result.races:
        print(f"-- {len(result.races)} DMA race(s) recorded:", file=sys.stderr)
        for race in result.races:
            print(f"   {race.describe()}", file=sys.stderr)
    if args.perf:
        for name, value in sorted(result.perf().items()):
            print(f"   {name:32s} {value}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
