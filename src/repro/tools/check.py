"""Static checks for OffloadMini sources.

Usage::

    python -m repro.tools.check program.om [more.om ...]
        [--target cell|smp|dsp|apu|manycore | --all-targets]
        [--format text|json|sarif] [--fail-on error|warning]
        [--baseline FILE | --write-baseline FILE]
        [--corpus game] [--out FILE] [--time-passes] [--trace FILE]

Runs the full front end and lowering, then every whole-program static
analysis (:func:`repro.analysis.run_analyses`): flow-sensitive DMA
discipline checking, local-store footprint estimation, outer-traffic
analysis and domain-annotation coverage.  Findings are rendered as
human-readable text (default), canonical JSON, or SARIF 2.1.0 for CI
annotation services.

``--all-targets`` is the portability lint: the same sources are
compiled and analyzed once per registry target (each target's
local-store capacity, cost model and DMA alignment change what the
analyses can prove), a per-target verdict table goes to stderr, and
the SARIF output carries one run per target.

Exit status contract:

* ``0`` — clean: no findings at or above the ``--fail-on`` severity
  (suppressed-by-baseline findings don't count).
* ``1`` — the tool could not do its job: unreadable input, compile
  error, bad baseline file.
* ``3`` — findings at or above the ``--fail-on`` severity were
  reported.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.diagnostics import (
    SEV_ERROR,
    SEV_WARNING,
    apply_baseline,
    format_json,
    format_sarif,
    format_text,
    load_baseline,
    meets_threshold,
    sarif_report,
    sort_findings,
    write_baseline,
)
from repro.analysis.runner import format_analysis_timings
from repro.compiler.driver import CompileOptions
from repro.compiler.passes import PassManager, format_timings
from repro.errors import CompileError
from repro.machine.config import resolve_target, target_names
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.tools.flags import add_target_flag, read_source

_EXIT_CONTRACT = """\
exit status:
  0   clean - no findings at or above the --fail-on severity
  1   compile error / unreadable input / bad baseline
  3   findings at or above the --fail-on severity
"""


def _game_corpus() -> list[tuple[str, str]]:
    """(pseudo-filename, source) pairs for every game-substrate source."""
    from repro.game import sources as game

    return [
        ("game:figure1", game.figure1_source()),
        ("game:figure2", game.figure2_source()),
        ("game:components-abstract", game.component_system_source()),
        (
            "game:components-specialized",
            game.component_system_source(specialized=True),
        ),
        ("game:ai-kernel", game.ai_kernel_source()),
        ("game:move-loop", game.move_loop_source()),
        (
            "game:move-loop-accessor",
            game.move_loop_source(use_accessor=True, cache="direct"),
        ),
        ("game:word-struct", game.word_struct_source()),
        ("game:game-demo", game.game_demo_source()),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=__doc__.splitlines()[0],
        epilog=_EXIT_CONTRACT,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "sources", nargs="*", help="OffloadMini source file(s)"
    )
    add_target_flag(parser)
    parser.add_argument(
        "--all-targets", action="store_true",
        help="portability lint: check under every registered target and "
             "print a per-target verdict table",
    )
    parser.add_argument(
        "--corpus", choices=("game",),
        help="also check every generated game-substrate source",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="format_", metavar="{text,json,sarif}",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--fail-on", choices=(SEV_ERROR, SEV_WARNING), default=SEV_WARNING,
        help="lowest severity that causes exit status 3 "
             "(default: warning - any finding fails)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings whose fingerprints appear in this "
             "baseline file",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write a baseline suppressing every current finding, "
             "then exit 0",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="write findings to FILE instead of stdout",
    )
    parser.add_argument(
        "--time-passes", action="store_true",
        help="print per-pass compile timings and per-analysis timings "
             "to stderr",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome/Perfetto trace of compile passes and "
             "analysis spans to FILE",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs: list[tuple[str, str]] = []
    for path in args.sources:
        source = read_source(path)
        if source is None:
            return 1
        inputs.append((path, source))
    if args.corpus == "game":
        inputs.extend(_game_corpus())
    if not inputs:
        parser.error("no sources given (pass files or --corpus game)")
    suppressed: set[str] = set()
    if args.baseline:
        try:
            suppressed = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    targets = (
        list(target_names()) if args.all_targets else [args.target]
    )
    recorder = TraceRecorder() if args.trace else NULL_RECORDER
    options = CompileOptions(analyze=True)
    per_target: dict[str, list] = {}
    for tname in targets:
        config = resolve_target(tname)
        findings = []
        for filename, source in inputs:
            try:
                # The pass pipeline is run directly (not through the
                # compile cache): static checking wants every stage to
                # actually execute, and --time-passes wants its timings.
                ctx = PassManager.default().run(
                    source, config, options, filename=filename,
                    trace=recorder,
                )
            except CompileError as error:
                print(error, file=sys.stderr)
                return 1
            findings.extend(ctx.findings)
            if args.time_passes:
                print(f"== {tname}: {filename}", file=sys.stderr)
                print(format_timings(ctx.timings), file=sys.stderr)
                print(
                    format_analysis_timings(ctx.analysis_timings),
                    file=sys.stderr,
                )
        per_target[tname] = sort_findings(findings)
    findings = sort_findings(
        {f for fs in per_target.values() for f in fs}
    )

    if args.trace:
        from repro.obs.export import chrome_trace_json

        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace_json(recorder))
        print(f"trace written to {args.trace}", file=sys.stderr)

    if args.write_baseline:
        count = write_baseline(args.write_baseline, findings)
        print(
            f"baseline written to {args.write_baseline} "
            f"({count} fingerprint(s))",
            file=sys.stderr,
        )
        return 0

    findings, hidden = apply_baseline(findings, suppressed)
    kept_per_target = {
        tname: apply_baseline(fs, suppressed)[0]
        for tname, fs in per_target.items()
    }
    if args.format_ == "text":
        output = format_text(findings)
        if output:
            output += "\n"
    elif args.format_ == "json":
        output = format_json(findings)
    elif args.all_targets:
        # Portability lint: one SARIF run per target, each stamped with
        # the target it was produced under.
        log = sarif_report(kept_per_target[targets[0]])
        runs = []
        for tname in targets:
            target_log = sarif_report(kept_per_target[tname])
            run = target_log["runs"][0]
            run["automationDetails"] = {"id": f"repro-check/{tname}"}
            run["properties"] = {"target": tname}
            runs.append(run)
        log["runs"] = runs
        output = json.dumps(log, sort_keys=True, indent=2) + "\n"
    else:
        output = format_sarif(findings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    elif output:
        sys.stdout.write(output)

    if args.all_targets:
        print(_verdict_table(kept_per_target, args.fail_on), file=sys.stderr)

    failing = sum(1 for f in findings if meets_threshold(f, args.fail_on))
    summary = f"-- {len(findings)} finding(s), {failing} at or above " \
              f"--fail-on={args.fail_on}"
    if hidden:
        summary += f", {hidden} suppressed by baseline"
    if failing:
        print(summary, file=sys.stderr)
        return 3
    print(summary if findings or hidden else "-- clean", file=sys.stderr)
    return 0


def _verdict_table(
    kept_per_target: dict[str, list], fail_on: str
) -> str:
    """The ``--all-targets`` per-target verdict table (stderr)."""
    lines = [f"{'target':12s} {'errors':>6s} {'warnings':>8s}  verdict"]
    for tname, fs in kept_per_target.items():
        errors = sum(1 for f in fs if f.severity == SEV_ERROR)
        warnings = sum(1 for f in fs if f.severity == SEV_WARNING)
        failing = sum(1 for f in fs if meets_threshold(f, fail_on))
        verdict = "FAIL" if failing else "ok"
        lines.append(f"{tname:12s} {errors:6d} {warnings:8d}  {verdict}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
