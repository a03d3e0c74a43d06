"""Command line of the benchmark.

::

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of standard output is the
        JSON object the driver reads (end-to-end metrics with --trace 0,
        per-layer metrics with --trace 1)

    python3 -m perfbench [--seed N] [--seconds S] [--traced] [--quick]
        every workload, each in its own process (so peak memory is per
        workload); prints every metric by name with its unit and writes
        perfbench/out/results-seed<N>.json

    python3 -m perfbench --validate [RESULTS.json]
    python3 -m perfbench --agree A.json B.json

Exit status: 0 when every result matched its oracle (or the check
passed), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from perfbench import compare, spec
from perfbench.hygiene import OUT_DIR, ROOT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="source -> report benchmark: five workloads, "
                    "end-to-end metrics and a per-layer ledger",
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input (default 0)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds per run "
                             f"(default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="run the traced runs too (with --workload: "
                             "the same as --trace 1)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one set-up, one pass per workload")
    parser.add_argument("--out", metavar="FILE",
                        help="results file of an all-workloads run")
    parser.add_argument("--validate", nargs="?", const="", metavar="RESULTS",
                        help="check BENCHMARK.json against the declaration "
                             "(and a results file, when given)")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"),
                        help="compare two result sets of one commit "
                             "against the benchmark's own bounds")
    return parser


def _print_metrics(result: dict) -> None:
    print(f"== {result['workload']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    for error in result.get("probe_errors", ()):
        print(f"probe error: {error}")


def _run_one(args) -> int:
    from perfbench.runner import contract_line, run_workload

    trace = 1 if args.traced else args.trace
    result = run_workload(
        args.workload, args.seed, args.seconds, trace, args.quick
    )
    _print_metrics(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(contract_line(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own interpreter; gathers their result files."""
    results: dict = {"seed": args.seed, "runs": []}
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1) if args.traced else (0,):
            command = [
                sys.executable, "-m", "perfbench",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.quick:
                command.append("--quick")
            path = os.path.join(
                OUT_DIR, f"result-{name}-seed{args.seed}-trace{trace}.json"
            )
            if os.path.exists(path):
                os.remove(path)  # never read a stale result
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode != 0:
                status = 1
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    results["runs"].append(json.load(handle))
    out = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"results written to {os.path.relpath(out, ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate is not None:
        return compare.validate(args.validate or None)
    if args.agree:
        return compare.agree(*args.agree)
    if args.workload:
        return _run_one(args)
    return _run_all(args)
