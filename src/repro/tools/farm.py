"""Run a batch of simulation jobs across a worker-process farm.

Usage::

    python -m repro.tools.farm [batch.json] [--corpus mixed|figure2|determinism]
        [--workers N] [--serial] [--cache-dir DIR] [--repeat K]
        [--count N] [--seed N] [--engine ENGINE] [--target TARGET]
        [--timeout S] [--retries N] [--start-method fork|spawn|forkserver]
        [--out FILE] [--reports DIR] [--jsonl FILE] [--include-reports]
        [--emit-batch FILE] [--quiet]

The batch comes from a JSON batch file (see :mod:`repro.farm.batch`) or
one of the named corpora via ``--corpus``.  ``--repeat`` runs the same
batch K times on one persistent pool: the first pass is cold, every
later pass is warm (zero compiles, zero codegen translations) — the
summary records both, which is what the CI farm job asserts on.
``--serial`` runs the identical execution path inline in this process,
producing byte-identical per-job reports: the baseline that
``--reports`` directories are diffed against.

Exit status: 0 when every job succeeded, 1 on usage errors, 2 when any
job failed (the batch still drains; failures are in the summary).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.farm import (
    CORPORA,
    Farm,
    jobs_to_json,
    load_jobs,
    run_jobs_serial,
    summary_json,
)
from repro.tools.flags import add_engine_flag, add_policy_flag, add_target_flag
from repro.vm.interpreter import DEFAULT_ENGINE, validate_engine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-farm", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "batch", nargs="?", default=None,
        help="JSON batch file (a job list, or {kind, jobs}); omit when "
             "using --corpus",
    )
    parser.add_argument(
        "--corpus", choices=sorted(CORPORA), default=None,
        help="generate a named batch instead of reading a file",
    )
    parser.add_argument(
        "--count", type=int, default=16, metavar="N",
        help="job count for --corpus figure2 (default: 16)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="corpus seed for --corpus mixed (default: 0)",
    )
    add_engine_flag(
        parser,
        help="execution engine for generated corpora (default: each "
             "corpus's own choice)",
    )
    add_target_flag(
        parser, default=None,
        help="target for --corpus figure2 (default: cell)",
    )
    add_policy_flag(
        parser,
        help="scheduling policy for --corpus figure2 (default: locality)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker-process pool size (default: 2)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="run the batch inline in this process (the byte-identical "
             "baseline; ignores --workers)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared content-addressed compile-cache directory "
             "(also via REPRO_COMPILE_CACHE)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="run the batch K times on the same pool (cold then warm; "
             "default: 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="default per-job wall-clock budget in seconds; 0 disables "
             "(default: 300)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="attempts per job for crash/timeout failures (default: 2)",
    )
    parser.add_argument(
        "--start-method", choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: fork where "
             "available)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the run summary JSON to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--reports", default=None, metavar="DIR",
        help="write each job's canonical RunReport JSON into DIR "
             "(later batches overwrite; diffable against a --serial run)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="stream per-job result records to FILE as JSON lines, in "
             "completion order ('-' for stdout)",
    )
    parser.add_argument(
        "--include-reports", action="store_true",
        help="embed full per-job reports in the --out summary",
    )
    parser.add_argument(
        "--emit-batch", default=None, metavar="FILE",
        help="write the resolved batch as a batch file and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-batch stderr summary lines",
    )
    return parser


def resolve_jobs(args) -> list:
    """Build the job list from the parsed flags (ValueError on misuse)."""
    if (args.batch is None) == (args.corpus is None):
        raise ValueError("provide a batch file or --corpus (not both)")
    if args.batch is not None:
        return load_jobs(args.batch)
    if args.corpus == "mixed":
        return CORPORA["mixed"](seed=args.seed, engine=args.engine)
    if args.corpus == "figure2":
        if args.count < 1:
            raise ValueError(f"--count must be >= 1, got {args.count}")
        kwargs = {"count": args.count}
        if args.target is not None:
            kwargs["target"] = args.target
        if args.engine is not None:
            kwargs["engine"] = args.engine
        if args.policy is not None:
            kwargs["policy"] = args.policy
        return CORPORA["figure2"](**kwargs)
    return CORPORA["determinism"]()


def report_path(directory: str, result) -> str:
    """Where a job's canonical report file lives under ``--reports``."""
    name = (
        f"job{result.index:03d}__{result.job.workload}"
        f"__{result.job.target}.json"
    )
    return os.path.join(directory, name)


def _writers(args):
    """Build the streaming ``on_result`` callback from the output flags."""
    jsonl_handle = None
    if args.jsonl is not None:
        jsonl_handle = (
            sys.stdout if args.jsonl == "-"
            else open(args.jsonl, "w", encoding="utf-8")
        )
    if args.reports is not None:
        os.makedirs(args.reports, exist_ok=True)

    def on_result(result) -> None:
        if jsonl_handle is not None:
            line = json.dumps(
                result.as_dict(include_report=True),
                sort_keys=True, separators=(",", ":"),
            )
            jsonl_handle.write(line + "\n")
            jsonl_handle.flush()
        if args.reports is not None and result.status == "ok":
            text = json.dumps(
                result.report, sort_keys=True, separators=(",", ":")
            )
            with open(
                report_path(args.reports, result), "w", encoding="utf-8"
            ) as handle:
                handle.write(text + "\n")

    def close() -> None:
        if jsonl_handle is not None and jsonl_handle is not sys.stdout:
            jsonl_handle.close()

    return on_result, close


def _describe(summary, label: str) -> str:
    parts = [
        f"-- {label}: {summary.ok}/{summary.jobs} ok",
        f"{summary.wall_seconds:.2f}s",
        f"{summary.jobs_per_sec:.1f} jobs/s",
        f"compiles={summary.compiles}",
        f"translations={summary.translations}",
        f"warm={summary.warm_jobs}",
    ]
    if summary.failed:
        parts.insert(1, f"{summary.failed} FAILED")
    if summary.retried:
        parts.append(f"retried={summary.retried}")
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Jobs that name no engine resolve the ambient default only
        # when they are keyed, inside the pool: reject a stale
        # REPRO_VM_ENGINE here, once, as the usage error it is.
        validate_engine(DEFAULT_ENGINE, source="REPRO_VM_ENGINE")
        jobs = resolve_jobs(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}",
              file=sys.stderr)
        return 1
    if args.emit_batch is not None:
        text = jobs_to_json(jobs)
        if args.emit_batch == "-":
            sys.stdout.write(text)
        else:
            with open(args.emit_batch, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"-- batch written to {args.emit_batch}", file=sys.stderr)
        return 0
    on_result, close_writers = _writers(args)
    summaries = []
    try:
        if args.serial:
            for _ in range(args.repeat):
                summaries.append(
                    run_jobs_serial(
                        jobs, cache_dir=args.cache_dir, on_result=on_result
                    )
                )
        else:
            try:
                farm = Farm(
                    workers=args.workers,
                    cache_dir=args.cache_dir,
                    timeout=args.timeout,
                    max_attempts=args.retries,
                    start_method=args.start_method,
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            with farm:
                for _ in range(args.repeat):
                    summaries.append(farm.run_batch(jobs, on_result=on_result))
    finally:
        close_writers()
    workers = 0 if args.serial else args.workers
    if not args.quiet:
        for number, summary in enumerate(summaries):
            label = "serial" if args.serial else f"batch {number}"
            print(_describe(summary, label), file=sys.stderr)
        for summary in summaries:
            for failure in summary.failures:
                print(
                    f"-- FAILED job {failure.index} "
                    f"({failure.job.workload}/{failure.job.target}): "
                    f"{failure.reason} after {failure.attempts} attempt(s): "
                    f"{failure.detail}",
                    file=sys.stderr,
                )
    if args.out is not None:
        text = summary_json(
            summaries, workers=workers,
            include_reports=args.include_reports,
        )
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"-- summary written to {args.out}", file=sys.stderr)
    return 2 if any(s.failed for s in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
