"""Scheduling-policy explorer: run a workload under each policy.

Usage::

    python -m repro.tools.sched [program.om | --corpus figure2|game-demo]
        [--target cell|smp|dsp|apu|manycore]
        [--engine codegen|reference]
        [--queue-depth N] [--admission stall|trap] [--frames N]
        [--json] [--require locality<greedy]

Every policy runs over one prepared program and a comparison table is
printed (simulated cycles, uploads, stalls, queue high-water,
utilization).  ``--engine`` defaults to
:data:`repro.vm.DEFAULT_ENGINE`; each policy is one
:class:`repro.runspec.FarmJob`.  One policy's full scheduler accounting,
or its trace with the sched lane, is ``repro.tools.run --policy P
[--queue-depth N] [--trace FILE]`` on the same source.

``--require locality<greedy`` exits 4 unless the locality policy's
simulated cycles are strictly below greedy's — the gate the CI sched
job applies to the Figure 2 frame loop.

Exit status: 0 on success, 1 on compile/usage errors, 2 on runtime
traps, 4 on a failed ``--require`` gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.errors import CompileError, ReproError
from repro.game.sources import figure2_source, game_demo_source
from repro.runspec import FarmJob, prepare, simulate
from repro.sched import POLICY_NAMES
from repro.tools.flags import (
    add_engine_flag,
    add_queue_depth_flag,
    add_target_flag,
    read_source,
)

CORPUS = {
    "figure2": lambda frames: figure2_source(
        entity_count=48, pair_count=32, frames=frames
    ),
    "game-demo": lambda frames: game_demo_source(
        entity_count=16, pair_count=12, particles=8, frames=frames
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "source", nargs="?", default=None,
        help="OffloadMini source file (or use --corpus)",
    )
    parser.add_argument(
        "--corpus", choices=sorted(CORPUS), default=None,
        help="use a built-in workload instead of a source file",
    )
    parser.add_argument(
        "--frames", type=int, default=8,
        help="frame count for --corpus workloads (default: 8)",
    )
    add_target_flag(parser)
    add_engine_flag(parser)
    add_queue_depth_flag(parser)
    parser.add_argument(
        "--admission", choices=["stall", "trap"], default="stall",
        help="full-queue behaviour (default: stall = host backpressure)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the comparison as canonical JSON instead of a table",
    )
    parser.add_argument(
        "--require", default=None, metavar="A<B",
        help="exit 4 unless policy A's cycles are strictly below "
             "policy B's (e.g. 'locality<greedy')",
    )
    return parser


def _load_source(args) -> str | None:
    if args.corpus is not None:
        return CORPUS[args.corpus](args.frames)
    if args.source is None:
        print(
            "error: give a source file or --corpus figure2|game-demo",
            file=sys.stderr,
        )
        return None
    return read_source(args.source)


def run_policy(program, job: FarmJob, admission: str) -> dict:
    """One policy run; returns its row of the comparison table."""
    result = simulate(program, job, admission=admission)
    return {
        "policy": job.policy,
        "simulated_cycles": result.cycles,
        **result.sched.as_dict(result.cycles),
    }


def format_table(rows: list[dict]) -> str:
    header = (
        f"{'policy':15s} {'cycles':>12} {'uploads':>8} {'stalls':>7} "
        f"{'stall-cyc':>10} {'q-hwm':>6} {'busy%':>7}"
    )
    lines = [header, "-" * len(header)]
    baseline = rows[0]["simulated_cycles"]
    for row in rows:
        busy = (
            sum(row["utilization"]) / len(row["utilization"])
            if row.get("utilization")
            else 0.0
        )
        rel = row["simulated_cycles"] / baseline if baseline else 1.0
        lines.append(
            f"{row['policy']:15s} {row['simulated_cycles']:>12} "
            f"{row['uploads']:>8} {row['stalls']:>7} "
            f"{row['stall_cycles']:>10} {row['queue_high_water']:>6} "
            f"{busy:>6.1%}  ({rel:.4f}x vs {rows[0]['policy']})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    source = _load_source(args)
    if source is None:
        return 1
    try:
        base = FarmJob(
            workload=args.corpus or args.source, source=source,
            target=args.target, engine=args.engine,
            queue_depth=args.queue_depth,
        )
        program = prepare(base).program
    except CompileError as error:
        print(error, file=sys.stderr)
        return 1
    except ValueError as error:
        # --queue-depth < 0, an unknown engine name in REPRO_VM_ENGINE
        print(f"error: {error}", file=sys.stderr)
        return 1

    try:
        rows = [
            run_policy(
                program, dataclasses.replace(base, policy=policy),
                args.admission,
            )
            for policy in POLICY_NAMES
        ]
    except ReproError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return 2

    if args.json:
        payload = {"target": program.target_name, "policies": rows}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(format_table(rows))

    if args.require is not None:
        left, _, right = args.require.partition("<")
        cycles = {row["policy"]: row["simulated_cycles"] for row in rows}
        if left not in cycles or right not in cycles:
            print(
                f"error: --require names policies not run "
                f"({args.require!r}; ran {', '.join(cycles)})",
                file=sys.stderr,
            )
            return 1
        if not cycles[left] < cycles[right]:
            print(
                f"requirement failed: {left} ({cycles[left]} cycles) is "
                f"not below {right} ({cycles[right]} cycles)",
                file=sys.stderr,
            )
            return 4
        print(
            f"-- requirement holds: {left} {cycles[left]} < "
            f"{right} {cycles[right]} cycles",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
