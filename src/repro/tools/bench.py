"""Wall-clock benchmark: the two execution engines head to head.

Measures *host* execution time (Python wall clock, not simulated cycles)
of the reference decode loop and the source-codegen engine over the
paper's workloads, verifies along the way that both engines observe
identical simulated results, and writes a machine-readable report to
``BENCH_vm.json``.

One-time translation cost (IR -> generated Python source -> code
objects) is timed separately via :func:`repro.vm.warm_translations` and
reported as ``codegen_translate_seconds``, so the per-engine
``*_seconds`` columns and the ``codegen_speedup`` ratio measure
steady-state simulation only.

Usage::

    PYTHONPATH=src python -m repro.tools.bench [--out BENCH_vm.json]
        [--repeats 3] [--quick]
        [--policy greedy|least-loaded|locality|critical-path]
        [--target cell|smp|dsp|apu|manycore ...]

Only the loop that *times a single layer* (:func:`bench_workload`) calls
the compiler and VM directly; every untimed run is a
:class:`repro.runspec.FarmJob` on the ``prepare`` / ``simulate`` path
``repro.tools.run`` and the farm share.  Compile-cache and farm
throughput are measured elsewhere: ``tests/compiler/test_cache.py``
asserts the warm-compile speedup, and perfbench's ``edit_cold`` and
``farm_diskwarm`` workloads time the cache and the farm end to end.

The headline numbers are on the Figure 2 game-frame workload: the
acceptance target is >= 7x (aim 10x) for the codegen engine over the
reference.  The report also carries a ``scheduler`` section: simulated
game-frame cycles under every scheduling policy, with the
locality-vs-greedy ratio the CI sched job gates on — and a ``targets``
section: the same game frame on each ``--target`` (default cell, apu,
manycore), with simulated cycles, DMA bytes moved, scheduler stall
cycles and cold code uploads per target.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time

from repro.compiler.driver import compile_program
from repro.machine.config import resolve_target
from repro.machine.machine import Machine
from repro.game.sources import figure2_source
from repro.runspec import FarmJob, prepare, simulate
from repro.sched import POLICY_NAMES, SchedOptions
from repro.tools.flags import add_policy_flag, add_target_flag
from repro.tools.report import BENCH_TARGETS, portability_jobs, workloads
from repro.vm.codegen import warm_translations
from repro.vm.interpreter import RunOptions, run_program

#: The engines the workload matrix times, reference first.
BENCH_ENGINES = ("reference", "codegen")

#: Layout version of ``BENCH_vm.json``; bump when fields are renamed
#: or removed (``benchmarks/wallclock.py --validate`` checks it).
BENCH_SCHEMA_VERSION = 5

def _time_run(program, config, engine: str, sched=None) -> tuple[float, object]:
    """One timed execution on a fresh machine (machine build excluded)."""
    machine = Machine(config)
    options = RunOptions(engine=engine, sched=sched)
    start = time.perf_counter()
    result = run_program(program, machine, options)
    elapsed = time.perf_counter() - start
    return elapsed, result


def bench_workload(spec: dict, repeats: int, sched=None) -> dict:
    config = resolve_target(spec["config"])
    program = compile_program(spec["source"], config)

    # Pay the one-time translation cost up front, timed separately, so
    # the per-run columns (and the speedup ratio) measure steady-state
    # simulation only.
    start = time.perf_counter()
    warm_translations(program, Machine(config))
    translate_s = time.perf_counter() - start

    # Warm-up runs double as the equivalence check.
    results = {}
    for engine in BENCH_ENGINES:
        _, results[engine] = _time_run(program, config, engine, sched)
    ref_result = results["reference"]
    identical = all(
        results[engine].output == ref_result.output
        and results[engine].cycles == ref_result.cycles
        and results[engine].machine.perf.as_dict()
        == ref_result.machine.perf.as_dict()
        for engine in BENCH_ENGINES[1:]
    )

    times = {engine: [] for engine in BENCH_ENGINES}
    for _ in range(repeats):
        for engine in BENCH_ENGINES:
            elapsed, _ = _time_run(program, config, engine, sched)
            times[engine].append(elapsed)

    ref_s = min(times["reference"])
    codegen_s = min(times["codegen"])
    return {
        "name": spec["name"],
        "description": spec["description"],
        "config": spec["config"],
        "simulated_cycles": ref_result.cycles,
        "reference_seconds": round(ref_s, 6),
        "codegen_seconds": round(codegen_s, 6),
        "codegen_translate_seconds": round(translate_s, 6),
        "codegen_speedup": round(ref_s / codegen_s, 3),
        "engines_identical": identical,
        # Full counter snapshot of the (engine-identical) run, so the
        # report carries the paper's per-experiment quantities — cache
        # hit rates, DMA bytes, dispatch probes — alongside the timings.
        "perf_counters": ref_result.machine.perf.as_dict(),
    }


def bench_scheduler(quick: bool) -> dict:
    """Per-policy simulated cycles on the Figure 2 game-frame workload.

    Runs the headline frame loop under every scheduling policy (with
    cold code-upload modelling on) and reports simulated cycles,
    uploads and stalls per policy, plus the locality-vs-greedy ratio —
    the quantity the CI sched job gates on (< 1.0 means the warm-core
    policy beat rotation).
    """
    scale = 1 if quick else 2
    source = figure2_source(
        entity_count=48 * scale, pair_count=32 * scale, frames=8
    )
    base = FarmJob("game-frame", source=source, engine="codegen")
    program = prepare(base).program
    policies = {}
    for policy in POLICY_NAMES:
        result = simulate(program, dataclasses.replace(base, policy=policy))
        policies[policy] = {
            "simulated_cycles": result.cycles,
            **result.sched.as_dict(result.cycles),
        }
    greedy = policies["greedy"]["simulated_cycles"]
    locality = policies["locality"]["simulated_cycles"]
    return {
        "workload": "game-frame",
        "frames": 8,
        "policies": policies,
        "locality_vs_greedy": round(locality / greedy, 6),
    }


def bench_targets(quick: bool, targets) -> dict:
    """The same game frame on every requested target, one row each.

    This is the portability-matrix view of the benchmark: one source,
    compiled per target through the registry, run on the codegen
    engine under the locality policy (per-target queue depths and
    upload costs bind).  Rows report the quantities the presets differ
    on — simulated cycles, DMA bytes moved, scheduler stall cycles and
    cold code uploads — so the cost-structure story (apu moves no DMA,
    manycore pays uploads and backpressure) is visible in the report.
    """
    rows = {}
    for job in portability_jobs(quick, targets):
        result = simulate(prepare(job).program, job)
        config = result.machine.config
        perf = result.machine.perf.as_dict()
        rows[job.target] = {
            "config": config.name,
            "accelerators": config.num_accelerators,
            "simulated_cycles": result.cycles,
            "dma_bytes": perf.get("dma.bytes_get", 0)
            + perf.get("dma.bytes_put", 0),
            "stall_cycles": perf.get("sched.stall_cycles", 0),
            "uploads": perf.get("sched.uploads", 0),
            "upload_bytes": perf.get("sched.upload_bytes", 0),
        }
    return {
        "workload": "game-frame",
        "frames": 4,
        "policy": "locality",
        "targets": rows,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out", default="BENCH_vm.json",
        help="report path (default: BENCH_vm.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per engine (minimum is reported)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads, one repetition (CI smoke mode)",
    )
    add_policy_flag(
        parser,
        help="run the whole workload matrix under this scheduling "
             "policy (default: compat mode, no explicit scheduling)",
    )
    add_target_flag(
        parser, action="append", default=None, dest="targets",
        metavar="NAME",
        help="target(s) for the per-target game-frame section; repeat "
             f"to add more (default: {', '.join(BENCH_TARGETS)})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    repeats = 1 if args.quick else max(1, args.repeats)
    matrix_sched = (
        SchedOptions(policy=args.policy) if args.policy is not None else None
    )

    results = []
    for spec in workloads(args.quick):
        entry = bench_workload(spec, repeats, matrix_sched)
        results.append(entry)
        status = "ok" if entry["engines_identical"] else "MISMATCH"
        print(
            f"{entry['name']:24s} ref {entry['reference_seconds']:8.4f}s  "
            f"codegen {entry['codegen_seconds']:8.4f}s "
            f"({entry['codegen_speedup']:5.2f}x)  [{status}]"
        )

    scheduler = bench_scheduler(args.quick)
    for policy in POLICY_NAMES:
        entry = scheduler["policies"][policy]
        print(
            f"{'sched/' + policy:24s} {entry['simulated_cycles']:>12} "
            f"simulated cycles  uploads {entry['uploads']:3d}  "
            f"stalls {entry['stalls']:3d}"
        )
    print(
        f"{'sched locality/greedy':24s} "
        f"{scheduler['locality_vs_greedy']:.6f}"
    )

    target_matrix = bench_targets(args.quick, args.targets or BENCH_TARGETS)
    for name, row in target_matrix["targets"].items():
        print(
            f"{'target/' + name:24s} {row['simulated_cycles']:>12} "
            f"simulated cycles  dma-bytes {row['dma_bytes']:>8}  "
            f"stall-cyc {row['stall_cycles']:>8}  "
            f"uploads {row['uploads']:3d}"
        )

    codegen_product = 1.0
    for entry in results:
        codegen_product *= entry["codegen_speedup"]
    codegen_geomean = codegen_product ** (1.0 / len(results))
    headline = next(e for e in results if e["name"] == "game-frame")

    report = {
        "benchmark": "vm-engine-wallclock",
        "schema_version": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
        "quick": args.quick,
        "policy": args.policy or "compat",
        "workloads": results,
        "scheduler": scheduler,
        "targets": target_matrix,
        "summary": {
            "geomean_codegen_speedup": round(codegen_geomean, 3),
            "game_frame_codegen_speedup": headline["codegen_speedup"],
            "locality_vs_greedy": scheduler["locality_vs_greedy"],
            "all_identical": all(e["engines_identical"] for e in results),
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"-- geomean codegen {codegen_geomean:.2f}x, game-frame "
        f"{headline['codegen_speedup']:.2f}x -> {args.out}"
    )
    if not report["summary"]["all_identical"]:
        print("error: engines diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
