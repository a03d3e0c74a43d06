"""Codegen wall-clock gate: generated source beats the decode loop.

The codegen engine's whole reason to exist.  On the headline workload
of the bench matrix (the quick Figure 2 game frame, as ``repro.tools.bench
--quick`` times it), both engines must observe identical simulated
results, and the codegen engine must take less host time than the
reference engine.
"""

from __future__ import annotations

from repro.tools.bench import bench_workload
from repro.tools.report import workloads


def test_codegen_faster_than_reference_on_the_game_frame():
    (spec,) = [w for w in workloads(quick=True) if w["name"] == "game-frame"]
    row = bench_workload(spec, repeats=1)
    assert row["engines_identical"], "engines diverged"
    codegen, reference = row["codegen_seconds"], row["reference_seconds"]
    assert codegen < reference, (
        f"codegen ({codegen}s) not faster than reference ({reference}s)"
    )
    print(f"game-frame: codegen {row['codegen_speedup']}x vs reference")
