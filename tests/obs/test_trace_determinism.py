"""Trace determinism: the serialized trace is a stable artifact.

Two guarantees, both at the *byte* level of the canonical Chrome JSON
export:

* running the same program twice (same engine, fresh machines) produces
  identical traces — there is no wall-clock, iteration-order or id
  leakage in run traces;
* the reference and codegen engines produce identical traces — every
  emission site sits at a clock-observation point where the two engines
  agree on ``ctx.now``, so tracing is part of the equivalence contract.

Compile-pass spans are deliberately excluded from run traces (they are
wall-clock by nature); ``repro.tools.run --time-passes --trace`` is the
opt-in that trades determinism for compile visibility.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import ai_kernel_source, figure1_source, figure2_source
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs import TraceRecorder, chrome_trace_json
from repro.vm.interpreter import RunOptions, run_program

WORKLOADS = {
    "figure1": figure1_source(),
    "figure2": figure2_source(),
    "figure2-cached": figure2_source(cache="direct"),
    "ai-kernel": ai_kernel_source(entity_count=8),
}


def traced_json(program, engine=None) -> str:
    machine = Machine(CELL_LIKE)
    recorder = TraceRecorder()
    machine.attach_trace(recorder)
    run_program(program, machine, RunOptions(engine=engine))
    return chrome_trace_json(recorder)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repeat_runs_byte_identical(name):
    program = compile_program(WORKLOADS[name], CELL_LIKE)
    first = traced_json(program)
    second = traced_json(program)
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engines_byte_identical(name):
    program = compile_program(WORKLOADS[name], CELL_LIKE)
    assert traced_json(program, "reference") == traced_json(
        program, "codegen"
    )


def test_recompilation_byte_identical():
    # Even a fresh compile of the same source traces identically: the
    # whole pipeline (layout, ids, domain tables) is deterministic.
    first = traced_json(compile_program(WORKLOADS["figure2"], CELL_LIKE))
    second = traced_json(compile_program(WORKLOADS["figure2"], CELL_LIKE))
    assert first == second
