"""Differential fuzzing of the whole pipeline.

A hypothesis-driven generator produces small, well-typed OffloadMini
programs (arithmetic, loops, conditionals, global arrays, optionally an
offload block around part of the computation).  Each program is
compiled and run:

* on every registered target (cell, smp, dsp, apu, manycore),
* with and without the optimiser,

and all executions must print identical values.  Any divergence is
a real compiler/runtime bug.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.compiler.driver import CompileOptions, compile_program
from repro.machine.config import CELL_LIKE, TARGET_NAMES, resolve_target
from repro.machine.machine import Machine
from repro.obs import TraceRecorder, chrome_trace_json
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program


class ProgramBuilder:
    """Generates a random but well-formed OffloadMini program."""

    def __init__(self, rng: random.Random, offloaded: bool):
        self.rng = rng
        self.offloaded = offloaded
        self.scalars = ["v0", "v1", "v2"]
        self.array = "g_arr"
        self.array_len = 8

    # -- expressions (always int-typed, division-safe)

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            choice = rng.randrange(3)
            if choice == 0:
                return str(rng.randint(-9, 9))
            if choice == 1:
                return rng.choice(self.scalars)
            index = rng.randrange(self.array_len)
            return f"{self.array}[{index}]"
        op = rng.choice(["+", "-", "*", "&", "|", "^"])
        return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"

    def condition(self) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({self.expr(1)} {op} {self.expr(1)})"

    # -- statements

    def statement(self, depth: int = 0) -> str:
        rng = self.rng
        choice = rng.randrange(6 if depth < 2 else 4)
        if choice == 0:
            return f"{rng.choice(self.scalars)} = {self.expr()};"
        if choice == 1:
            return f"{rng.choice(self.scalars)} += {self.expr()};"
        if choice == 2:
            index = rng.randrange(self.array_len)
            return f"{self.array}[{index}] = {self.expr()};"
        if choice == 3:
            loop_var = f"i{depth}"
            bound = rng.randint(1, 4)
            body = self.statement(depth + 1)
            return (
                f"for (int {loop_var} = 0; {loop_var} < {bound}; "
                f"{loop_var}++) {{ {body} }}"
            )
        if choice == 4:
            return (
                f"if {self.condition()} {{ {self.statement(depth + 1)} }} "
                f"else {{ {self.statement(depth + 1)} }}"
            )
        return f"{{ {self.statement(depth + 1)} {self.statement(depth + 1)} }}"

    def build(self, statement_count: int) -> str:
        body = "\n        ".join(
            self.statement() for _ in range(statement_count)
        )
        seeds = "\n    ".join(
            f"{self.array}[{i}] = {self.rng.randint(-9, 9)};"
            for i in range(self.array_len)
        )
        prints = "\n    ".join(
            f"print_int({name});" for name in self.scalars
        ) + f"\n    print_int({self.array}[0] + {self.array}[7]);"
        if self.offloaded:
            work = f"""
    __offload_handle_t h = __offload {{
        {body}
    }};
    __offload_join(h);"""
        else:
            work = f"""
    {body}"""
        declarations = "\n    ".join(f"int {n} = {i};" for i, n in enumerate(self.scalars))
        return f"""
int {self.array}[{self.array_len}];
void main() {{
    {declarations}
    {seeds}
{work}
    {prints}
}}
"""


def _run_everywhere(source: str) -> list[list[object]]:
    outputs = []
    for name in TARGET_NAMES:
        config = resolve_target(name)
        for optimize in (False, True):
            program = compile_program(
                source, config, CompileOptions(optimize=optimize)
            )
            result = run_program(program, Machine(config))
            outputs.append(result.printed)
    return outputs


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    statements=st.integers(min_value=1, max_value=6),
    offloaded=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_all_targets_and_optimiser_settings_agree(seed, statements, offloaded):
    source = ProgramBuilder(random.Random(seed), offloaded).build(statements)
    outputs = _run_everywhere(source)
    assert all(o == outputs[0] for o in outputs), (
        f"divergent outputs {outputs} for program:\n{source}"
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offloaded=st.booleans(),
    optimize=st.booleans(),
    target=st.sampled_from(TARGET_NAMES),
)
@settings(max_examples=25, deadline=None)
def test_engines_agree(seed, offloaded, optimize, target):
    """Reference and codegen engines observe identical
    results — output, cycles, perf counters, and the exported trace
    down to the byte — on generated programs, on every target the
    registry knows."""
    config = resolve_target(target)
    source = ProgramBuilder(random.Random(seed), offloaded).build(4)
    program = compile_program(
        source, config, CompileOptions(optimize=optimize)
    )
    observations = []
    for engine in ENGINE_NAMES:
        machine = Machine(config)
        recorder = TraceRecorder(capacity=1 << 16)
        machine.attach_trace(recorder)
        result = run_program(
            program, machine, RunOptions(engine=engine)
        )
        observations.append(
            (
                result.printed,
                result.cycles,
                result.machine.perf.as_dict(),
                chrome_trace_json(recorder),
            )
        )
    assert all(o == observations[0] for o in observations), (
        f"engine divergence for program:\n{source}"
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_determinism_same_machine(seed):
    """Two runs of the same program on fresh machines are bit-identical,
    including cycle counts (the simulator's core guarantee)."""
    source = ProgramBuilder(random.Random(seed), offloaded=True).build(4)
    program = compile_program(source, CELL_LIKE)
    first = run_program(program, Machine(CELL_LIKE))
    second = run_program(program, Machine(CELL_LIKE))
    assert first.printed == second.printed
    assert first.cycles == second.cycles
