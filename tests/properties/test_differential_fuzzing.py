"""Differential fuzzing of the whole pipeline.

A hypothesis-driven generator produces small, well-typed OffloadMini
programs (arithmetic, loops, conditionals, global arrays, optionally an
offload block around part of the computation, and on request scalar
loads and stores through cast pointers into byte buffers).  Each program is
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

    def __init__(self, rng: random.Random, offloaded: bool, memory: bool = False):
        self.rng = rng
        self.offloaded = offloaded
        self.scalars = ["v0", "v1", "v2"]
        self.array = "g_arr"
        self.array_len = 8
        #: Byte buffers scalar traffic goes through (``memory``): one in
        #: main memory, and one in the local store inside an offload.
        self.buffers = (
            [] if not memory else ["g_bytes", "l_bytes"] if offloaded
            else ["g_bytes"]
        )

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

    # -- scalar memory traffic

    def address(self) -> str:
        """A byte address into a buffer: constant or variable, aligned or
        not — or, now and then, out of bounds or negative."""
        rng = self.rng
        base = f"&{rng.choice(self.buffers)}"
        where = rng.choices(
            ["const", "aligned", "unaligned", "oob", "negative"],
            weights=[4, 4, 4, 1, 1],
        )[0]
        if where == "const":
            return f"{base}[{rng.randrange(28)}]"
        if where == "aligned":
            return f"{base}[({rng.choice(self.scalars)} & 3) * 4]"
        if where == "unaligned":
            return f"{base}[({rng.choice(self.scalars)} & 15) + {rng.randrange(4)}]"
        if where == "oob":
            return f"{base}[{rng.choice([32, 0x40000, 0x1000000])}]"
        return f"(char*)(0 - {rng.choice([1, 4, 6, 0x100])})"

    def memory_statement(self) -> str:
        """A load or store of one scalar width through a cast pointer."""
        rng = self.rng
        kind = rng.choice(["char", "int", "uint", "float"])
        pointer = f"*({kind}*)({self.address()})"
        if rng.random() < 0.5:
            return f"{pointer} = ({kind})({self.expr()});"
        value = f"(int)({pointer})" if kind == "float" else pointer
        return f"{rng.choice(self.scalars)} += {value};"

    # -- statements

    def statement(self, depth: int = 0) -> str:
        rng = self.rng
        if self.buffers and rng.random() < 0.4:
            return self.memory_statement()
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
        if self.buffers:
            body = "char l_bytes[32];\n        " * self.offloaded + body
            seeds += "".join(
                f"\n    g_bytes[{i}] = (char){self.rng.randint(-128, 127)};"
                for i in range(32)
            )
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
        buffer = "char g_bytes[32];\n" if self.buffers else ""
        return f"""
{buffer}int {self.array}[{self.array_len}];
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


def _outcome(program, config, engine: str):
    """Output and cycles, or the error's type and text — then the
    counters and trace either one leaves."""
    machine = Machine(config)
    recorder = TraceRecorder(capacity=1 << 16)
    machine.attach_trace(recorder)
    try:
        result = run_program(program, machine, RunOptions(engine=engine))
        outcome = (repr(result.printed), result.cycles, result.instructions)
    except Exception as error:  # every engine must fail the same way
        outcome = (type(error).__name__, str(error))
    return outcome, machine.perf.as_dict(), chrome_trace_json(recorder)


#: Byte-addressed targets: a word-addressed one refuses the byte-offset
#: pointer arithmetic the memory programs are made of.
_BYTE_TARGETS = [name for name in TARGET_NAMES if not resolve_target(name).word_addressed]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offloaded=st.booleans(),
    target=st.sampled_from(_BYTE_TARGETS),
)
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_scalar_memory_traffic(seed, offloaded, target):
    """Loads and stores of every width the language has, in main memory
    and the local store, at aligned, unaligned, out-of-bounds and
    negative addresses: both engines print, count and trace the same,
    or trap with the same error and leave the same counters."""
    config = resolve_target(target)
    source = ProgramBuilder(random.Random(seed), offloaded, memory=True).build(5)
    program = compile_program(source, config)
    first, second = (_outcome(program, config, e) for e in ENGINE_NAMES)
    assert first == second, f"engine divergence for program:\n{source}"


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
