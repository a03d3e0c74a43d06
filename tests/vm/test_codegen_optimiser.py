"""Edges of the codegen engine's emit-time optimiser.

Each case is hand-built IR (or a small source program) run on the
reference decode loop and on generated code; output, return value,
cycles, retired instructions, the perf counter dict and the recorded
trace must be identical.  The cases are the places where copy/constant
propagation, expression forwarding, dead-register elimination,
structured control flow and the hoisted counters could each go wrong.
"""

from __future__ import annotations

import ast
import math

import pytest

from repro.compiler.driver import compile_program
from repro.errors import ReproError
from repro.game.sources import figure2_source
from repro.ir.instructions import (
    BinOp,
    CJump,
    Call,
    Const,
    Intrinsic,
    Jump,
    Load,
    Move,
    Ret,
    Store,
)
from repro.ir.module import IRFunction, IRProgram
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.obs import TraceRecorder
from repro.vm.codegen import CodegenInterpreter, generate_module_source
from repro.vm.interpreter import RunOptions, run_program


def _program(*functions: IRFunction) -> IRProgram:
    program = IRProgram(target_name=CELL_LIKE.name)
    for function in functions:
        program.functions[function.name] = function
    program.validate()
    return program


def _main(code, labels=None, num_regs=16) -> IRFunction:
    return IRFunction(
        name="main", params=[], num_regs=num_regs, code=code,
        labels=labels or {},
    )


def _print(reg: int, kind: str = "int") -> Intrinsic:
    return Intrinsic(name=f"print_{kind}", args=[reg])


def _canon(value):
    """NaN compares unequal to itself; name it so runs can be compared."""
    return "nan" if value != value else value


def _observe(program: IRProgram, engine: str, budget=None):
    """Every observable of one run, or the error's text."""
    options = RunOptions(engine=engine)
    if budget is not None:
        options.max_instructions = budget
    machine = Machine(CELL_LIKE)
    recorder = TraceRecorder(capacity=1 << 16)
    machine.attach_trace(recorder)
    try:
        result = run_program(program, machine, options)
    except ReproError as error:
        return str(error)
    return (
        [_canon(value) for _, value in result.output],
        [core for core, _ in result.output],
        _canon(result.return_value), result.cycles,
        result.instructions, machine.perf.as_dict(), recorder.events(),
    )


def _agree(program: IRProgram, ladders: int = 0):
    """Both engines observe the same run; returns what they observed."""
    engine = CodegenInterpreter(program, Machine(CELL_LIKE), RunOptions())
    engine._ensure_module()
    assert engine.codegen_stats.ladders == ladders
    reference = _observe(program, "reference")
    assert _observe(program, "codegen") == reference
    return reference


class TestPropagation:
    def test_copy_source_redefined_before_the_copys_use(self):
        observed = _agree(_program(_main([
            Const(dst=1, value=7),
            Move(dst=2, src=1),
            Const(dst=1, value=5),
            _print(2),
            _print(1),
            Ret(src=2),
        ])))
        assert observed[0] == [7, 5]

    def test_swap_through_a_temporary(self):
        observed = _agree(_program(_main([
            Const(dst=1, value=1),
            Const(dst=2, value=2),
            Move(dst=3, src=1),
            Move(dst=1, src=2),
            Move(dst=2, src=3),
            _print(1),
            _print(2),
            Ret(),
        ])))
        assert observed[0] == [2, 1]

    def test_forwarded_expression_whose_operand_is_redefined(self):
        # r3 = r1 + r2 has one use, but r1 changes before it.
        observed = _agree(_program(_main([
            Const(dst=1, value=10),
            Const(dst=2, value=20),
            Load(dst=1, addr=2),  # r1: no longer a known constant
            BinOp(op="+", dst=3, a=1, b=2),
            Const(dst=1, value=99),
            _print(3),
            _print(1),
            Ret(),
        ])))
        assert observed[0] == [20, 99]

    def test_register_read_before_any_write_reads_zero(self):
        observed = _agree(_program(_main(
            [
                CJump(cond=1, then_label="set", else_label="use"),
                Const(dst=2, value=9),
                Jump(label="use"),
                _print(2),
                BinOp(op="+", dst=3, a=2, b=4),
                Ret(src=3),
            ],
            {"set": 1, "use": 3},
        )))
        assert observed[0] == [0]

    def test_float_chain_keeps_evaluation_order(self):
        observed = _agree(_program(_main([
            Const(dst=1, value=1.5),
            Const(dst=2, value=0.0),
            BinOp(op="/", dst=3, a=1, b=2, float_op=True),  # inf
            BinOp(op="-", dst=4, a=3, b=3, float_op=True),  # nan
            BinOp(op="<", dst=5, a=4, b=1, float_op=True),
            BinOp(op="!=", dst=6, a=4, b=4, float_op=True),
            BinOp(op="*", dst=7, a=1, b=1, float_op=True),
            BinOp(op="+", dst=8, a=7, b=3, float_op=True),
            _print(3, "float"),
            _print(5),
            _print(6),
            _print(8, "float"),
            CJump(cond=5, then_label="end", else_label="neg"),
            _print(6),
            Ret(),
        ], {"neg": 13, "end": 14})))
        assert observed[0] == [math.inf, 0, 1, math.inf, 1]

    def test_store_then_load_of_the_same_address_in_one_block(self):
        observed = _agree(_program(_main([
            Const(dst=1, value=4096),
            Const(dst=2, value=41),
            Store(addr=1, src=2),
            Const(dst=2, value=42),
            Load(dst=3, addr=1),
            Store(addr=1, src=2),
            Load(dst=4, addr=1),
            _print(3),
            _print(4),
            Ret(),
        ])))
        assert observed[0] == [41, 42]

    def test_dead_division_still_traps(self):
        program = _program(_main([
            Const(dst=1, value=1),
            Const(dst=2, value=0),
            BinOp(op="/", dst=3, a=1, b=2),
            Ret(),
        ]))
        assert _agree(program) == "integer division by zero"


_LOOPS = """
int helper(int x) { return x + 1; }

int early(int limit, int stop) {
    int i = 0;
    int last = 0;
    while (i < limit) {
        if (i == stop) { return last; }
        if (i * i > 20) { break; }
        last = helper(i);
        i = i + 1;
    }
    return last + 100;
}

void main() {
    int total = 0;
    int kept = 0;
    for (int a = 0; a < 3; a = a + 1) {
        for (int b = 0; b < 4; b = b + 1) {
            if (b == 2) { continue; }
            for (int c = 0; c < 2; c = c + 1) {
                total = total + helper(a * b + c);
                kept = c;
            }
        }
    }
    print_int(total);
    print_int(kept);
    print_int(early(5, 9));
    print_int(early(9, 3));
    print_int(early(9, 8));
}
"""


class TestStructuredControl:
    def test_loop_nest_exits_and_a_value_read_only_after_the_loop(self):
        program = compile_program(_LOOPS, CELL_LIKE)
        source = generate_module_source(program, CELL_LIKE.cost)
        assert "_pc" not in source
        observed = _agree(program)
        assert observed[0] == [51, 1, 105, 3, 105]

    def test_cjump_whose_arms_rejoin_and_one_whose_arm_returns(self):
        observed = _agree(_program(_main(
            [
                Const(dst=1, value=1),
                CJump(cond=1, then_label="a", else_label="b"),
                Const(dst=2, value=10),
                Jump(label="join"),
                Const(dst=2, value=20),
                _print(2),
                CJump(cond=0, then_label="out", else_label="on"),
                Ret(src=2),
                _print(1),
                Ret(),
            ],
            {"a": 2, "b": 4, "join": 5, "out": 7, "on": 8},
        )))
        assert observed[0] == [10, 1]

    def test_irreducible_cfg_keeps_the_ladder_and_still_agrees(self):
        # Two blocks that jump into each other, both entered from
        # outside: neither dominates the other, so there is no natural
        # loop to open.
        program = _program(_main(
            [
                Const(dst=1, value=1),
                CJump(cond=0, then_label="x", else_label="y"),
                BinOp(op="+", dst=0, a=0, b=1),        # x
                _print(0),
                Jump(label="y"),
                BinOp(op="+", dst=2, a=2, b=1),        # y
                Const(dst=3, value=3),
                BinOp(op="<", dst=4, a=2, b=3),
                CJump(cond=4, then_label="x", else_label="end"),
                Ret(src=2),
            ],
            {"x": 2, "y": 5, "end": 9},
        ))
        source = generate_module_source(program, CELL_LIKE.cost)
        assert "_pc == 5" in source
        observed = _agree(program, ladders=1)
        assert observed[0] == [1, 2]


class TestBudgetSweep:
    def test_every_budget_traps_or_completes_identically(self):
        """Nested loops with a call in the inner one: the hoisted
        counters are written back around every call, so for every
        budget both engines stop (or finish) the same way."""
        program = _program(
            _main(
                [
                    Const(dst=1, value=0),
                    Const(dst=9, value=1),
                    Const(dst=2, value=0),                       # outer
                    Const(dst=3, value=3),
                    BinOp(op="<", dst=4, a=1, b=3),
                    CJump(cond=4, then_label="inner", else_label="end"),
                    Const(dst=5, value=2),                       # inner
                    BinOp(op="<", dst=6, a=2, b=5),
                    CJump(cond=6, then_label="body", else_label="step"),
                    Call(dst=7, callee="bump", args=[2]),        # body
                    BinOp(op="+", dst=8, a=8, b=7),
                    BinOp(op="+", dst=2, a=2, b=9),
                    Jump(label="inner"),
                    BinOp(op="+", dst=1, a=1, b=9),              # step
                    Jump(label="outer"),
                    _print(8),                                   # end
                    Ret(src=8),
                ],
                {"outer": 2, "inner": 6, "body": 9, "step": 13, "end": 15},
            ),
            IRFunction(
                name="bump", params=["x"], num_regs=3,
                code=[
                    Const(dst=1, value=5),
                    BinOp(op="+", dst=2, a=0, b=1),
                    Ret(src=2),
                ],
            ),
        )
        complete = _agree(program)
        total = complete[4]
        assert 80 < total < 200
        for budget in range(1, total + 1):
            observed = _observe(program, "codegen", budget)
            assert observed == _observe(program, "reference", budget)
            if budget < total:
                assert observed == f"instruction budget exceeded ({budget})"
            else:
                assert observed == complete

    def test_trap_leaves_the_counters_where_the_ladder_left_them(self):
        """On the exception path the hoisted locals are restored: the
        retired-instruction count and the host clock after a trap are
        those of a run that kept them in ``eng`` / ``ctx``."""
        program = compile_program(figure2_source(frames=1), CELL_LIKE)
        budget = 5000
        engine = CodegenInterpreter(
            program, Machine(CELL_LIKE),
            RunOptions(engine="codegen", max_instructions=budget),
        )
        engine.load_image()
        ctx = engine.make_host_context()
        with pytest.raises(ReproError, match="budget exceeded"):
            engine._exec_function(program.function("main"), [], ctx)
        # Charged per block at block entry, so the trap fires in the
        # first block that would cross the budget.
        assert budget < engine._instructions < budget + 64
        assert ctx.now > 0


class TestSizeGate:
    def test_figure2_module_is_a_fifth_smaller_and_has_no_ladder(self):
        program = compile_program(figure2_source(), CELL_LIKE)
        source = generate_module_source(program, CELL_LIKE.cost)
        assert source.count("\ndef _f") == len(program.functions) == 9
        assert len(source.splitlines()) <= 1000  # 1253 before the optimiser
        # One statement per line: the gate is not met by joining lines.
        starts = [
            node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt)
        ]
        assert len(starts) == len(set(starts))
        engine = CodegenInterpreter(program, Machine(CELL_LIKE), RunOptions())
        engine._ensure_module()
        assert engine.codegen_stats.ladders == 0
