"""Tests for the IR optimisation passes."""

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.compiler.optimize import (
    eliminate_dead_code,
    fold_constants,
    instr_def,
    instr_uses,
    optimize_function,
)
from repro.game.sources import (
    ai_kernel_source,
    component_system_source,
    figure1_source,
    figure2_source,
    move_loop_source,
    word_struct_source,
)
from repro.ir.instructions import BinOp, CJump, Const, Jump, Move, Ret, Store
from repro.ir.module import IRFunction
from repro.machine.config import CELL_LIKE, DSP_WORD, SMP_UNIFORM
from repro.machine.machine import Machine
from repro.vm.interpreter import run_program


def function_of(code, labels=None, params=0):
    return IRFunction(
        name="t",
        params=["p"] * params,
        num_regs=32,
        code=code,
        labels=labels or {},
    )


class TestFolding:
    def test_constant_binop_folds(self):
        fn = function_of(
            [
                Const(dst=0, value=2),
                Const(dst=1, value=3),
                BinOp(op="+", dst=2, a=0, b=1),
                Ret(src=2),
            ]
        )
        fold_constants(fn)
        assert isinstance(fn.code[2], Const)
        assert fn.code[2].value == 5

    def test_copy_propagation_through_moves(self):
        fn = function_of(
            [
                Const(dst=0, value=7),
                Move(dst=1, src=0),
                Move(dst=2, src=1),
                Ret(src=2),
            ]
        )
        fold_constants(fn)
        assert fn.code[3].src == 0

    def test_known_condition_becomes_jump(self):
        fn = function_of(
            [
                Const(dst=0, value=1),
                CJump(cond=0, then_label="T", else_label="F"),
                Ret(src=None),
                Ret(src=None),
            ],
            labels={"T": 2, "F": 3},
        )
        fold_constants(fn)
        assert isinstance(fn.code[1], Jump)
        assert fn.code[1].label == "T"

    def test_state_resets_at_labels(self):
        """A register constant from before a jump target must not be
        assumed inside the target block (a back edge may change it)."""
        fn = function_of(
            [
                Const(dst=0, value=1),
                BinOp(op="+", dst=1, a=0, b=0),  # at label L: 0 unknown
                Ret(src=1),
            ],
            labels={"L": 1},
        )
        fold_constants(fn)
        assert isinstance(fn.code[1], BinOp)  # not folded

    def test_const_value_field_is_not_a_register(self):
        """Regression: Const.value must never be rewritten as a copy."""
        fn = function_of(
            [
                Const(dst=4, value=9),
                Move(dst=3, src=4),
                Const(dst=5, value=4),  # the *value* 4 aliases reg 4
                Ret(src=5),
            ]
        )
        fold_constants(fn)
        assert fn.code[2].value == 4

    def test_division_not_folded(self):
        """Division is left to the runtime (trap semantics)."""
        fn = function_of(
            [
                Const(dst=0, value=1),
                Const(dst=1, value=0),
                BinOp(op="/", dst=2, a=0, b=1),
                Ret(src=2),
            ]
        )
        fold_constants(fn)
        assert isinstance(fn.code[2], BinOp)


class TestDeadCodeElimination:
    def test_unused_pure_results_removed(self):
        fn = function_of(
            [
                Const(dst=0, value=1),
                Const(dst=1, value=2),  # dead
                Ret(src=0),
            ]
        )
        removed = eliminate_dead_code(fn)
        assert removed == 1
        assert len(fn.code) == 2

    def test_stores_never_removed(self):
        fn = function_of(
            [
                Const(dst=0, value=64),
                Const(dst=1, value=5),
                Store(addr=0, src=1, size=4),
                Ret(src=None),
            ]
        )
        assert eliminate_dead_code(fn) == 0

    def test_multiply_defined_registers_kept(self):
        """Loop-carried variables are written twice; a backward use may
        exist even if no later instruction reads them."""
        fn = function_of(
            [
                Const(dst=0, value=0),
                Const(dst=0, value=1),
                Ret(src=None),
            ]
        )
        assert eliminate_dead_code(fn) == 0

    def test_labels_remapped_after_removal(self):
        fn = function_of(
            [
                Const(dst=0, value=1),  # dead
                Const(dst=1, value=2),
                Jump(label="end"),
                Ret(src=1),
            ],
            labels={"end": 3},
        )
        eliminate_dead_code(fn)
        assert fn.labels["end"] == 2
        fn.check(())

    def test_introspection_helpers(self):
        store = Store(addr=1, src=2, size=4)
        assert instr_uses(store) == [1, 2]
        assert instr_def(store) is None
        binop = BinOp(op="+", dst=3, a=1, b=2)
        assert instr_def(binop) == 3


WORKLOADS = [
    ("figure1", figure1_source(16, 8), CELL_LIKE),
    ("figure2", figure2_source(16, 8, 1), CELL_LIKE),
    ("ai", ai_kernel_source(16, cache="setassoc"), CELL_LIKE),
    ("components", component_system_source(3, 3, 2), CELL_LIKE),
    ("move", move_loop_source(8, use_accessor=True, cache="direct"), CELL_LIKE),
    ("word", word_struct_source(8), DSP_WORD),
    ("smp", figure2_source(16, 8, 1), SMP_UNIFORM),
]


class TestEndToEnd:
    @pytest.mark.parametrize("name,source,config", WORKLOADS)
    def test_semantics_preserved(self, name, source, config):
        plain = run_program(
            compile_program(source, config), Machine(config)
        )
        optimized = run_program(
            compile_program(source, config, CompileOptions(optimize=True)),
            Machine(config),
        )
        assert optimized.printed == plain.printed

    @pytest.mark.parametrize("name,source,config", WORKLOADS)
    def test_optimization_helps_or_is_neutral(self, name, source, config):
        plain = compile_program(source, config)
        optimized = compile_program(
            source, config, CompileOptions(optimize=True)
        )
        assert optimized.total_instructions() <= plain.total_instructions()
        fast = run_program(optimized, Machine(config))
        slow = run_program(plain, Machine(config))
        assert fast.cycles <= slow.cycles

    def test_meaningful_reduction_on_real_code(self):
        source = figure2_source(24, 16, 1)
        plain = compile_program(source, CELL_LIKE)
        optimized = compile_program(
            source, CELL_LIKE, CompileOptions(optimize=True)
        )
        reduction = 1 - optimized.total_instructions() / plain.total_instructions()
        assert reduction > 0.1
