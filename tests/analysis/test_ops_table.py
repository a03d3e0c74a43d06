"""The analyser and the codegen engine, checked against the one table
of operator semantics (:mod:`repro.ir.ops`).

Parametrised over the table itself, so an operator added to it is
covered without touching this file: on sampled operands — the 32-bit
corners, shift counts past 31, negative dividends, the float specials —

* the interval transfer function (``IntervalAnalysis._step``, which is
  ``_arith`` and the ``UnOp`` arm) must *contain* ``Op.fn``'s concrete
  result whenever it claims anything, for exact, ranged and ⊤ operands;
* the generated code for the instruction — operands as untyped
  parameters, so every coercion is exercised — must return exactly what
  ``Op.fn`` returns, trap message included.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.analysis.intervals import (
    TOP_INT,
    AbsInt,
    Congruence,
    Interval,
    IntervalAnalysis,
)
from repro.compiler.driver import compile_program
from repro.errors import RuntimeTrap
from repro.ir import ops
from repro.ir.instructions import BinOp, Intrinsic, Ret, UnOp
from repro.ir.module import IRFunction
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.vm.codegen import CodegenInterpreter

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
INTS = (
    0, 1, -1, 2, 3, 4, 7, -7, -8, 31, 32, 33, 255, -129,
    INT_MIN, INT_MAX, INT_MAX + 1, 0xFFFFFFFF,
)
FLOATS = (0.0, -0.0, 1.5, -2.5, 3e9, -1e12, math.inf, -math.inf, math.nan)

ENTRIES = (
    [(BinOp(op=o, a=0, b=1, dst=2, float_op=f, signed=s), entry)
     for (o, f, s), entry in ops.BINOPS.items()]
    + [(UnOp(op=o, a=0, dst=2, float_op=f), entry)
       for (o, f), entry in ops.UNOPS.items()]
    + [(Intrinsic(name=n, args=list(range(len(entry.kinds))), dst=2), entry)
       for n, entry in ops.INTRINSICS.items()]
)


def _label(instr) -> str:
    return instr.describe().replace(" ", "")


def _samples(entry: ops.Op):
    """Operand tuples for one entry: floats where it reads floats, ints
    elsewhere (compares, which read either, get both)."""
    pools = [FLOATS if kind == "f" else INTS for kind in entry.kinds]
    yield from itertools.product(*pools)
    if entry.kinds == "rr":
        yield from itertools.product(FLOATS, FLOATS)


def _concrete(entry: ops.Op, operands):
    """``fn``'s result, or the trap message as a string in a tuple."""
    try:
        return entry.fn(*operands)
    except RuntimeTrap as trap:
        return (str(trap),)


def _abstractions(value):
    """Sound abstract values for one concrete int: exact, two ranges
    reaching past it on either side, and ⊤."""
    yield AbsInt.const(value)
    yield AbsInt(Interval(value - 9, value + 5), Congruence(1, 0))
    yield AbsInt(Interval(min(value, -3), None), Congruence(1, 0))
    yield TOP_INT


@pytest.mark.parametrize(
    "instr,entry", ENTRIES, ids=[_label(i) for i, _ in ENTRIES]
)
def test_interval_transfer_contains_the_concrete_result(instr, entry):
    analysis = IntervalAnalysis(IRFunction(name="f", params=[], num_regs=3))
    for operands in _samples(entry):
        if not all(isinstance(v, int) for v in operands):
            continue  # the domain tracks integers only
        result = _concrete(entry, operands)
        if isinstance(result, tuple):
            continue  # trapped: no value to contain
        for abstract in itertools.product(*map(_abstractions, operands)):
            regs = dict(enumerate(abstract))
            analysis._step(instr, regs, {}, {})
            claimed = regs.get(2)
            if claimed is None:
                continue  # ⊤
            assert isinstance(claimed, AbsInt)
            assert isinstance(result, int) and claimed.contains(result), (
                f"{instr.describe()} on {operands} is {result!r}, outside "
                f"{claimed} predicted from {abstract}"
            )


@pytest.fixture(scope="module")
def generated():
    """One program with a two-parameter function per table entry, and
    the codegen engine to call them through."""
    program = compile_program("void main() { }", CELL_LIKE)
    for index, (instr, _) in enumerate(ENTRIES):
        program.functions[f"op{index}"] = IRFunction(
            name=f"op{index}", params=["a", "b"], num_regs=3,
            code=[instr, Ret(src=2)],
        )
    engine = CodegenInterpreter(program, Machine(CELL_LIKE))
    assert len(engine._ensure_module()) == len(program.functions)
    return engine, engine.make_host_context()


@pytest.mark.parametrize(
    "index", range(len(ENTRIES)), ids=[_label(i) for i, _ in ENTRIES]
)
def test_generated_code_computes_what_the_table_function_does(
    generated, index
):
    engine, ctx = generated
    instr, entry = ENTRIES[index]
    function = engine.program.function(f"op{index}")
    for operands in _samples(entry):
        args = list(operands) + [0] * (2 - len(operands))
        try:
            got = engine._exec_function(function, args, ctx)
        except RuntimeTrap as trap:
            got = (str(trap),)
        want = _concrete(entry, operands)
        assert repr(got) == repr(want), (
            f"{instr.describe()} on {operands}: generated code gives "
            f"{got!r}, the table's function {want!r}"
        )
