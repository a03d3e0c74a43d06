"""Each generated function depends only on its own IR.

A function's compile unit is a function of its IR, the cost model and
the program's global layout — never of the other functions.  Adding a
function, removing one, or changing one function's code leaves every
other function's unit byte-identical; only the prelude (the union of
the units' needs) and the dispatch table may move.
"""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.compiler.driver import compile_program
from repro.ir.instructions import AccSpace, Call, Const, ICall, Load, Ret
from repro.ir.module import IRFunction, IRProgram
from repro.machine.config import resolve_target, target_names
from repro.tools.check import _game_corpus
from repro.vm.codegen import generate_module_units

CORPUS = dict(_game_corpus())
CASES = [(name, target) for target in target_names() for name in CORPUS]


@functools.lru_cache(maxsize=None)
def _compiled(name: str, target: str) -> IRProgram:
    return compile_program(CORPUS[name], resolve_target(target))


def _units(program: IRProgram, target: str) -> dict[str, str]:
    """Function name -> its generated unit."""
    units = generate_module_units(program, resolve_target(target).cost)
    return dict(zip(sorted(program.functions), units[1:-1]))


@functools.lru_cache(maxsize=None)
def _pristine_units(name: str, target: str) -> dict[str, str]:
    return _units(_compiled(name, target), target)


def _code(body: str, callee: IRFunction) -> list:
    """A small function body; the loads and the indirect call make the
    prelude provide a codec and the function-id table."""
    if body == "const":
        return [Const(dst=0, value=7), Ret(src=0)]
    if body == "load":
        return [
            Const(dst=0, value=16),
            Load(dst=1, addr=0, size=1, signed=False),
            Load(dst=2, addr=0, size=4, is_float=True, space=AccSpace.LOCAL),
            Ret(src=1),
        ]
    if body == "icall":
        return [Const(dst=0, value=1), ICall(dst=1, func_id=0), Ret(src=1)]
    args = list(range(len(callee.params)))
    return [
        *(Const(dst=reg, value=reg) for reg in args),
        Call(dst=0, callee=callee.name, args=args),
        Ret(src=0),
    ]


BODIES = ["const", "load", "icall", "call"]
#: Names of added functions: one a plain identifier, the others of the
#: shapes the compiler mangles (methods, accel duplicates).
NEW_NAMES = ["extra", "Extra::step", "Extra::step$0:O", "main$"]


@st.composite
def edits(draw):
    """(corpus program, target, edited program, edited function name)."""
    name, target = draw(st.sampled_from(CASES))
    program = _compiled(name, target)
    functions = dict(program.functions)
    called = {
        instr.callee
        for function in functions.values()
        for instr in function.code
        if isinstance(instr, Call)
    }
    names = sorted(functions)
    callee = functions[draw(st.sampled_from(names))]
    removable = [n for n in names if n not in called and n != program.entry]
    kinds = ["add", "change"] + (["remove"] if removable else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "remove":
        edited = draw(st.sampled_from(removable))
        del functions[edited]
    else:
        code = _code(draw(st.sampled_from(BODIES)), callee)
        if kind == "add":
            edited = draw(st.sampled_from(NEW_NAMES))
            functions[edited] = IRFunction(
                name=edited, params=[], num_regs=8, code=code
            )
        else:
            edited = draw(st.sampled_from(names))
            old = functions[edited]
            functions[edited] = dataclasses.replace(
                old, code=code, labels={}, num_regs=max(old.num_regs, 8)
            )
    return name, target, dataclasses.replace(program, functions=functions), edited


@given(edits())
@settings(max_examples=20, deadline=None)
def test_an_edit_leaves_every_other_unit_byte_identical(edit):
    name, target, program, edited = edit
    program.validate()  # still a program codegen must translate in full
    before = _pristine_units(name, target)
    after = _units(program, target)
    assert set(after) == set(program.functions)
    for function in (before.keys() & after.keys()) - {edited}:
        assert after[function] == before[function], (name, target, function)
