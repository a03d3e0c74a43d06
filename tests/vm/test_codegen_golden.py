"""Generated code changed => ``CODEGEN_VERSION`` bumped.

The disk cache serves marshalled code objects keyed by the program and
``CODEGEN_VERSION``; an emitter edit that changes the generated source
without a bump would keep serving the old code from every warm cache.
``golden_codegen.json`` pins one sha256 of ``generate_module_source``
per corpus program and registry target — plus one hand-built function
that uses every arithmetic instruction the IR has, typed and untyped —
next to the version they were taken at.  Regenerate after a deliberate
change (and a bump) with ``PYTHONPATH=src python
tests/vm/test_codegen_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.compiler.driver import compile_program
from repro.ir.instructions import BinOp, Const, Intrinsic, Ret, UnOp
from repro.ir.module import IRFunction
from repro.machine.config import CELL_LIKE, resolve_target, target_names
from repro.tools.check import _game_corpus
from repro.vm.codegen import CODEGEN_VERSION, generate_module_source

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_codegen.json")

_INT_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
_COMPARES = ("==", "!=", "<", "<=", ">", ">=")
_UNOPS = (
    "-", "!", "~", "itof", "ftoi", "sext8", "sext16", "zext8", "zext16",
)
_PURE_INTRINSICS = (
    ("sqrtf", 1), ("fabsf", 1), ("iabs", 1),
    ("imin", 2), ("imax", 2), ("fminf", 2), ("fmaxf", 2),
)


def every_operator_function() -> IRFunction:
    """Each BinOp / UnOp / pure intrinsic once over the untyped
    parameters (r0, r1) and once over typed constants, every result
    printed so nothing is dropped."""
    code: list = [Const(dst=2, value=7), Const(dst=3, value=2.5)]
    reg = 5

    def keep(instr) -> None:
        nonlocal reg
        instr.dst = reg
        code.append(instr)
        code.append(Intrinsic(name="print_int", args=[reg]))
        reg += 1

    for a, b in ((0, 1), (2, 2)):
        for signed in (True, False):
            for op in _INT_OPS + _COMPARES:
                keep(BinOp(op=op, a=a, b=b, signed=signed))
    for a, b in ((0, 1), (3, 3)):
        for op in ("+", "-", "*", "/") + _COMPARES:
            keep(BinOp(op=op, a=a, b=b, float_op=True))
    for a in (0, 2, 3):
        for op in _UNOPS:
            keep(UnOp(op=op, a=a, float_op=(a == 3 and op == "-")))
    for a in (0, 2, 3):
        for name, arity in _PURE_INTRINSICS:
            keep(Intrinsic(name=name, args=[a] * arity))
    code.append(Intrinsic(name="sqrtf", args=[3]))  # result discarded
    code.append(Ret(src=None))
    return IRFunction(name="every_operator", params=["a", "b"],
                      num_regs=reg, code=code)


def _sha256(program, cost) -> str:
    text = generate_module_source(program, cost)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def current_hashes() -> dict[str, str]:
    hashes = {}
    for target in target_names():
        config = resolve_target(target)
        for name, source in _game_corpus():
            program = compile_program(source, config)
            hashes[f"{name}@{target}"] = _sha256(program, config.cost)
    program = compile_program("void main() { }", CELL_LIKE)
    program.functions["every_operator"] = every_operator_function()
    hashes["ir:every-operator@cell"] = _sha256(program, CELL_LIKE.cost)
    return hashes


def test_generated_code_changes_only_with_a_version_bump():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["codegen_version"] == CODEGEN_VERSION, (
        "CODEGEN_VERSION moved: regenerate tests/vm/golden_codegen.json "
        "(python tests/vm/test_codegen_golden.py)"
    )
    current = current_hashes()
    changed = sorted(
        key
        for key in golden["sha256"].keys() | current.keys()
        if golden["sha256"].get(key) != current.get(key)
    )
    assert not changed, (
        f"generated source changed for {changed} with CODEGEN_VERSION "
        f"still {CODEGEN_VERSION}: warm disk caches would keep serving "
        f"the old code — bump the version and regenerate the golden file"
    )


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(
            {"codegen_version": CODEGEN_VERSION, "sha256": current_hashes()},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {GOLDEN}")
