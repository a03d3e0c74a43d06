"""IR optimisation passes.

The lowering stage emits straightforward code (one Const per literal,
a Move per variable read).  These passes clean that up:

* **constant folding / propagation** — per basic block: registers with
  known constant values are folded into dependent ALU operations, and
  conditional jumps on known conditions become unconditional;
* **copy propagation** — ``Move`` chains are short-circuited;
* **dead code elimination** — pure instructions (ALU, address
  computation, loads) whose results are never used are removed.

All passes preserve program semantics exactly; they only reduce the
instruction count, and therefore the simulated cycle cost — which is
what an optimiser is for.  Enable with
``CompileOptions(optimize=True)``.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import ops
from repro.ir.instructions import (
    BinOp,
    CJump,
    Const,
    Extract,
    FrameAddr,
    GlobalAddr,
    Instr,
    Jump,
    Load,
    Move,
    UnOp,
    instr_def,
    instr_uses,
    rewrite_uses,
)
from repro.ir.module import IRFunction


def is_pure(instr: Instr) -> bool:
    """True when the instruction has no effect besides its result.

    Loads are pure here: removing a load whose value is unused is a
    legitimate optimisation (it also removes the access cost, which is
    the point).
    """
    return isinstance(
        instr, (Const, Move, BinOp, UnOp, FrameAddr, GlobalAddr, Load, Extract)
    )


# ---------------------------------------------------------------------------
# Constant folding and copy propagation (per basic block)
# ---------------------------------------------------------------------------


def _fold(instr: "BinOp | UnOp", values: list[object]) -> Optional[object]:
    """Evaluate an ALU instruction over known constants, by the operator
    table; None if not foldable.  Integer division and right shifts,
    float division by zero and every unary op but ``- ! ~`` are left to
    run time."""
    try:
        if isinstance(instr, UnOp):
            if instr.op not in ("-", "!", "~"):
                return None
            op = ops.UNOPS[instr.op, instr.float_op]
        elif instr.op in ("/", "%", ">>") and (
            not instr.float_op or float(values[1]) == 0.0  # type: ignore[arg-type]
        ):
            return None
        else:
            op = ops.BINOPS[instr.op, instr.float_op, instr.signed]
        return op.fn(*values)
    except (KeyError, TypeError):
        return None


def fold_constants(function: IRFunction) -> int:
    """Propagate constants/copies inside basic blocks; returns the
    number of instructions rewritten."""
    block_starts = set(function.labels.values())
    constants: dict[int, object] = {}
    copies: dict[int, int] = {}
    changed = 0

    def invalidate(reg: int) -> None:
        constants.pop(reg, None)
        copies.pop(reg, None)
        for key in [k for k, v in copies.items() if v == reg]:
            copies.pop(key)

    def canonical(reg: int) -> int:
        seen = set()
        while reg in copies and reg not in seen:
            seen.add(reg)
            reg = copies[reg]
        return reg

    for index, instr in enumerate(function.code):
        if index in block_starts:
            constants.clear()
            copies.clear()
        changed += rewrite_uses(instr, canonical)
        if isinstance(instr, (BinOp, UnOp)) and instr.a in constants:
            operands = instr_uses(instr)
            if all(reg in constants for reg in operands):
                folded = _fold(instr, [constants[reg] for reg in operands])
                if folded is not None:
                    function.code[index] = Const(
                        dst=instr.dst, value=folded, comment="folded"
                    )
                    instr = function.code[index]
                    changed += 1
        elif isinstance(instr, CJump):
            if instr.cond in constants:
                target = (
                    instr.then_label
                    if constants[instr.cond]
                    else instr.else_label
                )
                function.code[index] = Jump(label=target, comment="folded cjump")
                instr = function.code[index]
                changed += 1
        # Update the abstract state.
        defined = instr_def(instr)
        if defined is not None:
            invalidate(defined)
            if isinstance(instr, Const):
                constants[defined] = instr.value
            elif isinstance(instr, Move):
                source = instr.src
                if source in constants:
                    constants[defined] = constants[source]
                copies[defined] = source
    return changed


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------


def eliminate_dead_code(function: IRFunction) -> int:
    """Remove pure instructions whose results are never read.

    Conservative about variable home registers: a register that is
    written more than once (a mutable variable, e.g. a loop counter)
    is never eliminated, because a later read may occur earlier in the
    code (loop back edge).
    """
    use_counts: dict[int, int] = {}
    def_counts: dict[int, int] = {}
    for instr in function.code:
        for reg in instr_uses(instr):
            use_counts[reg] = use_counts.get(reg, 0) + 1
        defined = instr_def(instr)
        if defined is not None:
            def_counts[defined] = def_counts.get(defined, 0) + 1
    param_regs = set(range(len(function.params)))
    dead_indices = set()
    for index, instr in enumerate(function.code):
        defined = instr_def(instr)
        if (
            defined is not None
            and is_pure(instr)
            and use_counts.get(defined, 0) == 0
            and def_counts.get(defined, 0) == 1
            and defined not in param_regs
        ):
            dead_indices.add(index)
    if not dead_indices:
        return 0
    _rebuild(function, dead_indices)
    return len(dead_indices)


def _rebuild(function: IRFunction, dead_indices: set[int]) -> None:
    """Drop the given instruction indices, remapping label targets."""
    index_map: dict[int, int] = {}
    new_code: list[Instr] = []
    for index, instr in enumerate(function.code):
        index_map[index] = len(new_code)
        if index not in dead_indices:
            new_code.append(instr)
    index_map[len(function.code)] = len(new_code)
    function.code = new_code
    function.labels = {
        name: index_map[target] for name, target in function.labels.items()
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def optimize_function(function: IRFunction, max_rounds: int = 4) -> int:
    """Run the pass pipeline to a fixpoint; returns instructions removed."""
    before = len(function.code)
    for _ in range(max_rounds):
        changed = fold_constants(function)
        changed += eliminate_dead_code(function)
        if changed == 0:
            break
    return before - len(function.code)


def optimize_program(functions: dict[str, IRFunction]) -> int:
    """Optimise every function; returns total instructions removed."""
    removed = 0
    for function in functions.values():
        removed += optimize_function(function)
    return removed
