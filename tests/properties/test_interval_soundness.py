"""Soundness property for the interval × congruence analysis.

Hypothesis generates small arithmetic programs (straight-line code,
``if``/``else``, nested constant-bound ``for`` loops) over every
integer operator of the language, each compiled offload is run
*concretely* by a tiny IR evaluator whose arithmetic is the operator
table's own (:mod:`repro.ir.ops` — the functions both engines run), and
every register value observed before every executed instruction must
lie inside the abstract value the analysis predicts there (absent
registers are ⊤ — trivially sound).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.intervals import AbsInt, analyze_function, operand_values
from repro.compiler.driver import compile_program
from repro.ir import ops
from repro.ir.instructions import (
    BinOp,
    CJump,
    Const,
    FrameAddr,
    GlobalAddr,
    Jump,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)
from repro.machine.config import APU_UNIFIED, CELL_LIKE
from repro.machine.memory import MAX_SPACE_BYTES
from repro.vm.codegen import operand_range, wrap_proof

VARS = ("x0", "x1", "x2", "x3")

_exprs = st.one_of(
    st.integers(-100, 100).map(str),
    st.sampled_from(VARS),
    st.tuples(
        st.sampled_from(VARS),
        st.sampled_from(("+", "-", "*", "&", "|", "^", "<<", ">>")),
        st.one_of(st.integers(-9, 9).map(str), st.sampled_from(VARS)),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    # Division traps on zero, so only by constants that are not.
    st.tuples(
        st.sampled_from(VARS),
        st.sampled_from(("/", "%")),
        st.integers(-9, 9).filter(bool),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
)

_assign = st.tuples(st.sampled_from(VARS), _exprs).map(
    lambda t: ("assign", t[0], t[1])
)

_statements = st.deferred(
    lambda: st.lists(
        st.one_of(
            _assign,
            st.tuples(
                st.sampled_from(VARS),
                st.sampled_from(("<", "<=", "==", "!=")),
                st.sampled_from(VARS),
                st.lists(_assign, min_size=1, max_size=3),
                st.lists(_assign, max_size=2),
            ).map(lambda t: ("if", *t)),
            st.tuples(
                st.integers(0, 6), st.lists(_assign, min_size=1, max_size=3)
            ).map(lambda t: ("for", *t)),
        ),
        max_size=6,
    )
)


def _render(statements, indent, counter):
    lines = []
    pad = " " * indent
    for stmt in statements:
        if stmt[0] == "assign":
            lines.append(f"{pad}{stmt[1]} = {stmt[2]};")
        elif stmt[0] == "if":
            _, a, op, b, then, orelse = stmt
            lines.append(f"{pad}if ({a} {op} {b}) {{")
            lines.extend(_render(then, indent + 4, counter))
            if orelse:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render(orelse, indent + 4, counter))
            lines.append(f"{pad}}}")
        else:
            _, bound, body = stmt
            counter[0] += 1
            t = f"t{counter[0]}"
            lines.append(
                f"{pad}for (int {t} = 0; {t} < {bound}; {t} = {t} + 1) {{"
            )
            lines.extend(_render(body, indent + 4, counter))
            lines.append(f"{pad}}}")
    return lines


def render_program(inits, statements) -> str:
    counter = [0]
    decls = [f"int {v} = {c};" for v, c in zip(VARS, inits)]
    body = "\n            ".join(
        decls + _render(statements, 0, counter)
    )
    return f"""
    void main() {{
        __offload {{
            {body}
        }};
    }}
    """


def step_plain(instr, regs: dict) -> None:
    """One Const, Move, BinOp or UnOp, by the operator table."""
    if isinstance(instr, Const):
        regs[instr.dst] = instr.value
    elif isinstance(instr, Move):
        regs[instr.dst] = regs[instr.src]
    elif isinstance(instr, BinOp):
        regs[instr.dst] = ops.BINOPS[
            instr.op, instr.float_op, instr.signed
        ].fn(regs[instr.a], regs[instr.b])
    else:
        regs[instr.dst] = ops.UNOPS[instr.op, instr.float_op].fn(regs[instr.a])


def evaluate(function, fuel=20000):
    """Run the IR concretely; a register snapshot before every step."""
    labels = function.labels
    regs: dict[int, int] = {}
    observed: list[tuple[int, dict[int, int]]] = []
    pc = 0
    while fuel > 0:
        fuel -= 1
        observed.append((pc, dict(regs)))
        instr = function.code[pc]
        if isinstance(instr, (Const, Move, BinOp, UnOp)):
            step_plain(instr, regs)
        elif isinstance(instr, Jump):
            pc = labels[instr.label]
            continue
        elif isinstance(instr, CJump):
            pc = labels[
                instr.then_label if regs[instr.cond] else instr.else_label
            ]
            continue
        elif isinstance(instr, Ret):
            return observed
        else:  # pragma: no cover - generator emits no other opcodes
            raise AssertionError(f"unexpected instruction {instr!r}")
        pc += 1
    raise AssertionError("evaluator ran out of fuel")


def assert_sound(inits, statements):
    program = compile_program(render_program(inits, statements), CELL_LIKE)
    (entry,) = program.accel_functions()
    solved = analyze_function(entry)
    predicted: dict[int, dict] = {}

    for pc, snapshot in evaluate(entry):
        abstract = predicted.get(pc)
        if abstract is None:
            abstract = predicted[pc] = solved.values_before(pc)
        for reg, value in abstract.items():
            if reg not in snapshot or not isinstance(value, AbsInt):
                continue  # undefined yet / non-integer: nothing to check
            assert value.contains(snapshot[reg]), (
                f"r{reg} = {snapshot[reg]} escapes {value} at pc {pc}"
            )


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(-50, 50) for _ in VARS]),
    _statements,
)
def test_every_concrete_value_lies_in_its_interval(inits, statements):
    assert_sound(inits, statements)


def test_congruence_survives_32bit_wrap():
    """The shrunk counter-example the property once found: 15 squared
    three times wraps to -1732076671, which the analysis used to place
    in ``≡ 225 (mod 3150)`` — a modulus wrap-around does not preserve."""
    assert_sound((15, 0, 0, 0), [("for", 3, [("assign", "x0", "x0 * x0")])])


# ------------------------------------------------- as codegen reads them
#
# Codegen (repro.vm.codegen) reads operand_values' solve: each operand's
# range (operand_range: an integer's interval, a global's address plus
# offset, a frame address inside its frame) and, from the op's result,
# whether its unwrapped term lies in its wrap's domain or its value is
# one constant (wrap_proof).  Programs
# here index a global and a local array from two nested counted loops,
# so addresses of both kinds and an inner and an outer counter flow
# through that reading; every claim must hold on a concrete run.

def _accesses(counters: str):
    """Array stores, array loads and arithmetic over the counters in
    scope (``"i"`` or ``"ij"``)."""
    j = "j" if "j" in counters else "i"
    index = st.sampled_from(tuple(dict.fromkeys((
        "i", j, f"i + {j}", f"{j} - 1", "i + 2", f"{j} * 2", "3", f"i - {j}",
    ))))
    value = st.one_of(
        st.integers(-9, 9).map(str),
        st.sampled_from(("x0", "x1", "i", j, f"i * {j}", f"x0 + {j}", "x1 - i")),
    )
    op = st.sampled_from(("+", "-", "*", "&", "|", "^", "<<", ">>"))
    divide = st.sampled_from(("/", "%"))
    array = st.sampled_from(("g", "loc"))
    var = st.sampled_from(("x0", "x1"))
    return st.one_of(
        st.tuples(array, index, value).map(lambda t: f"{t[0]}[{t[1]}] = {t[2]};"),
        st.tuples(var, array, index, op, value).map(
            lambda t: f"{t[0]} = {t[1]}[{t[2]}] {t[3]} {t[4]};"
        ),
        st.tuples(var, value, op, value).map(
            lambda t: f"{t[0]} = {t[1]} {t[2]} {t[3]};"
        ),
        # Division by a constant, and by a counter a branch pins to one.
        st.tuples(var, value, divide, st.integers(-4, 5).filter(bool)).map(
            lambda t: f"{t[0]} = {t[1]} {t[2]} {t[3]};"
        ),
        st.tuples(var, value, divide, st.integers(1, 3)).map(
            lambda t: f"if ({j} == {t[3]}) {{ {t[0]} = {t[1]} {t[2]} {j}; }}"
        ),
    )


def render_nest(outer, inner, trips) -> str:
    """The loop over ``i`` holds ``outer`` and, when ``inner`` is not
    empty, a loop over ``j`` holding it."""
    nested = (
        f"for (int j = 0; j < {trips[1]}; j = j + 1) {{ {' '.join(inner)} }}"
        if inner else ""
    )
    return f"""
    int g[12];
    void main() {{
        __offload {{
            int loc[8];
            int x0 = 5;
            int x1 = -3;
            for (int i = 0; i < {trips[0]}; i = i + 1) {{
                {" ".join(outer)}
                {nested}
            }}
        }};
    }}
    """


def evaluate_with_memory(function, program, frame_base, fuel=20000):
    """Like :func:`evaluate`, with frame and global addresses and a
    memory of 4-byte words; (pc, registers) before every step."""
    labels = function.labels
    regs: dict[int, int] = {}
    memory: dict[int, int] = {}
    observed = []
    pc = 0
    while fuel > 0:
        fuel -= 1
        observed.append((pc, dict(regs)))
        instr = function.code[pc]
        if isinstance(instr, FrameAddr):
            regs[instr.dst] = frame_base + instr.offset
        elif isinstance(instr, GlobalAddr):
            regs[instr.dst] = program.globals[instr.name].address
        elif isinstance(instr, Store):
            memory[regs[instr.addr]] = regs[instr.src] & instr.mask
        elif isinstance(instr, Load):
            word = memory.get(regs[instr.addr], 0)
            regs[instr.dst] = word - 2**32 if instr.signed and word >> 31 else word
        elif isinstance(instr, Ret):
            return observed
        elif isinstance(instr, (Const, Move, BinOp, UnOp)):
            step_plain(instr, regs)
        elif isinstance(instr, Jump):
            pc = labels[instr.label]
            continue
        elif isinstance(instr, CJump):
            pc = labels[instr.then_label if regs[instr.cond] else instr.else_label]
            continue
        else:  # pragma: no cover - generator emits no other opcodes
            raise AssertionError(f"unexpected instruction {instr!r}")
        pc += 1
    raise AssertionError("evaluator ran out of fuel")


def assert_codegen_reading_sound(outer, inner, trips):
    program = compile_program(render_nest(outer, inner, trips), APU_UNIFIED)
    (entry,) = program.accel_functions()
    facts = operand_values(entry)
    # The frame at either end of a space: a local store's first byte, or
    # 16-byte aligned against the largest space's last.
    top = (MAX_SPACE_BYTES - entry.frame_size - 1) // 16 * 16
    runs = [
        run for base in (0, top)
        for run in evaluate_with_memory(entry, program, base)
    ]
    proofs = 0
    for pc, regs in runs:
        if pc not in facts:
            continue
        values, result = facts[pc]
        instr = entry.code[pc]
        operands = [
            getattr(instr, field)
            for field in ("a", "b", "addr", "src") if hasattr(instr, field)
        ]
        if isinstance(instr, UnOp):
            operands = [instr.a]
        ranges = [
            operand_range(value, program, entry.frame_size) for value in values
        ]
        for reg, found in zip(operands, ranges):
            if found is not None and reg in regs:
                assert found[0] <= regs[reg] <= found[1], (
                    f"r{reg} = {regs[reg]} escapes {found} at pc {pc}"
                )
        if not isinstance(instr, (BinOp, UnOp)) or instr.float_op:
            continue
        op = (
            ops.BINOPS[instr.op, False, instr.signed]
            if isinstance(instr, BinOp) else ops.UNOPS[instr.op, False]
        )
        if op.raw is None:
            continue
        proof = wrap_proof(instr.op, op, values, result, program, entry.frame_size)
        if proof is None:
            continue
        proofs += 1
        a = regs[operands[0]]
        b = regs[operands[-1]]
        wrapped = op.fn(a, b) if isinstance(instr, BinOp) else op.fn(a)
        if proof[0] == proof[1]:  # codegen emits the one value
            assert wrapped == proof[0], (pc, instr.describe(), a, b, wrapped)
            continue
        raw = eval(op.raw.format(a="a", b="b"), {"a": a, "b": b})
        assert proof[0] <= raw <= proof[1], (pc, instr.describe(), a, b, raw)
        assert op.domain[0] <= raw <= op.domain[1]
        assert raw == wrapped, (pc, instr.describe(), a, b, raw, wrapped)
    return proofs


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_accesses("i"), min_size=1, max_size=3),
    st.lists(_accesses("ij"), max_size=4),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_codegen_reads_only_sound_ranges_and_proofs(outer, inner, trips):
    assert_codegen_reading_sound(outer, inner, trips)


def test_nested_counters_and_both_address_kinds_are_proven():
    """A fixed nest where the reading proves frame-relative, global-
    relative and counter arithmetic, so the property is not vacuous
    (the outer counter keeps no bound in the inner loop: ROADMAP 6a)."""
    proofs = assert_codegen_reading_sound(
        ["g[i + 2] = x0;", "loc[i] = i;"],
        ["x0 = loc[j] + j;", "g[j * 2] = x0 - 1;", "x1 = g[j] ^ 3;"],
        (4, 5),
    )
    assert proofs >= 6
    proofs = assert_codegen_reading_sound(
        ["x0 = 7 - i;", "loc[7 - i] = x0 * i;", "g[11 - i * 2] = -i;"], [], (4, 0)
    )
    assert proofs >= 12
