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

from repro.analysis.intervals import AbsInt, analyze_function
from repro.compiler.driver import compile_program
from repro.ir import ops
from repro.ir.instructions import BinOp, CJump, Const, Jump, Move, Ret, UnOp
from repro.machine.config import CELL_LIKE

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
        if isinstance(instr, Const):
            regs[instr.dst] = instr.value
        elif isinstance(instr, Move):
            regs[instr.dst] = regs[instr.src]
        elif isinstance(instr, BinOp):
            regs[instr.dst] = ops.BINOPS[
                instr.op, instr.float_op, instr.signed
            ].fn(regs[instr.a], regs[instr.b])
        elif isinstance(instr, UnOp):
            regs[instr.dst] = ops.UNOPS[instr.op, instr.float_op].fn(
                regs[instr.a]
            )
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
