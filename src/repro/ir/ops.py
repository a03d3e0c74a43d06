"""IR operator semantics, said once.

Every ``BinOp``, ``UnOp`` and pure intrinsic is one Python template over
``{a}`` / ``{b}``: an expression or, where ``{d}`` appears, statements
assigning the result to ``{d}`` (ops that branch or may trap).  Codegen
substitutes operand text into it; the reference interpreter and the
constant folder call ``Op.fn``, the *same* text compiled at import; cost
model and register typing read ``weight`` / ``result``; the interval
analysis is checked against ``fn`` (``tests/analysis/test_ops_table.py``).

So are scalar loads and stores: :data:`SCALARS` gives each shape's
``struct`` codec and typed-view formats, for both engines.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Callable, NamedTuple, Optional

from repro.errors import RuntimeTrap
from repro.ir.instructions import COMPARE_OPS


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise RuntimeTrap("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        raise RuntimeTrap("integer remainder by zero")
    return a - _int_div(a, b) * b


class Op(NamedTuple):
    text: str  #: template over {a} {b}; statements where it assigns {d}
    kinds: str  #: how each operand is read: i int, f float, r as it comes
    result: str  #: value class of the result, "int" or "float"
    weight: int  #: simulated cycles, in ALU units
    fn: Callable  #: ``text`` compiled, operands coerced per ``kinds``


def statements(text: str, d: Optional[str], *operands: str) -> list[tuple]:
    """A template as (indent, line) statements storing into ``d`` (an
    expression becomes one assignment); with ``d`` None the lines that
    assign it are left out — an intrinsic whose result is discarded."""
    if "{d}" not in text:
        text = "{d} = " + text
    names = dict(zip("ab", operands), d=d)
    out = []
    for raw in text.split("\n"):
        line = raw.lstrip(" ")
        if d is not None or not line.startswith("{d} ="):
            out.append(((len(raw) - len(line)) // 4, line.format(**names)))
    return out


def _op(text: str, kinds: str, result: str, weight: int = 1) -> Op:
    read = {"i": "int({})", "f": "float({})", "r": "{}"}
    params = "ab"[: len(kinds)]
    coerced = [read[k].format(p) for k, p in zip(kinds, params)]
    source = [f"def fn({', '.join(params)}):"]
    for indent, line in statements(text, "_d", *coerced):
        source.append("    " * (indent + 1) + line)
    namespace = {"math": math, "_int_div": _int_div, "_int_rem": _int_rem}
    exec("\n".join(source + ["    return _d"]), namespace)
    return Op(text, kinds, result, weight, namespace["fn"])


#: ``term`` — an atom, a call or in parentheses — wrapped to 32 bits.
_WRAP = {True: "({} + 0x80000000 & 0xFFFFFFFF) - 0x80000000", False: "{} & 0xFFFFFFFF"}
_INT32 = _WRAP[True].format

_FLOAT_DIV = """\
_x = {a}
_y = {b}
if _y == 0.0:
    {d} = math.inf if _x > 0 else (-math.inf if _x < 0 else math.nan)
else:
    {d} = _x / _y"""
_FTOI = f"""\
_x = {{a}}
if math.isnan(_x) or math.isinf(_x):
    {{d}} = 0
else:
    {{d}} = {_INT32("math.trunc(_x)")}"""
_SEXT = "_v = {{a}} & {mask:#x}\nif _v >= {sign}:\n    _v -= {mod}\n{{d}} = _v"

#: ``BinOp`` semantics by ``(op, float_op, signed)``: compares ignore
#: both flags, float ops ``signed``; integer ``/`` and ``%`` trap on 0.
BINOPS: dict[tuple[str, bool, bool], Op] = {}
#: ``UnOp`` semantics by ``(op, float_op)``; only ``-`` reads the flag.
UNOPS: dict[tuple[str, bool], Op] = {("-", True): _op("-{a}", "f", "float")}
UNOPS["-", False] = _op(_INT32("-{a}"), "i", "int")
for _flag in (False, True):
    for _o in COMPARE_OPS:
        _text = f"1 if {{a}} {_o} {{b}} else 0"
        BINOPS[_o, False, _flag] = BINOPS[_o, True, _flag] = _op(_text, "rr", "int")
    for _o in "+-*/":
        _text = _FLOAT_DIV if _o == "/" else f"{{a}} {_o} {{b}}"
        BINOPS[_o, True, _flag] = _op(_text, "ff", "float")
    _terms = {_o: f"({{a}} {_o} {{b}})" for _o in "+-*&|^"}
    _terms["<<"] = "({a} << ({b} & 31))"
    _terms[">>"] = "({a} >> ({b} & 31))" if _flag else "(({a} & 0xFFFFFFFF) >> ({b} & 31))"
    _terms["/"], _terms["%"] = "_int_div({a}, {b})", "_int_rem({a}, {b})"
    for _o, _term in _terms.items():
        # The two that may trap are statements: never moved or dropped.
        _text = ("{d} = " if _o in "/%" else "") + _WRAP[_flag].format(_term)
        BINOPS[_o, False, _flag] = _op(_text, "ii", "int")
    UNOPS["!", _flag] = _op("0 if {a} else 1", "r", "int")
    UNOPS["~", _flag] = _op(_INT32("~{a}"), "i", "int")
    UNOPS["itof", _flag] = _op("float({a})", "i", "float")
    UNOPS["ftoi", _flag] = _op(_FTOI, "f", "int")
    for _mask in (0xFF, 0xFFFF):
        _text = _SEXT.format(mask=_mask, sign=(_mask + 1) // 2, mod=_mask + 1)
        UNOPS[f"sext{_mask.bit_length()}", _flag] = _op(_text, "i", "int")
        UNOPS[f"zext{_mask.bit_length()}", _flag] = _op(f"{{a}} & {_mask:#x}", "i", "int")

_SQRT = "_x = {a}\n{d} = math.sqrt(_x) if _x >= 0 else math.nan"
#: The pure intrinsics; the rest act on the machine (see the interpreter).
INTRINSICS = {
    "sqrtf": _op(_SQRT, "f", "float", weight=4),
    "fabsf": _op("abs({a})", "f", "float"),
    "iabs": _op(_INT32("abs({a})"), "i", "int"),
    "imin": _op("min({a}, {b})", "ii", "int"),
    "imax": _op("max({a}, {b})", "ii", "int"),
    "fminf": _op("min({a}, {b})", "ff", "float"),
    "fmaxf": _op("max({a}, {b})", "ff", "float"),
}
#: The two result wraps on their own: ``WRAPS[signed].fn(value)``.
WRAPS = {_flag: _op(_WRAP[_flag].format("{a}"), "i", "int") for _flag in (False, True)}


class Scalar(NamedTuple):
    codec: struct.Struct  #: the little-endian codec, valid at any address
    #: ``memoryview.cast`` format loading (storing) exactly what the codec
    #: does, or None: a big-endian host, or an ``f`` store (the codec
    #: raises on a value out of range, a view rounds it to inf).
    load_view: Optional[str]
    store_view: Optional[str]


#: Scalar shapes by ``(size, signed, is_float)``.  Integer stores use the
#: unsigned row of their width (callers mask first).
SCALARS: dict[tuple[int, bool, bool], Scalar] = {}
for _fmt in "bBhHiIqQfd":
    _size = struct.calcsize("<" + _fmt)
    _view = _fmt if sys.byteorder == "little" and struct.calcsize(_fmt) == _size else None
    _row = Scalar(struct.Struct("<" + _fmt), _view, None if _fmt == "f" else _view)
    for _flag in (False, True) if _fmt in "fd" else (_fmt.islower(),):
        SCALARS[_size, _flag, _fmt in "fd"] = _row
