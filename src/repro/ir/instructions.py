"""IR instruction set.

Registers are small integers, dense per function.  Labels are symbolic
names resolved to instruction indices by :class:`repro.ir.module.IRFunction`.

Space semantics of :class:`Load`/:class:`Store`/:class:`Copy`:

* ``AccSpace.MAIN`` — main memory accessed *directly* (host code, or
  accelerator code on a shared-memory machine).
* ``AccSpace.LOCAL`` — the executing accelerator's local store.
* ``AccSpace.OUTER`` — main memory accessed *from an accelerator across
  the memory-space boundary*; the interpreter routes these through the
  offload's transfer strategy (bounce-buffer DMA or a software cache).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional


class AccSpace(enum.Enum):
    MAIN = "main"
    LOCAL = "local"
    OUTER = "outer"


#: Comparison spellings of :class:`BinOp`; they produce 0/1 and ignore
#: the signed/float flags.
COMPARE_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))


@dataclass
class Instr:
    """Base instruction; ``comment`` aids IR dumps only."""

    comment: str = field(default="", kw_only=True)

    #: The fields that hold a register the instruction reads, in operand
    #: order (``args`` lists aside) — the one declaration behind
    #: :func:`instr_uses` and :func:`rewrite_uses` — and, after them,
    #: those an instance may lack (see :func:`_optional_reads`).
    REG_FIELDS = ()
    OPT_REG_FIELDS = ()

    def describe(self) -> str:
        return type(self).__name__.lower()


@dataclass
class Const(Instr):
    dst: int = 0
    value: object = 0  # int or float

    def describe(self) -> str:
        return f"r{self.dst} = const {self.value!r}"


@dataclass
class Move(Instr):
    REG_FIELDS = ("src",)

    dst: int = 0
    src: int = 0

    def describe(self) -> str:
        return f"r{self.dst} = r{self.src}"


@dataclass
class BinOp(Instr):
    """Arithmetic/logical op.  ``op`` is the source-level spelling.

    ``float_op`` selects float semantics; integer results are wrapped to
    32 bits (signed or unsigned per ``signed``) by the interpreter.
    """

    REG_FIELDS = ("a", "b")

    op: str = "+"
    dst: int = 0
    a: int = 0
    b: int = 0
    float_op: bool = False
    signed: bool = True
    #: Derived (translator fast path): True for the 0/1-valued
    #: comparison spellings, which ignore ``float_op``/``signed``.
    is_compare: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        self.is_compare = self.op in COMPARE_OPS

    def describe(self) -> str:
        suffix = "f" if self.float_op else ("s" if self.signed else "u")
        return f"r{self.dst} = r{self.a} {self.op}.{suffix} r{self.b}"


@dataclass
class UnOp(Instr):
    REG_FIELDS = ("a",)

    op: str = "-"
    dst: int = 0
    a: int = 0
    float_op: bool = False

    def describe(self) -> str:
        return f"r{self.dst} = {self.op} r{self.a}"


@dataclass
class Load(Instr):
    REG_FIELDS = ("addr",)

    dst: int = 0
    addr: int = 0  # register holding a byte address
    size: int = 4
    space: AccSpace = AccSpace.MAIN
    signed: bool = True
    is_float: bool = False
    #: Derived: ``(size, signed, is_float)`` — the scalar-codec key the
    #: execution engines use to pick a cached ``struct.Struct``.
    scalar_key: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        self.scalar_key = (self.size, self.signed, self.is_float)

    def describe(self) -> str:
        kind = "f" if self.is_float else ("s" if self.signed else "u")
        return (
            f"r{self.dst} = load.{self.space.value}.{kind}{self.size} [r{self.addr}]"
        )


@dataclass
class Store(Instr):
    REG_FIELDS = ("addr", "src")

    addr: int = 0
    src: int = 0
    size: int = 4
    space: AccSpace = AccSpace.MAIN
    is_float: bool = False
    #: Derived: the wrap-to-width mask applied to integer stores.
    mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        self.mask = (1 << (8 * self.size)) - 1

    def describe(self) -> str:
        kind = "f" if self.is_float else "i"
        return f"store.{self.space.value}.{kind}{self.size} [r{self.addr}] = r{self.src}"


@dataclass
class Copy(Instr):
    """Bulk byte copy between (possibly different) spaces.

    ``size_reg``, when set, names a register holding the length at run
    time (used by shared-memory lowering of ``dma_get``/``dma_put``);
    otherwise the static ``size`` applies.
    """

    REG_FIELDS = ("dst_addr", "src_addr")
    OPT_REG_FIELDS = ("size_reg",)

    dst_addr: int = 0
    src_addr: int = 0
    size: int = 0
    dst_space: AccSpace = AccSpace.MAIN
    src_space: AccSpace = AccSpace.MAIN
    size_reg: Optional[int] = None

    def describe(self) -> str:
        return (
            f"copy.{self.dst_space.value}<-{self.src_space.value} "
            f"[r{self.dst_addr}] = [r{self.src_addr}] ({self.size} bytes)"
        )


@dataclass
class Extract(Instr):
    """Extract a sub-word scalar from a loaded word (Section 5 lowering).

    ``offset`` is a register holding the byte offset within the word
    when ``const_offset`` is None, else the known constant offset.
    Charged at the ``word_extract`` cost (constant offsets) or twice
    that (variable offsets — extra shift computation).
    """

    REG_FIELDS = ("word",)
    OPT_REG_FIELDS = ("offset",)

    dst: int = 0
    word: int = 0
    size: int = 1
    const_offset: Optional[int] = None
    offset: int = 0
    signed: bool = True
    #: Derived: value mask, sign bit and modulus for sign extension.
    mask: int = field(init=False, repr=False, compare=False, default=0)
    sign_bit: int = field(init=False, repr=False, compare=False, default=0)
    modulus: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        self.mask = (1 << (8 * self.size)) - 1
        self.sign_bit = 1 << (8 * self.size - 1)
        self.modulus = 1 << (8 * self.size)

    def describe(self) -> str:
        where = (
            f"+{self.const_offset}" if self.const_offset is not None
            else f"+r{self.offset}"
        )
        return f"r{self.dst} = extract{self.size} r{self.word}{where}"


@dataclass
class Insert(Instr):
    """Insert a sub-word scalar into a word (read-modify-write half)."""

    REG_FIELDS = ("word", "value")
    OPT_REG_FIELDS = ("offset",)

    dst: int = 0
    word: int = 0
    value: int = 0
    size: int = 1
    const_offset: Optional[int] = None
    offset: int = 0
    #: Derived: value mask for the inserted field.
    mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        self.mask = (1 << (8 * self.size)) - 1

    def describe(self) -> str:
        where = (
            f"+{self.const_offset}" if self.const_offset is not None
            else f"+r{self.offset}"
        )
        return f"r{self.dst} = insert{self.size} r{self.word}{where} <- r{self.value}"


@dataclass
class FrameAddr(Instr):
    """dst = frame base + offset (the frame lives in the core's fast
    memory: LOCAL on an accelerator, MAIN on the host)."""

    dst: int = 0
    offset: int = 0

    def describe(self) -> str:
        return f"r{self.dst} = frame+{self.offset}"


@dataclass
class GlobalAddr(Instr):
    dst: int = 0
    name: str = ""

    def describe(self) -> str:
        return f"r{self.dst} = &{self.name}"


@dataclass
class Call(Instr):
    """Direct call to an IR function by mangled name."""

    dst: Optional[int] = None
    callee: str = ""
    args: list[int] = field(default_factory=list)

    def describe(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        dst = f"r{self.dst} = " if self.dst is not None else ""
        return f"{dst}call {self.callee}({args})"


@dataclass
class ICall(Instr):
    """Host-side indirect call through a host function id (vtable slot)."""

    REG_FIELDS = ("func_id",)

    dst: Optional[int] = None
    func_id: int = 0  # register holding the id
    args: list[int] = field(default_factory=list)

    def describe(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        dst = f"r{self.dst} = " if self.dst is not None else ""
        return f"{dst}icall [r{self.func_id}]({args})"


@dataclass
class DomainCall(Instr):
    """Accelerator-side dynamic dispatch through the offload's domain
    (Figure 3): outer-domain search on the host function id, inner-domain
    search on the duplicate signature."""

    REG_FIELDS = ("func_id",)

    dst: Optional[int] = None
    func_id: int = 0  # register holding the host function id
    duplicate_id: str = ""
    offload_id: int = 0
    args: list[int] = field(default_factory=list)

    def describe(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        dst = f"r{self.dst} = " if self.dst is not None else ""
        return (
            f"{dst}domain_call#{self.offload_id} [r{self.func_id}]"
            f"${self.duplicate_id}({args})"
        )


@dataclass
class Intrinsic(Instr):
    """Runtime intrinsic: print_*, math, dma_get/dma_put/dma_wait."""

    dst: Optional[int] = None
    name: str = ""
    args: list[int] = field(default_factory=list)

    def describe(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        dst = f"r{self.dst} = " if self.dst is not None else ""
        return f"{dst}intrinsic {self.name}({args})"


@dataclass
class Jump(Instr):
    label: str = ""

    def describe(self) -> str:
        return f"jump {self.label}"


@dataclass
class CJump(Instr):
    REG_FIELDS = ("cond",)

    cond: int = 0
    then_label: str = ""
    else_label: str = ""

    def describe(self) -> str:
        return f"cjump r{self.cond} ? {self.then_label} : {self.else_label}"


@dataclass
class Ret(Instr):
    OPT_REG_FIELDS = ("src",)

    src: Optional[int] = None

    def describe(self) -> str:
        return f"ret r{self.src}" if self.src is not None else "ret"


@dataclass
class OffloadLaunch(Instr):
    """Launch an offload thread; args are capture addresses/values."""

    dst: int = 0  # handle register
    entry: str = ""
    offload_id: int = 0
    args: list[int] = field(default_factory=list)

    def describe(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        return f"r{self.dst} = offload_launch#{self.offload_id} {self.entry}({args})"


@dataclass
class OffloadJoin(Instr):
    REG_FIELDS = ("handle",)

    handle: int = 0

    def describe(self) -> str:
        return f"offload_join r{self.handle}"


@dataclass
class Trap(Instr):
    message: str = ""

    def describe(self) -> str:
        return f"trap {self.message!r}"


# ---------------------------------------------------------------------------
# Register operands
# ---------------------------------------------------------------------------


def _optional_reads(instr: Instr) -> list[tuple[str, int]]:
    """(field, register) for each ``OPT_REG_FIELDS`` operand this
    instance has: a register not left None, and ``offset`` only where no
    ``const_offset`` stands in for it."""
    return [
        (name, reg)
        for name in instr.OPT_REG_FIELDS
        if (reg := getattr(instr, name)) is not None
        and (name != "offset" or instr.const_offset is None)  # type: ignore[attr-defined]
    ]


def instr_uses(instr: Instr) -> list[int]:
    """Registers read by the instruction."""
    regs = []
    for name in instr.REG_FIELDS:  # a plain loop: this is translation's hot path
        regs.append(getattr(instr, name))
    if instr.OPT_REG_FIELDS:
        regs.extend(reg for _, reg in _optional_reads(instr))
    args = getattr(instr, "args", None)
    if args:
        regs.extend(args)
    return regs


def instr_def(instr: Instr) -> Optional[int]:
    """The register written by the instruction, if any."""
    dst = getattr(instr, "dst", None)
    return dst if isinstance(dst, int) else None


def rewrite_uses(instr: Instr, rename: Callable[[int], int]) -> int:
    """Pass every register the instruction reads through ``rename``, in
    place; returns how many operands changed."""
    changed = 0
    names = instr.REG_FIELDS
    if instr.OPT_REG_FIELDS:
        names += tuple(name for name, _ in _optional_reads(instr))
    for name in names:
        old = getattr(instr, name)
        new = rename(old)
        if new != old:
            setattr(instr, name, new)
            changed += 1
    args = getattr(instr, "args", ())
    for position, old in enumerate(args):
        new = rename(old)
        if new != old:
            args[position] = new
            changed += 1
    return changed
