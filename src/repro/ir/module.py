"""IR containers: functions, global layout, the compiled program."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Optional

from repro.ir.instructions import BinOp, Call, CJump, Instr, Jump, UnOp
from repro.ir.ops import BINOPS, UNOPS
from repro.runtime.dispatch import DomainTable

#: Base of the static data area (low addresses trap null derefs).
DATA_BASE = 0x40


@dataclass
class IRFunction:
    """One compiled function instance.

    ``space`` is ``"host"`` or ``"accel"``: the same source function may
    exist in both forms (automatic call-graph duplication), and an accel
    instance exists once per memory-space signature, suffixed
    ``$<signature>`` in the mangled name.

    Calling convention: arguments arrive in registers ``0..len(params)-1``;
    ``frame_size`` bytes of the executing core's fast memory are reserved
    per invocation for address-taken locals, arrays, class values and
    accessor staging buffers.
    """

    name: str
    params: list[str]
    space: str = "host"
    source_name: str = ""
    duplicate_id: str = ""
    num_regs: int = 0
    frame_size: int = 0
    code: list[Instr] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def check(self, functions: Container[str]) -> None:
        """One walk over the code: each jump names a label of this
        function, each BinOp / UnOp an operator of :mod:`repro.ir.ops`
        and each Call a function in ``functions`` — every key either
        engine indexes by.  Raises ValueError naming the function and
        the instruction."""
        labels = self.labels
        for instr in self.code:
            kind = type(instr)
            if kind is BinOp:
                known = (instr.op, instr.float_op, instr.signed) in BINOPS
            elif kind not in _RESOLVES:
                continue
            elif kind is UnOp:
                known = (instr.op, instr.float_op) in UNOPS
            elif kind is Call:
                known = instr.callee in functions
            elif kind is Jump:
                known = instr.label in labels
            else:
                known = instr.then_label in labels and instr.else_label in labels
            if not known:
                index = next(i for i, at in enumerate(self.code) if at is instr)
                raise ValueError(
                    f"{self.name}: instruction {index} names an unknown "
                    f"{_RESOLVES[kind]}: {instr!r}"
                )


#: What :meth:`IRFunction.check` resolves, per instruction kind.
_RESOLVES = {
    BinOp: "operator", UnOp: "operator", Call: "callee",
    Jump: "label", CJump: "label",
}


@dataclass
class GlobalSlot:
    """One global variable's placement in main memory."""

    name: str
    address: int
    size: int


@dataclass
class OffloadMeta:
    """Per-offload-block compile-time products.

    ``domain`` is the runtime Figure 3 table (targets are accel IR
    function names); ``annotation_count`` is the number of domain
    entries the programmer wrote — the quantity that exploded in the
    Section 4.1 case study.
    """

    offload_id: int
    entry: str
    cache_kind: Optional[str]
    domain: DomainTable
    annotation_count: int
    capture_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.runtime.cachekinds import SOFT_CACHE_KINDS

        if self.cache_kind is not None and self.cache_kind not in SOFT_CACHE_KINDS:
            raise ValueError(
                f"OffloadMeta cache_kind must be None or one of "
                f"{SOFT_CACHE_KINDS}, got {self.cache_kind!r}"
            )


@dataclass
class IRProgram:
    """A fully compiled OffloadMini program, ready to run on a Machine."""

    functions: dict[str, IRFunction] = field(default_factory=dict)
    globals: dict[str, GlobalSlot] = field(default_factory=dict)
    #: Bytes to write into main memory at load time (address, data).
    init_image: list[tuple[int, bytes]] = field(default_factory=list)
    #: Host function id -> host IR function name (vtable slot values).
    function_ids: dict[int, str] = field(default_factory=dict)
    #: Class name -> vtable base address in main memory.
    vtables: dict[str, int] = field(default_factory=dict)
    offload_meta: dict[int, OffloadMeta] = field(default_factory=dict)
    entry: str = "main"
    #: First free main-memory byte after globals/vtables.
    data_end: int = 0
    target_name: str = ""

    def function(self, name: str) -> IRFunction:
        if name not in self.functions:
            raise KeyError(f"no IR function named {name!r}")
        return self.functions[name]

    def validate(self) -> None:
        """Structural sanity checks: the entry exists, and every
        function passes :meth:`IRFunction.check` — which is what makes
        every valid program one codegen translates in full."""
        functions = self.functions
        if self.entry not in functions:
            raise ValueError(f"entry function {self.entry!r} missing")
        for function in functions.values():
            function.check(functions)

    # ------------------------------------------------------------ metrics

    def total_instructions(self) -> int:
        return sum(len(f.code) for f in self.functions.values())

    def accel_functions(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if f.space == "accel"]

    def host_functions(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if f.space == "host"]
