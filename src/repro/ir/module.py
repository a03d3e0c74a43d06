"""IR containers: functions, global layout, the compiled program."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.instructions import Instr, Jump, CJump
from repro.runtime.dispatch import DomainTable


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

    def resolve_labels(self) -> None:
        """Validate that every jump target exists."""
        for instr in self.code:
            if isinstance(instr, Jump):
                if instr.label not in self.labels:
                    raise ValueError(
                        f"{self.name}: jump to unknown label {instr.label!r}"
                    )
            elif isinstance(instr, CJump):
                for label in (instr.then_label, instr.else_label):
                    if label not in self.labels:
                        raise ValueError(
                            f"{self.name}: jump to unknown label {label!r}"
                        )


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
        """Structural sanity checks (jump targets, entry presence)."""
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} missing")
        for function in self.functions.values():
            function.resolve_labels()

    # ------------------------------------------------------------ metrics

    def total_instructions(self) -> int:
        return sum(len(f.code) for f in self.functions.values())

    def accel_functions(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if f.space == "accel"]

    def host_functions(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if f.space == "host"]
