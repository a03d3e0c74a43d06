"""Static data layout: globals, vtables, host function ids.

Main-memory map produced here::

    0x0000          null guard (never written)
    0x0040          vtables, one 4-byte slot per virtual method
    ...             globals, naturally aligned
    data_end        first free byte (heap/stack live above)

Host function ids are small unique integers standing in for host code
addresses; they are what vtable slots contain and what the outer domain
matches against.
"""

from __future__ import annotations

import struct

from repro.lang.sema import SemanticInfo
from repro.lang.types import ArrayType, ClassType, ScalarType, Type
from repro.ir.module import DATA_BASE, GlobalSlot, IRProgram

#: First host function id; spaced by 4 to resemble code addresses.
FIRST_FUNCTION_ID = 0x10000


class LayoutResult:
    """Addresses and images computed by :func:`compute_layout`."""

    def __init__(self) -> None:
        self.globals: dict[str, GlobalSlot] = {}
        self.vtables: dict[str, int] = {}
        self.function_ids: dict[int, str] = {}  # fid -> host function name
        self.fid_by_name: dict[str, int] = {}
        self.init_image: list[tuple[int, bytes]] = []
        self.data_end = DATA_BASE


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def assign_function_ids(info: SemanticInfo, layout: LayoutResult) -> None:
    """Give every function and method a unique simulated host address."""
    next_id = FIRST_FUNCTION_ID
    for qname in sorted(info.functions):
        layout.function_ids[next_id] = qname
        layout.fid_by_name[qname] = next_id
        next_id += 4


def build_vtables(
    info: SemanticInfo, layout: LayoutResult, word_align: int
) -> None:
    """Allocate and fill one vtable per class with virtual methods."""
    cursor = layout.data_end
    for name in sorted(info.classes):
        class_type = info.classes[name]
        if not class_type.vtable:
            continue
        cursor = _align(cursor, max(4, word_align))
        layout.vtables[name] = cursor
        slots = b"".join(
            struct.pack(
                "<I", layout.fid_by_name[method.qualified_name]
            )
            for method in class_type.vtable
        )
        layout.init_image.append((cursor, slots))
        cursor += len(slots)
    layout.data_end = cursor


def _vptr_writes(
    global_addr: int, global_type: Type, layout: LayoutResult
) -> list[tuple[int, bytes]]:
    """Initial vptr stores for a global of class (or array-of-class) type."""
    writes: list[tuple[int, bytes]] = []
    if isinstance(global_type, ClassType) and global_type.has_vptr:
        vtable_addr = layout.vtables[global_type.name]
        writes.append((global_addr, struct.pack("<I", vtable_addr)))
    elif isinstance(global_type, ArrayType):
        element = global_type.element
        for index in range(global_type.count):
            writes.extend(
                _vptr_writes(
                    global_addr + index * element.size(), element, layout
                )
            )
    return writes


def place_globals(
    info: SemanticInfo, layout: LayoutResult, word_align: int
) -> None:
    """Assign each global an address; record scalar initial values and
    vptr initialisation for polymorphic objects."""
    cursor = layout.data_end
    for decl in info.globals:
        symbol = decl.symbol
        assert symbol is not None
        global_type = symbol.type
        alignment = max(1, global_type.align(), word_align)
        cursor = _align(cursor, alignment)
        slot = GlobalSlot(decl.name, cursor, global_type.size())
        layout.globals[decl.name] = slot
        init_value = getattr(decl, "folded_init", 0)
        if isinstance(global_type, ScalarType) and init_value:
            if global_type.is_float_type:
                layout.init_image.append(
                    (cursor, struct.pack("<f", float(init_value)))
                )
            else:
                mask = (1 << (8 * global_type.size())) - 1
                layout.init_image.append(
                    (
                        cursor,
                        (int(init_value) & mask).to_bytes(
                            global_type.size(), "little"
                        ),
                    )
                )
        layout.init_image.extend(_vptr_writes(cursor, global_type, layout))
        cursor += global_type.size()
    layout.data_end = _align(cursor, 16)


def compute_layout(info: SemanticInfo, word_align: int = 1) -> LayoutResult:
    """Run all layout passes; ``word_align`` is the machine's addressing
    granularity (so word-addressed targets keep data word-aligned)."""
    layout = LayoutResult()
    assign_function_ids(info, layout)
    build_vtables(info, layout, word_align)
    place_globals(info, layout, word_align)
    return layout


def apply_layout(program: IRProgram, layout: LayoutResult) -> None:
    """Copy layout results into the IR program container."""
    program.globals = dict(layout.globals)
    program.vtables = dict(layout.vtables)
    program.function_ids = dict(layout.function_ids)
    program.init_image = list(layout.init_image)
    program.data_end = layout.data_end
