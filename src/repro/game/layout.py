"""C-compatible struct packing into simulated memory.

The manual-intrinsics engine and the world generator need to place game
entities in simulated main memory with exactly the layout the compiled
OffloadMini code expects; this module provides a small struct-layout
calculator matching the compiler's rules (natural alignment, size
rounded up to the largest member alignment).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.machine.memory import MemorySpace

_FORMATS = {
    "i": ("<i", 4),  # int
    "I": ("<I", 4),  # uint
    "f": ("<f", 4),  # float
    "b": ("<b", 1),  # char
    "B": ("<B", 1),  # uchar/bool
}


@dataclass(frozen=True)
class FieldSpec:
    """One struct field: a name and a scalar format code (i/I/f/b/B)."""

    name: str
    fmt: str

    def __post_init__(self) -> None:
        if self.fmt not in _FORMATS:
            raise ValueError(
                f"unknown field format {self.fmt!r}; choose from "
                f"{sorted(_FORMATS)}"
            )

    @property
    def size(self) -> int:
        return _FORMATS[self.fmt][1]


class StructLayout:
    """Computes offsets and packs/unpacks struct values.

    Args:
        fields: Field specs in declaration order.
        vptr: Reserve a leading 4-byte vptr slot (polymorphic objects).
    """

    def __init__(self, fields: list[FieldSpec], vptr: bool = False):
        self.fields = list(fields)
        self.vptr = vptr
        self.offsets: dict[str, int] = {}
        offset = 4 if vptr else 0
        align = 4 if vptr else 1
        for field in self.fields:
            if field.name in self.offsets:
                raise ValueError(f"duplicate field {field.name!r}")
            field_align = field.size
            offset = (offset + field_align - 1) // field_align * field_align
            self.offsets[field.name] = offset
            offset += field.size
            align = max(align, field_align)
        self.align = align
        self.size = max(1, (offset + align - 1) // align * align)

    # --------------------------------------------------------------- pack

    def pack(self, values: dict[str, object], vptr_value: int = 0) -> bytes:
        """Serialise a value dict (missing fields default to zero)."""
        blob = bytearray(self.size)
        if self.vptr:
            blob[0:4] = struct.pack("<I", vptr_value)
        for field in self.fields:
            fmt, size = _FORMATS[field.fmt]
            value = values.get(field.name, 0)
            offset = self.offsets[field.name]
            blob[offset : offset + size] = struct.pack(fmt, value)
        return bytes(blob)

    def unpack(self, blob: bytes) -> dict[str, object]:
        """Deserialise; the vptr (if any) appears under ``"__vptr"``."""
        if len(blob) < self.size:
            raise ValueError(
                f"blob of {len(blob)} bytes shorter than struct size "
                f"{self.size}"
            )
        values: dict[str, object] = {}
        if self.vptr:
            values["__vptr"] = struct.unpack_from("<I", blob, 0)[0]
        for field in self.fields:
            fmt, _ = _FORMATS[field.fmt]
            values[field.name] = struct.unpack_from(
                fmt, blob, self.offsets[field.name]
            )[0]
        return values

    # ------------------------------------------------------------- memory

    def write(
        self,
        memory: MemorySpace,
        address: int,
        values: dict[str, object],
        vptr_value: int = 0,
    ) -> None:
        memory.write_unchecked(address, self.pack(values, vptr_value))

    def read(self, memory: MemorySpace, address: int) -> dict[str, object]:
        return self.unpack(memory.read_unchecked(address, self.size))


#: The paper's Figure 1 ``GameEntity``: position, velocity, health and
#: a state word — 24 bytes.
GAME_ENTITY = StructLayout(
    [
        FieldSpec("x", "f"),
        FieldSpec("y", "f"),
        FieldSpec("vx", "f"),
        FieldSpec("vy", "f"),
        FieldSpec("health", "i"),
        FieldSpec("state", "i"),
    ]
)
