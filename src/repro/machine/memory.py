"""Simulated memory spaces.

A :class:`MemorySpace` is a named, bounded, byte-backed region with an
*access granularity*: byte-addressed spaces allow any aligned scalar
access, while word-addressed spaces (the Section 5 machines) only accept
whole-word loads and stores — sub-word traffic must be synthesised by the
compiler with extract/insert sequences, exactly the property the paper's
hybrid ``__word``/``__byte`` pointer scheme is designed around.

Addresses handled here are always *byte offsets* into the backing store;
word-addressed pointer values are scaled by the code generator before they
reach the memory system.
"""

from __future__ import annotations

import mmap
import struct

from repro.errors import MemoryFault

#: Every space is smaller than this, so each address inside one is a
#: non-negative signed 32-bit integer, which both 32-bit wraps keep as it
#: is: code generated for the machine relies on it (``repro.vm.codegen``
#: drops wraps it proves are identities).
MAX_SPACE_BYTES = 2**31


class MemorySpace:
    """A bounded, byte-backed simulated memory.

    Attributes:
        name: Space identifier (``"main"``, ``"ls0"``, ...).
        size: Capacity in bytes.
        granularity: Smallest legal access, in bytes.  1 for
            byte-addressed memories; the word size for word-addressed
            memories.
    """

    def __init__(self, name: str, size: int, granularity: int = 1):
        if not 0 < size < MAX_SPACE_BYTES:
            raise ValueError(
                f"memory size must be positive and below {MAX_SPACE_BYTES:#x}"
                f" bytes, got {size}"
            )
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self.name = name
        self.size = size
        self.granularity = granularity
        # Anonymous mapping: the OS hands out zeroed pages on first
        # touch, so building a 16 MiB space costs microseconds and only
        # the pages a run writes ever become resident.
        self._data = mmap.mmap(-1, size)

    def __getattr__(self, name: str) -> memoryview:
        """``v_<fmt>`` (``v_f``, ``v_I`` ...): the store as a typed view of
        its largest whole-item prefix (holding every aligned in-bounds
        access), cast on first use and a plain attribute after."""
        if not name.startswith("v_"):
            raise AttributeError(name)
        raw = memoryview(self._data)
        fmt = name[2:]
        view = raw[: len(raw) - len(raw) % struct.calcsize(fmt)].cast(fmt)
        setattr(self, name, view)
        return view

    # ---------------------------------------------------------------- raw

    def check_bounds(self, address: int, nbytes: int) -> None:
        """Raise :class:`MemoryFault` unless the byte range is in bounds.

        Centralised so hot callers can test ``address < 0 or address +
        nbytes > self.size`` inline with plain integer arithmetic and
        only pay for diagnostic string formatting on the failure path.
        """
        if address < 0 or address + nbytes > self.size:
            raise MemoryFault(
                f"access of {nbytes} bytes out of bounds", self.name, address
            )

    def _check(self, address: int, nbytes: int) -> None:
        self.check_bounds(address, nbytes)
        if self.granularity > 1:
            if address % self.granularity or nbytes % self.granularity:
                raise MemoryFault(
                    f"sub-word access ({nbytes} bytes at misgranular address) "
                    f"on a word-addressed memory (granularity "
                    f"{self.granularity})",
                    self.name,
                    address,
                )

    def read(self, address: int, nbytes: int) -> bytes:
        """Read ``nbytes`` raw bytes starting at ``address``."""
        self._check(address, nbytes)
        return self._data[address : address + nbytes]

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes starting at ``address``."""
        self._check(address, len(data))
        self._data[address : address + len(data)] = data

    def read_unchecked(self, address: int, nbytes: int) -> bytes:
        """Read bypassing the granularity rule (bounds still enforced).

        Used only by machine-internal agents (the DMA engine moves
        arbitrary byte ranges regardless of CPU-visible addressing rules).
        """
        if address < 0 or address + nbytes > self.size:
            self.check_bounds(address, nbytes)
        return self._data[address : address + nbytes]

    def write_unchecked(self, address: int, data: bytes) -> None:
        """Write bypassing the granularity rule (bounds still enforced)."""
        if address < 0 or address + len(data) > self.size:
            self.check_bounds(address, len(data))
        self._data[address : address + len(data)] = data

    def __repr__(self) -> str:
        return (
            f"MemorySpace(name={self.name!r}, size={self.size}, "
            f"granularity={self.granularity})"
        )


class BumpAllocator:
    """A trivial linear allocator over a region of a memory space.

    The simulated programs use static layout for most data; this allocator
    covers the remaining cases (packing generated worlds into main memory,
    carving stack/heap regions out of a local store).
    """

    def __init__(self, base: int, limit: int, alignment: int = 16):
        if base < 0 or limit < base:
            raise ValueError(f"bad allocator range [{base}, {limit})")
        self.base = base
        self.limit = limit
        self.alignment = alignment
        self._next = base

    def allocate(self, nbytes: int, alignment: int | None = None) -> int:
        """Reserve ``nbytes`` and return the base address of the block."""
        align = alignment or self.alignment
        start = (self._next + align - 1) // align * align
        if start + nbytes > self.limit:
            raise MemoryFault(
                f"allocator exhausted ({nbytes} bytes requested, "
                f"{self.limit - start} available)",
                "<allocator>",
                start,
            )
        self._next = start + nbytes
        return start

    @property
    def used(self) -> int:
        """Bytes consumed so far, from the region base."""
        return self._next - self.base
