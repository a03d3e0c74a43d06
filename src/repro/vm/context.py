"""Thread contexts and outer-access strategies.

A :class:`ThreadContext` is one logical thread: the host thread, or one
offload thread pinned to an accelerator core.  It carries the local
cycle counter, the frame stack allocator, and — for cross-memory-space
accelerator threads — the *outer strategy* that implements accesses to
host memory:

* :class:`RawDmaStrategy` — every outer access becomes a blocking DMA
  through a small bounce buffer: the paper's unoptimised baseline, two
  dependent high-latency transfers per pointer-chase iteration.
* a software cache (Section 4.2, :mod:`repro.runtime.softcache`),
  chosen per offload block by the ``cache(...)`` annotation.  The cache
  *is* the strategy: it has the same ``load`` / ``store`` / ``flush`` on
  the value clock, and its flat per-slot lists are what the codegen
  engine binds to serve direct-mapped hits inline.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LocalStoreOverflow, MachineError
from repro.machine.cores import AcceleratorCore, Core
from repro.machine.dma import GET, PUT
from repro.machine.memory import MemorySpace
from repro.runtime.softcache import SoftwareCache, make_cache

#: Bytes reserved at the top of the local store for the bounce buffer.
SCRATCH_BYTES = 512

#: DMA tag used by the raw strategy's bounce transfers.
RAW_TAG = 31


class RawDmaStrategy:
    """Blocking bounce-buffer DMA per access (uncached): each chunk of
    at most :data:`SCRATCH_BYTES` is one :meth:`DmaEngine.transfer_and_wait`
    through the buffer at ``scratch_addr``.  :attr:`loads` / :attr:`stores`
    count accesses, here and in the engines' one-scalar helpers."""

    def __init__(self, core: AcceleratorCore, scratch_addr: int):
        if core.dma is None or core.local_store is None:
            raise MachineError("raw DMA strategy requires a local store")
        self.dma = core.dma
        self.scratch = core.local_store._data
        self.scratch_addr = scratch_addr
        self.loads = core.perf.slot("outer.raw_loads")
        self.stores = core.perf.slot("outer.raw_stores")

    def load(self, address: int, size: int, now: int) -> tuple[bytes, int]:
        parts: list[bytes] = []
        scratch = self.scratch_addr
        for cursor in range(address, address + size, SCRATCH_BYTES):
            chunk = min(address + size - cursor, SCRATCH_BYTES)
            now = self.dma.transfer_and_wait(GET, RAW_TAG, scratch, cursor, chunk, now)
            parts.append(self.scratch[scratch:scratch + chunk])
        self.loads.count += 1
        return b"".join(parts), now

    def store(self, address: int, data: bytes, now: int) -> int:
        scratch = self.scratch_addr
        for offset in range(0, len(data), SCRATCH_BYTES):
            chunk = data[offset:offset + SCRATCH_BYTES]
            self.scratch[scratch:scratch + len(chunk)] = chunk
            now = self.dma.transfer_and_wait(
                PUT, RAW_TAG, scratch, address + offset, len(chunk), now
            )
        self.stores.count += 1
        return now

    def flush(self, now: int) -> int:
        """Nothing is buffered: every store already reached main memory."""
        return now


#: Default software-cache geometry for offload blocks with a
#: ``cache(...)`` annotation.
CACHE_LINE_SIZE = 128
CACHE_NUM_LINES = 64


def build_strategy(
    core: AcceleratorCore, cache_kind: Optional[str]
) -> "tuple[RawDmaStrategy | SoftwareCache, int]":
    """Create the outer strategy for one offload thread.

    Returns ``(strategy, stack_limit)`` — the local-store layout is
    computed here: frames grow from 0; the bounce buffer sits at the
    top; cache line storage (when caching) sits just below it.
    """
    ls = core.local_store
    assert ls is not None
    scratch_addr = ls.size - SCRATCH_BYTES
    if cache_kind is None:
        return RawDmaStrategy(core, scratch_addr), scratch_addr
    cache_bytes = CACHE_LINE_SIZE * CACHE_NUM_LINES
    cache_base = scratch_addr - cache_bytes
    cache = make_cache(
        cache_kind,
        core,
        cache_base,
        line_size=CACHE_LINE_SIZE,
        num_lines=CACHE_NUM_LINES,
    )
    return cache, cache_base


class FrameStack:
    """A simple grow-up frame allocator over a memory region; ``peak``
    is the highest stack pointer it reached since :meth:`reset`."""

    def __init__(self, base: int, limit: int, space_name: str):
        self.base = base
        self.limit = limit
        self.space_name = space_name
        self._sp = self.peak = base

    def push(self, size: int, alignment: int = 16) -> int:
        aligned = (self._sp + alignment - 1) // alignment * alignment
        if aligned + size > self.limit:
            raise LocalStoreOverflow(
                f"frame of {size} bytes overflows the {self.space_name} "
                f"stack (sp={aligned:#x}, limit={self.limit:#x}); offloaded "
                f"call chains must fit in scratch-pad memory"
            )
        self._sp = aligned + size
        if self._sp > self.peak:
            self.peak = self._sp
        return aligned

    def pop(self, to: int) -> None:
        self._sp = to

    def reset(self, memory) -> None:
        """Empty the stack and zero ``memory`` up to where its frames
        reached, so the next user sees the zeros a fresh region holds."""
        if self.peak > self.base:
            memory.write_unchecked(self.base, bytes(self.peak - self.base))
        self._sp = self.peak = self.base

    @property
    def sp(self) -> int:
        return self._sp


class ThreadContext:
    """One logical thread of execution; ``view`` holds what generated
    code binds for its outer accesses, once it has asked."""

    def __init__(
        self,
        core: Core,
        main_memory: MemorySpace,
        stack: FrameStack,
        now: int,
        strategy: "RawDmaStrategy | SoftwareCache | None" = None,
        offload_id: int = -1,
    ):
        self.core = core
        self.main_memory = main_memory
        self.stack = stack
        self.now = now
        self.strategy = strategy
        self.offload_id = offload_id
        self.view: Optional[tuple] = None

    @property
    def local_store(self) -> Optional[MemorySpace]:
        return getattr(self.core, "local_store", None)

    @property
    def name(self) -> str:
        return self.core.name
