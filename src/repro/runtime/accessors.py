"""Portable accessor classes.

Section 4.2 of the paper interposes an ``Array`` accessor between an
outer array and the code using it: one efficient bulk DMA pulls the whole
array into fast local store, after which indexing is a local access; on a
shared-memory system the same accessor degrades to direct access, which
is what keeps the *source* portable while the *cost* adapts to the
architecture.  OffloadMini spells it ``Array<T, N> a(outer_array);``:
the compiler lowers it to the ``acc_bulk_get`` / ``acc_bulk_put``
intrinsics both execution engines run.

This module provides :class:`StreamAccessor`, chunked, multi-buffered
streaming over a large outer region for hand-written host code: with
``depth >= 2`` the next chunk's DMA overlaps processing of the current
one (the "double buffered transfers" of Section 4.1).

Element granularity: accessors move raw bytes; callers index by element
using an ``element_size``.
"""

from __future__ import annotations

from repro.errors import MachineError
from repro.machine.cores import AcceleratorCore


class StreamAccessor:
    """Multi-buffered streaming over a large outer region.

    Splits ``count`` elements into chunks of ``chunk_elements`` and hands
    them out in order.  With ``depth >= 2`` the accessor prefetches ahead:
    while the caller processes chunk *i*, the DMA engine is already
    transferring chunk *i+1* under a different tag, so transfer latency
    is hidden behind computation — the double-buffering idiom that
    uniform-type object grouping enables (Section 4.1).

    Usage::

        stream = StreamAccessor(acc, base, esize, n, local_base, depth=2)
        now = start
        for chunk in range(stream.num_chunks):
            local, count, now = stream.acquire(chunk, now)
            ... process `count` elements at local store address `local`
            now = stream.release(chunk, now)   # writes back if writeback
    """

    FIRST_TAG = 20

    def __init__(
        self,
        core: AcceleratorCore,
        outer_addr: int,
        element_size: int,
        count: int,
        local_addr: int,
        chunk_elements: int,
        depth: int = 2,
        writeback: bool = False,
    ):
        if core.dma is None or core.local_store is None:
            raise MachineError("StreamAccessor requires a local store")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if chunk_elements <= 0:
            raise ValueError("chunk_elements must be positive")
        self.core = core
        self.outer_addr = outer_addr
        self.element_size = element_size
        self.count = count
        self.local_addr = local_addr
        self.chunk_elements = chunk_elements
        self.depth = depth
        self.writeback = writeback
        self.num_chunks = -(-count // chunk_elements)
        self._chunk_bytes = chunk_elements * element_size
        self._prefetched_through = -1

    def _chunk_count(self, chunk: int) -> int:
        start = chunk * self.chunk_elements
        return min(self.chunk_elements, self.count - start)

    def _chunk_outer(self, chunk: int) -> int:
        return self.outer_addr + chunk * self._chunk_bytes

    def _chunk_local(self, chunk: int) -> int:
        return self.local_addr + (chunk % self.depth) * self._chunk_bytes

    def _chunk_tag(self, chunk: int) -> int:
        return self.FIRST_TAG + (chunk % self.depth)

    def _prefetch(self, chunk: int, now: int) -> int:
        dma = self.core.dma
        assert dma is not None
        size = self._chunk_count(chunk) * self.element_size
        if self.writeback and chunk >= self.depth:
            # The buffer being refilled may still be draining its
            # previous occupant's writeback under the same tag; fence it
            # before reuse or the get would race the put.
            now = dma.wait(self._chunk_tag(chunk), now)
        now = dma.get(
            self._chunk_tag(chunk),
            self._chunk_local(chunk),
            self._chunk_outer(chunk),
            size,
            now,
        )
        self.core.perf.add("stream.prefetches")
        self._prefetched_through = chunk
        return now

    def acquire(self, chunk: int, now: int) -> tuple[int, int, int]:
        """Make chunk ``chunk`` resident; returns (local_addr, count, time).

        Issues any outstanding prefetches up to ``chunk + depth - 1``
        first (so later transfers overlap this chunk's processing), then
        blocks until this chunk's own transfer completes.
        """
        if not 0 <= chunk < self.num_chunks:
            raise IndexError(f"chunk {chunk} out of range 0..{self.num_chunks - 1}")
        dma = self.core.dma
        assert dma is not None
        horizon = min(chunk + self.depth - 1, self.num_chunks - 1)
        next_fetch = self._prefetched_through + 1
        for ahead in range(next_fetch, horizon + 1):
            now = self._prefetch(ahead, now)
        if chunk > self._prefetched_through:
            now = self._prefetch(chunk, now)
        now = dma.wait(self._chunk_tag(chunk), now)
        return self._chunk_local(chunk), self._chunk_count(chunk), now

    def release(self, chunk: int, now: int) -> int:
        """Finish with a chunk; issues (non-blocking) writeback if asked."""
        if not self.writeback:
            return now
        dma = self.core.dma
        assert dma is not None
        size = self._chunk_count(chunk) * self.element_size
        now = dma.put(
            self._chunk_tag(chunk),
            self._chunk_local(chunk),
            self._chunk_outer(chunk),
            size,
            now,
        )
        self.core.perf.add("stream.writebacks")
        return now

    def drain(self, now: int) -> int:
        """Wait for every outstanding transfer (end of the stream)."""
        dma = self.core.dma
        assert dma is not None
        return dma.wait_all(now)
