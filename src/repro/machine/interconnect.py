"""Shared interconnect modelling.

By default every accelerator's DMA engine owns a private data channel
to main memory, so concurrent transfers from different cores do not
contend (an idealisation).  Real parts share an on-chip interconnect —
the Cell's Element Interconnect Bus, or the mesh of the 48-core SCC the
paper's Section 2 cites — so aggregate DMA bandwidth is bounded.

Setting ``MachineConfig(shared_interconnect=True)`` routes every DMA
engine's transfers through one :class:`Interconnect`: latencies still
overlap, but bytes are serialised machine-wide.  The E12 ablation
benchmark measures what that does to multi-accelerator scaling.
"""

from __future__ import annotations

from repro.machine.perf import PerfCounters


class Interconnect:
    """A single shared data channel with a bandwidth cap.

    ``reserve`` implements the same scheduling rule as a private DMA
    channel — a transfer begins when its latency has elapsed *and* the
    channel is free — but the channel-free time is global.
    """

    def __init__(self, bytes_per_cycle: int, perf: PerfCounters):
        if bytes_per_cycle <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bytes_per_cycle}"
            )
        self.bytes_per_cycle = bytes_per_cycle
        self._contention = perf.slot("interconnect.contention_cycles")
        self._bytes = perf.slot("interconnect.bytes")
        self._channel_free = 0

    def reserve(self, earliest_start: int, size: int) -> int:
        """Schedule a transfer of ``size`` bytes; returns completion time.

        ``earliest_start`` is when the data could first move (issue time
        plus latency).  Waiting for the shared channel beyond that point
        is recorded as contention.
        """
        start = max(earliest_start, self._channel_free)
        if start > earliest_start:
            self._contention.count += start - earliest_start
        duration = -(-size // self.bytes_per_cycle)
        complete = start + duration
        self._channel_free = complete
        self._bytes.count += size
        return complete
