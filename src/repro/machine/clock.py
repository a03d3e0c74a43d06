"""Per-core logical clocks.

The simulator is deterministic: each core advances its own cycle counter
as it executes, and parallelism is modelled by *timestamp combination* —
when a host joins an offload thread, the host clock becomes the maximum
of its own time and the accelerator's finish time.  This reproduces the
overlap behaviour the paper's Figure 2 relies on (host collision
detection running concurrently with offloaded strategy calculation)
without any real threads.
"""

from __future__ import annotations


class CoreClock:
    """A monotonically advancing cycle counter for one core."""

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("clock cannot start in the past")
        self._now = start

    @property
    def now(self) -> int:
        """Current simulated time, in cycles."""
        return self._now

    def sync_to(self, time: int) -> int:
        """Wait until ``time`` if it is in the future; returns the new time.

        Used for joins and DMA fences: waiting for an event that already
        completed costs nothing extra.
        """
        if time > self._now:
            self._now = time
        return self._now

    def __repr__(self) -> str:
        return f"CoreClock(now={self._now})"
