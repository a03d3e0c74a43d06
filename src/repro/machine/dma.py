"""Tagged DMA engine.

Models the Cell-style memory flow controller the paper's Figure 1 code is
written against: non-blocking ``get``/``put`` transfers between an
accelerator's local store and main memory, grouped by a small integer
*tag*; ``wait(tag)`` blocks until every transfer issued under that tag has
completed.

Timing model: issuing a transfer costs ``dma_setup`` cycles on the issuing
core.  The transfer itself completes at::

    max(issue_time + dma_latency, channel_free) + ceil(size / bandwidth)

i.e. latencies of back-to-back transfers overlap but the data channel
serialises bandwidth — this is what makes the Figure 1 "two gets under one
tag" idiom faster than two blocking gets, and what double buffering
(Section 4.1/4.2) exploits.

Functionally, data moves at issue time; the engine records in-flight
requests, checks each new transfer against them
(:attr:`DmaEngine.racecheck`, by :func:`race_location`, whose rules the
static :mod:`repro.analysis.dmacheck` applies too) and lets the
interpreter trap local reads before a ``dma_wait``: the bug class
targeted by the static and dynamic tools the paper cites.

Runtime traffic — a raw outer access through its bounce buffer, a
software-cache fill or write-back, an accessor bulk transfer — is a
transfer and its wait: :meth:`DmaEngine.transfer_and_wait` does both in
one step, with nothing built or kept when nothing else is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DmaError, DmaRaceError
from repro.machine.config import CostModel
from repro.machine.memory import MemorySpace
from repro.machine.perf import PerfCounters
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import EV_DMA_WAIT, EV_DMA_XFER, NULL_RECORDER

NUM_TAGS = 32

GET, PUT = "get", "put"

#: The counters transfers and waits feed, in slot order.
_COUNTERS = ("dma.gets", "dma.bytes_get", "dma.puts", "dma.bytes_put", "dma.waits")

#: What :attr:`DmaEngine.racecheck` may be: raise :class:`DmaRaceError`
#: at the issuing call, append a :class:`RaceRecord` to
#: :attr:`DmaEngine.races`, or check nothing.
RACECHECK_MODES = ("raise", "record", None)


def race_location(
    earlier_kind: str, later_kind: str, outer_overlap: bool, local_overlap: bool
) -> Optional[str]:
    """Where two transfers not separated by a ``dma_wait`` on the
    earlier one's tag race: ``"outer"``, ``"local"`` or None (safe).

    * ``put``/``put``, ``get``/``put`` or ``put``/``get`` overlapping in
      main memory race: the final contents, or what the get observes,
      depend on completion order.
    * ``get``/``get`` overlapping in main memory is safe: both only
      read it (the Figure 1 idiom).
    * Overlap in the local store races when either is a get: a get
      writes the local store, a put only reads it.
    """
    if outer_overlap and (earlier_kind != GET or later_kind != GET):
        return "outer"
    if local_overlap and (earlier_kind == GET or later_kind == GET):
        return "local"
    return None


@dataclass(frozen=True)
class DmaRequest:
    """One issued DMA transfer: a ``"get"`` (main memory -> local
    store) or ``"put"`` of ``size`` bytes under ``tag`` (0..31), posted
    at cycle ``issue_time``, done at ``complete_time``.  ``serial`` is
    the issue order within the owning engine (1-based): per engine, not
    per process, so reports do not depend on what ran earlier."""

    kind: str
    tag: int
    local_addr: int
    outer_addr: int
    size: int
    issue_time: int
    complete_time: int
    serial: int

    def describe(self) -> str:
        return (
            f"dma_{self.kind}(tag={self.tag}, local={self.local_addr:#x}, "
            f"outer={self.outer_addr:#x}, size={self.size}) "
            f"issued@{self.issue_time}"
        )


@dataclass(frozen=True)
class RaceRecord:
    """One detected race between two in-flight transfers."""

    earlier: DmaRequest
    later: DmaRequest
    location: str  # "outer" or "local"

    def describe(self) -> str:
        return (
            f"DMA race in {self.location} memory between "
            f"[{self.earlier.describe()}] and [{self.later.describe()}]"
        )


class DmaEngine:
    """The memory flow controller of one accelerator core.

    Args:
        local_store: The accelerator's scratch-pad memory.
        main_memory: The shared outer memory.
        cost: Cycle cost model.
        perf: Counter sink (shared machine-wide).
        name: Used in diagnostics, e.g. ``"dma0"``.
        interconnect: Optional machine-wide shared channel; when set,
            bandwidth is serialised across *all* engines instead of per
            engine (see :mod:`repro.machine.interconnect`).
    """

    def __init__(
        self, local_store: MemorySpace, main_memory: MemorySpace,
        cost: CostModel, perf: PerfCounters, name: str = "dma",
        interconnect: object = None,
    ):
        self.local_store = local_store
        self.main_memory = main_memory
        self.cost = cost
        self.perf = perf
        self.name = name
        self.interconnect = interconnect
        #: Event sink; installed by ``Machine.attach_trace``.
        self.trace = NULL_RECORDER
        self.metrics = NULL_METRICS
        #: :data:`_COUNTERS` as slots.
        self._slots = tuple(map(perf.slot, _COUNTERS))
        #: Race-check mode, one of :data:`RACECHECK_MODES`; an
        #: interpreter sets it, and empties :attr:`races`, for its run.
        self.racecheck: Optional[str] = None
        #: Races found in ``"record"`` mode, in issue order.
        self.races: list[RaceRecord] = []
        self._in_flight: list[DmaRequest] = []
        self._channel_free = 0
        self._next_serial = 0

    @property
    def metrics(self):
        """Metrics sink; installed by ``Machine.attach_metrics``."""
        return self._metrics

    @metrics.setter
    def metrics(self, hub) -> None:
        # The transfer-size and wait tallies are bound at their first sample.
        self._metrics = hub
        self._sizes = self._waits = None

    # ------------------------------------------------------------ issuing

    def _issue(
        self, kind: str, tag: int, local_addr: int, outer_addr: int,
        size: int, now: int, track: bool = True,
    ) -> int:
        """Check, schedule, race-check, report and perform one transfer
        issued at ``now``; returns its completion time.  It is built as
        a :class:`DmaRequest` only to be checked against transfers in
        flight or, with ``track``, to stay in flight itself."""
        name = self.name
        if not 0 <= tag < NUM_TAGS:
            raise DmaError(f"{name}: tag {tag} out of range 0..{NUM_TAGS - 1}")
        if size <= 0:
            raise DmaError(f"{name}: transfer size must be positive, got {size}")
        local, outer = self.local_store, self.main_memory
        if local_addr < 0 or local_addr + size > local.size:
            raise DmaError(f"{name}: local range [{local_addr:#x}, "
                           f"{local_addr + size:#x}) outside local store")
        if outer_addr < 0 or outer_addr + size > outer.size:
            raise DmaError(f"{name}: outer range [{outer_addr:#x}, "
                           f"{outer_addr + size:#x}) outside main memory")
        earliest = now + self.cost.dma_latency
        if self.interconnect is not None:
            complete = self.interconnect.reserve(earliest, size)  # type: ignore[attr-defined]
        else:  # the channel serialises bandwidth: ceil(size / rate)
            free = self._channel_free
            complete = (earliest if earliest > free else free) - (
                -size // self.cost.dma_bytes_per_cycle)
            self._channel_free = complete
        serial = self._next_serial = self._next_serial + 1
        in_flight = self._in_flight
        if track or in_flight:
            request = DmaRequest(kind, tag, local_addr, outer_addr, size, now,
                                 complete, serial)
            if in_flight and self.racecheck is not None:
                self._check_races(request)
            if track:
                in_flight.append(request)
        if self.trace.enabled:
            self.trace.emit(now, name, EV_DMA_XFER, (
                kind, tag, local_addr, outer_addr, size, complete, serial))
        if self._metrics.enabled:
            sizes = self._sizes
            if sizes is None:
                sizes = self._sizes = self._metrics.tally("dma.xfer_bytes", name)
            sizes[size] = sizes.get(size, 0) + 1
        slots = self._slots
        if kind == GET:
            local._data[local_addr:local_addr + size] = outer._data[
                outer_addr:outer_addr + size]
            slots[0].count += 1
            slots[1].count += size
        else:
            outer._data[outer_addr:outer_addr + size] = local._data[
                local_addr:local_addr + size]
            slots[2].count += 1
            slots[3].count += size
        return complete

    def _check_races(self, request: DmaRequest) -> None:
        """Check a new transfer against those in flight, oldest first."""
        local_end = request.local_addr + request.size
        outer_end = request.outer_addr + request.size
        for earlier in self._in_flight:
            location = race_location(
                earlier.kind, request.kind,
                earlier.outer_addr < outer_end
                and request.outer_addr < earlier.outer_addr + earlier.size,
                earlier.local_addr < local_end
                and request.local_addr < earlier.local_addr + earlier.size,
            )
            if location is None:
                continue
            record = RaceRecord(earlier, request, location)
            if self.racecheck == "raise":
                raise DmaRaceError(record.describe(), earlier, request)
            self.races.append(record)

    def get(
        self, tag: int, local_addr: int, outer_addr: int, size: int, now: int
    ) -> int:
        """Issue a non-blocking main-memory -> local-store transfer;
        returns when the issuing core may continue (``now`` plus the
        setup cost).  Completion is tracked per tag."""
        self._issue(GET, tag, local_addr, outer_addr, size, now)
        return now + self.cost.dma_setup

    def put(
        self, tag: int, local_addr: int, outer_addr: int, size: int, now: int
    ) -> int:
        """Issue a non-blocking local-store -> main-memory transfer."""
        self._issue(PUT, tag, local_addr, outer_addr, size, now)
        return now + self.cost.dma_setup

    def transfer_and_wait(
        self, kind: str, tag: int, local_addr: int, outer_addr: int,
        size: int, now: int,
    ) -> int:
        """A blocking transfer: :meth:`get` or :meth:`put`, then
        :meth:`wait` on ``tag``, as one step on the value clock.

        With nothing in flight it has exactly their effects (completion
        time, serial, events, metric samples, counters, data through the
        local store) without building a :class:`DmaRequest` or touching
        ``_in_flight``: there is nothing to race with and nothing else
        to complete.  Otherwise it makes the two calls.
        """
        if self._in_flight:
            self._issue(kind, tag, local_addr, outer_addr, size, now)
            return self.wait(tag, now + self.cost.dma_setup)
        complete = self._issue(kind, tag, local_addr, outer_addr, size, now, False)
        now += self.cost.dma_setup
        return self._waited(tag, now, complete if complete > now else now)

    # ------------------------------------------------------------ waiting

    def wait(self, tag: int, now: int) -> int:
        """Block until every transfer issued under ``tag`` has completed.

        Returns the time at which execution may resume.
        """
        if not 0 <= tag < NUM_TAGS:
            raise DmaError(f"{self.name}: tag {tag} out of range 0..{NUM_TAGS - 1}")
        in_flight = self._in_flight
        done = [r.complete_time for r in in_flight if r.tag == tag]
        self._in_flight = [r for r in in_flight if r.tag != tag]
        return self._waited(tag, now, max([now, *done]))

    def wait_all(self, now: int) -> int:
        """Block until every outstanding transfer has completed."""
        done = [r.complete_time for r in self._in_flight]
        self._in_flight = []
        return self._waited(-1, now, max([now, *done]))

    def _waited(self, tag: int, now: int, done_time: int) -> int:
        """Count and report a wait on ``tag`` (-1: every tag) from
        ``now`` until ``done_time``, and return ``done_time``."""
        self._slots[4].count += 1
        if self.trace.enabled:
            self.trace.emit(now, self.name, EV_DMA_WAIT, (tag, done_time))
        if self._metrics.enabled:
            waits = self._waits
            if waits is None:
                waits = self._waits = self._metrics.tally("dma.wait_cycles", self.name)
            waits[done_time - now] = waits.get(done_time - now, 0) + 1
        return done_time

    # ---------------------------------------------------------- inspection

    def pending_local_conflict(self, address: int, size: int) -> Optional[DmaRequest]:
        """Return an in-flight *get* whose local range overlaps the access.

        Both engines consult this on local loads and bulk copies so that
        reading a DMA target buffer before ``dma_wait`` is reported — the
        classic bug the cited race-analysis tools detect.
        """
        end = address + size
        for request in self._in_flight:
            if (
                request.kind == GET
                and request.local_addr < end
                and address < request.local_addr + request.size
            ):
                return request
        return None
