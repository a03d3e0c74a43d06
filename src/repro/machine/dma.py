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

GET = "get"
PUT = "put"

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
    """One issued DMA transfer.

    Attributes:
        kind: ``"get"`` (main memory -> local store) or ``"put"``.
        tag: Tag group, 0..31.
        local_addr: Byte address in the local store.
        outer_addr: Byte address in main memory.
        size: Transfer length in bytes.
        issue_time: Cycle at which the issuing core posted the request.
        complete_time: Cycle at which the transfer finishes.
        serial: Issue order within the owning engine (1-based), used for
            deterministic reporting.  Per-engine rather than
            process-global, so serials are reproducible regardless of
            how many machines ran earlier in the same process.
    """

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
        self,
        local_store: MemorySpace,
        main_memory: MemorySpace,
        cost: CostModel,
        perf: PerfCounters,
        name: str = "dma",
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
        #: Metrics sink; installed by ``Machine.attach_metrics``.
        self.metrics = NULL_METRICS
        #: Race-check mode, one of :data:`RACECHECK_MODES`; an
        #: interpreter sets it, and empties :attr:`races`, for its run.
        self.racecheck: Optional[str] = None
        #: Races found in ``"record"`` mode, in issue order.
        self.races: list[RaceRecord] = []
        self._in_flight: list[DmaRequest] = []
        self._channel_free = 0
        self._next_serial = 0

    # ------------------------------------------------------------ issuing

    def _validate(self, tag: int, local_addr: int, outer_addr: int, size: int) -> None:
        if not 0 <= tag < NUM_TAGS:
            raise DmaError(f"{self.name}: tag {tag} out of range 0..{NUM_TAGS - 1}")
        if size <= 0:
            raise DmaError(f"{self.name}: transfer size must be positive, got {size}")
        if local_addr < 0 or local_addr + size > self.local_store.size:
            raise DmaError(
                f"{self.name}: local range [{local_addr:#x}, "
                f"{local_addr + size:#x}) outside local store"
            )
        if outer_addr < 0 or outer_addr + size > self.main_memory.size:
            raise DmaError(
                f"{self.name}: outer range [{outer_addr:#x}, "
                f"{outer_addr + size:#x}) outside main memory"
            )

    def _schedule(self, issue_time: int, size: int) -> int:
        earliest = issue_time + self.cost.dma_latency
        if self.interconnect is not None:
            return self.interconnect.reserve(earliest, size)  # type: ignore[attr-defined]
        start = max(earliest, self._channel_free)
        duration = -(-size // self.cost.dma_bytes_per_cycle)  # ceil division
        complete = start + duration
        self._channel_free = complete
        return complete

    def _issue(
        self, kind: str, tag: int, local_addr: int, outer_addr: int, size: int, now: int
    ) -> DmaRequest:
        self._validate(tag, local_addr, outer_addr, size)
        complete = self._schedule(now, size)
        self._next_serial += 1
        request = DmaRequest(
            kind=kind,
            tag=tag,
            local_addr=local_addr,
            outer_addr=outer_addr,
            size=size,
            issue_time=now,
            complete_time=complete,
            serial=self._next_serial,
        )
        racecheck = self.racecheck
        if racecheck is not None:
            # Checked oldest first against what is still in flight.
            local_end = local_addr + size
            outer_end = outer_addr + size
            for earlier in self._in_flight:
                location = race_location(
                    earlier.kind,
                    kind,
                    earlier.outer_addr < outer_end
                    and outer_addr < earlier.outer_addr + earlier.size,
                    earlier.local_addr < local_end
                    and local_addr < earlier.local_addr + earlier.size,
                )
                if location is None:
                    continue
                record = RaceRecord(earlier, request, location)
                if racecheck == "raise":
                    raise DmaRaceError(record.describe(), earlier, request)
                self.races.append(record)
        trace = self.trace
        if trace.enabled:
            trace.emit(
                now,
                self.name,
                EV_DMA_XFER,
                (kind, tag, local_addr, outer_addr, size, complete,
                 request.serial),
            )
        metrics = self.metrics
        if metrics.enabled:
            metrics.observe("dma.xfer_bytes", self.name, size)
        self._in_flight.append(request)
        if kind == GET:
            data = self.main_memory.read_unchecked(outer_addr, size)
            self.local_store.write_unchecked(local_addr, data)
            self.perf.add("dma.gets")
            self.perf.add("dma.bytes_get", size)
        else:
            data = self.local_store.read_unchecked(local_addr, size)
            self.main_memory.write_unchecked(outer_addr, data)
            self.perf.add("dma.puts")
            self.perf.add("dma.bytes_put", size)
        return request

    def get(
        self, tag: int, local_addr: int, outer_addr: int, size: int, now: int
    ) -> int:
        """Issue a non-blocking main-memory -> local-store transfer.

        Returns the time at which the issuing core may continue (i.e.
        ``now`` plus the setup cost); completion is tracked per tag.
        """
        self._issue(GET, tag, local_addr, outer_addr, size, now)
        return now + self.cost.dma_setup

    def put(
        self, tag: int, local_addr: int, outer_addr: int, size: int, now: int
    ) -> int:
        """Issue a non-blocking local-store -> main-memory transfer."""
        self._issue(PUT, tag, local_addr, outer_addr, size, now)
        return now + self.cost.dma_setup

    # ------------------------------------------------------------ waiting

    def wait(self, tag: int, now: int) -> int:
        """Block until every transfer issued under ``tag`` has completed.

        Returns the time at which execution may resume.
        """
        if not 0 <= tag < NUM_TAGS:
            raise DmaError(f"{self.name}: tag {tag} out of range 0..{NUM_TAGS - 1}")
        done_time = now
        remaining: list[DmaRequest] = []
        for request in self._in_flight:
            if request.tag == tag:
                done_time = max(done_time, request.complete_time)
            else:
                remaining.append(request)
        self._in_flight = remaining
        self.perf.add("dma.waits")
        trace = self.trace
        if trace.enabled:
            trace.emit(now, self.name, EV_DMA_WAIT, (tag, done_time))
        metrics = self.metrics
        if metrics.enabled:
            metrics.observe("dma.wait_cycles", self.name, done_time - now)
        return done_time

    def wait_all(self, now: int) -> int:
        """Block until every outstanding transfer has completed."""
        done_time = now
        for request in self._in_flight:
            done_time = max(done_time, request.complete_time)
        self._in_flight = []
        self.perf.add("dma.waits")
        trace = self.trace
        if trace.enabled:
            trace.emit(now, self.name, EV_DMA_WAIT, (-1, done_time))
        metrics = self.metrics
        if metrics.enabled:
            metrics.observe("dma.wait_cycles", self.name, done_time - now)
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
