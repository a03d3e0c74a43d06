"""Software caches over outer memory.

On a machine without coherent caches between an accelerator and main
memory, every outer access would otherwise pay full DMA latency.  A
software cache keeps recently used lines of main memory in a region of
the local store and services repeated accesses from there.  The paper
notes that Codeplay ship *several* cache implementations "favouring
different types of application behaviour" and that choosing between them
is a profiling decision left to the programmer; this module provides
three with genuinely different behaviour:

* :class:`DirectMappedCache` — minimum probe cost, conflict-prone.
* :class:`SetAssociativeCache` — LRU within a set, fewer conflicts at a
  slightly higher probe cost.
* :class:`VictimCache` — direct-mapped plus a small fully associative
  victim buffer that absorbs ping-pong conflict misses.

All caches are write-back with per-line dirty bits, and must be
``flush``-ed before the host may observe stores (there is no coherence —
that is the point).

A cache *is* an offload thread's outer strategy (``load`` / ``store`` /
``flush`` on the value clock).  Per-slot state is flat lists, mutated in
place and never rebound, so generated code can bind them once per
function entry (:attr:`DirectMappedCache.inline_view`): ``_tags`` (the
line a slot holds; None when invalid, since line -1 holds the outer
addresses just below 0), ``_dirty`` (that line again while dirty, else
None) and, only where replacement reads it, ``_last_used``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MachineError
from repro.machine.cores import AcceleratorCore
from repro.machine.dma import GET, PUT
from repro.machine.perf import packed_weight
from repro.obs.trace import (
    EV_CACHE_EVICT,
    EV_CACHE_FILL,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_CACHE_WRITEBACK,
)
from repro.runtime.cachekinds import SOFT_CACHE_KINDS

#: The fields of the inline-hit :class:`~repro.machine.perf.PackedSlot`,
#: low to high: bytes read, loads, bytes written, stores.
INLINE_FIELDS = (
    ("outer.bytes_read",),
    ("outer.loads", "softcache.probes", "softcache.hits"),
    ("outer.bytes_written",),
    ("outer.stores", "softcache.probes", "softcache.hits"),
)


def inline_hit_weight(size: int, store: bool) -> int:
    """What one inline hit of ``size`` bytes adds to the inline-hit
    slot's count."""
    return packed_weight(0, 0, size, 1) if store else packed_weight(size, 1)


#: What generated code binds instead of :attr:`DirectMappedCache.inline_view`
#: when the inline path is off: a one-slot tag tuple that never matches.
NO_INLINE = ((None,), (None,), 0, 0, 0, None, None)


class SoftwareCache:
    """Common machinery for the concrete cache organisations.

    Args:
        core: The accelerator this cache runs on.
        local_base: Byte address in the local store where line storage
            begins (``num_lines * line_size`` bytes are used).
        line_size: Bytes per line (power of two).
        num_lines: Total number of lines (power of two).
        write_through: When True, stores propagate to main memory
            immediately (lines are never dirty).
    """

    #: DMA tag reserved for cache traffic.
    CACHE_TAG = 30

    #: Organisation name, matching the cache-kind registry; stamped on
    #: fill events so traces show which implementation served a line.
    KIND = "base"

    #: Whether replacement reads per-slot recency (``_last_used``).
    TRACKS_RECENCY = False

    def __init__(
        self,
        core: AcceleratorCore,
        local_base: int,
        line_size: int = 128,
        num_lines: int = 64,
        write_through: bool = False,
    ):
        if core.dma is None or core.local_store is None:
            raise MachineError(
                "software caches require an accelerator with a local store"
            )
        if line_size & (line_size - 1) or line_size <= 0:
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        if num_lines & (num_lines - 1) or num_lines <= 0:
            raise ValueError(f"num_lines must be a power of two, got {num_lines}")
        if local_base + line_size * num_lines > core.local_store.size:
            raise MachineError("cache line storage does not fit in the local store")
        self.core = core
        self.local_base = local_base
        self.line_size = line_size
        self.num_lines = num_lines
        self.write_through = write_through
        self._tags: list[Optional[int]] = [None] * num_lines
        self._dirty: list[Optional[int]] = [None] * num_lines
        self._last_used = [0] * num_lines if self.TRACKS_RECENCY else None
        self._access_counter = 0
        # line_size is a power of two, so address decomposition is a
        # shift and a mask on the hot path.
        self._line_shift = line_size.bit_length() - 1
        self._offset_mask = line_size - 1
        # Batched counters: the probe/hit/miss bookkeeping sits on every
        # cached outer access, so increments are plain ints in the
        # machine's slots.  Generated code adds the hits it serves inline
        # to one packed slot; offloads run one at a time, so a new cache
        # drops what an earlier one left untaken.
        slot = core.perf.slot
        self._probes, self._hits, self._misses, self._fills, self._writebacks = (
            slot(f"softcache.{name}")
            for name in ("probes", "hits", "misses", "fills", "writebacks"))
        self._inline_hits = slot("softcache.inline", INLINE_FIELDS)
        self._inline_hits.take("softcache.hits")
        self._dma = core.dma
        #: Pre-bound event sink + track name; one attribute check per
        #: access when tracing is disabled.
        self._trace = core.trace
        self._trace_track = f"{core.name}.cache"
        #: Pre-bound metrics sink and streak state.  Streak lengths are
        #: recorded into the ``softcache.hit_streak`` /
        #: ``softcache.miss_streak`` histograms when a streak *breaks*
        #: (a hit after misses or vice versa); the final open streak of
        #: a run is deliberately left unrecorded — ending it would need
        #: a teardown hook, and dropping it is equally deterministic.
        #: Inline hits are replayed into it at the next probe or flush.
        self._metrics = core.metrics
        self._streak_hits = 0
        self._streak_misses = 0
        #: Streak histogram family -> its tally, bound at its first sample.
        self._streak_tallies: dict[str, dict[int, int]] = {}

    # -------------------------------------------------------- organisation

    def _candidate_slots(self, line_number: int) -> list[int]:
        """Slots that may hold the given main-memory line number."""
        raise NotImplementedError

    def _victim_slot(self, line_number: int) -> int:
        """Slot to evict when all candidates are occupied."""
        raise NotImplementedError

    def _resident_slot(self, line_number: int) -> int | None:
        """The slot currently holding ``line_number``, or None.

        Pure lookup — no cycle charging, no counters.  Organisations
        with a single candidate slot override this to avoid building a
        candidate list per access (the probe fast path).
        """
        tags = self._tags
        for slot in self._candidate_slots(line_number):
            if tags[slot] == line_number:
                return slot
        return None

    def _prepare_victim(self, line_number: int, now: int) -> tuple[int, int]:
        """Choose the eviction slot, doing any time-charged shuffling.

        Organisations that move lines around on eviction (the victim
        cache) override this; the default just picks a slot.
        """
        return self._victim_slot(line_number), now

    # ------------------------------------------------------------ internals

    def _streak(self, hit: bool) -> None:
        """Advance the hit/miss streak state by one probe (metrics-enabled
        path only), after the hits served inline since the last one."""
        inline = self._inline_hits
        if inline.count != inline.taken:
            self._streak_run(True, inline.take("softcache.hits"))
        self._streak_run(hit, 1)

    def _streak_run(self, hit: bool, count: int) -> None:
        if not count:
            return
        if hit:
            if self._streak_misses:
                self._record_streak("softcache.miss_streak", self._streak_misses)
                self._streak_misses = 0
            self._streak_hits += count
        else:
            if self._streak_hits:
                self._record_streak("softcache.hit_streak", self._streak_hits)
                self._streak_hits = 0
            self._streak_misses += count

    def _record_streak(self, family: str, length: int) -> None:
        tally = self._streak_tallies.get(family)
        if tally is None:
            tally = self._streak_tallies[family] = self._metrics.tally(
                family, self._trace_track
            )
        tally[length] = tally.get(length, 0) + 1

    def _touch(self, slot: int) -> None:
        last_used = self._last_used
        if last_used is not None:
            self._access_counter += 1
            last_used[slot] = self._access_counter

    def _probe(self, line_number: int, now: int) -> tuple[int | None, int]:
        """Look the line up; returns (slot or None, time after probe)."""
        now += self.core.cost.cache_probe
        self._probes.count += 1
        slot = self._resident_slot(line_number)
        trace = self._trace
        metrics = self._metrics
        if slot is not None:
            if self._last_used is not None:
                self._touch(slot)
            self._hits.count += 1
            if trace.enabled:
                trace.emit(
                    now, self._trace_track, EV_CACHE_HIT,
                    (line_number * self.line_size,),
                )
            if metrics.enabled:
                self._streak(True)
            return slot, now
        self._misses.count += 1
        if trace.enabled:
            trace.emit(
                now, self._trace_track, EV_CACHE_MISS,
                (line_number * self.line_size,),
            )
        if metrics.enabled:
            self._streak(False)
        return None, now

    def _writeback(self, slot: int, now: int) -> int:
        """Write a dirty line back to main memory (blocking)."""
        outer_addr = self._tags[slot] * self.line_size  # type: ignore[operator]
        start = now
        now = self._dma.transfer_and_wait(
            PUT, self.CACHE_TAG, self.local_base + slot * self.line_size,
            outer_addr, self.line_size, now,
        )
        self._writebacks.count += 1
        self._dirty[slot] = None
        trace = self._trace
        if trace.enabled:
            trace.emit(
                start, self._trace_track, EV_CACHE_WRITEBACK,
                (outer_addr, now),
            )
        return now

    def _fill(self, line_number: int, now: int) -> tuple[int, int]:
        """Bring a line in from main memory; returns (slot, time)."""
        start = now
        slot, now = self._prepare_victim(line_number, now)
        tags = self._tags
        trace = self._trace
        if tags[slot] is not None:
            if trace.enabled:
                trace.emit(
                    now, self._trace_track, EV_CACHE_EVICT,
                    (tags[slot] * self.line_size,),  # type: ignore[operator]
                )
            if self._dirty[slot] is not None:
                now = self._writeback(slot, now)
        now = self._dma.transfer_and_wait(
            GET, self.CACHE_TAG, self.local_base + slot * self.line_size,
            line_number * self.line_size, self.line_size, now,
        )
        tags[slot] = line_number
        self._dirty[slot] = None
        if self._last_used is not None:
            self._touch(slot)
        self._fills.count += 1
        if trace.enabled:
            trace.emit(
                start, self._trace_track, EV_CACHE_FILL,
                (line_number * self.line_size, now, self.KIND),
            )
        return slot, now

    def _ensure(self, line_number: int, now: int) -> tuple[int, int]:
        slot, now = self._probe(line_number, now)
        if slot is None:
            slot, now = self._fill(line_number, now)
        return slot, now

    # --------------------------------------------------------------- API

    def load(self, outer_addr: int, size: int, now: int) -> tuple[bytes, int]:
        """Read ``size`` bytes of outer memory through the cache.

        Returns ``(data, time_after)``.  Accesses may span lines.
        """
        if size <= 0:
            raise ValueError(f"load size must be positive, got {size}")
        ls = self.core.local_store
        assert ls is not None
        offset = outer_addr & self._offset_mask
        if offset + size <= self.line_size:
            # Within one line: no parts to join.
            slot, now = self._ensure(outer_addr >> self._line_shift, now)
            at = self.local_base + slot * self.line_size + offset
            return ls._data[at:at + size], now
        parts: list[bytes] = []
        addr = outer_addr
        remaining = size
        while remaining > 0:
            offset = addr & self._offset_mask
            chunk = min(remaining, self.line_size - offset)
            slot, now = self._ensure(addr >> self._line_shift, now)
            at = self.local_base + slot * self.line_size + offset
            parts.append(ls.read_unchecked(at, chunk))
            addr += chunk
            remaining -= chunk
        return b"".join(parts), now

    def store(self, outer_addr: int, data: bytes, now: int) -> int:
        """Write bytes to outer memory through the cache; returns time."""
        if not data:
            raise ValueError("store of zero bytes")
        ls = self.core.local_store
        assert ls is not None
        offset = outer_addr & self._offset_mask
        if offset + len(data) <= self.line_size and not self.write_through:
            # Within one line of a write-back cache: mark it, and done.
            line_number = outer_addr >> self._line_shift
            slot, now = self._ensure(line_number, now)
            at = self.local_base + slot * self.line_size + offset
            ls._data[at:at + len(data)] = data
            self._dirty[slot] = line_number
            return now
        addr = outer_addr
        view = memoryview(data)
        while view:
            line_number = addr >> self._line_shift
            offset = addr & self._offset_mask
            chunk = min(len(view), self.line_size - offset)
            slot, now = self._ensure(line_number, now)
            ls.write_unchecked(
                self.local_base + slot * self.line_size + offset, view[:chunk]
            )
            self._dirty[slot] = line_number
            if self.write_through:
                now = self._writeback(slot, now)
            addr += chunk
            view = view[chunk:]
        return now

    def flush(self, now: int) -> int:
        """Write back every dirty line; returns the time when done."""
        if self._metrics.enabled:
            # Hits served inline since the last probe may close a miss
            # streak; the offload's end is the last chance to see them.
            self._streak_run(True, self._inline_hits.take("softcache.hits"))
        for slot, dirty in enumerate(self._dirty):
            if dirty is not None:
                now = self._writeback(slot, now)
        return now

    def invalidate(self) -> None:
        """Drop all cached lines without writing anything back."""
        self._tags[:] = [None] * self.num_lines
        self._dirty[:] = [None] * self.num_lines

    def hit_rate(self) -> float:
        """Fraction of probes that hit, machine-wide since last reset."""
        return self.core.perf.ratio("softcache.hits", "softcache.probes")


class DirectMappedCache(SoftwareCache):
    """Each main-memory line maps to exactly one slot."""

    KIND = "direct"

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        span = self.line_size * self.num_lines
        ls = self.core.local_store
        assert ls is not None
        #: What generated code binds to serve hits inline: (tags, dirty,
        #: line shift, slot mask, span mask, hit tally, line storage,
        #: where a resident address sits at ``address & span_mask``).
        #: Testing the first byte's slot against the last byte's line
        #: sends line-spanning accesses to the methods too, given two
        #: slots and lines as wide as the widest scalar.  A store hit
        #: marks its line in ``_dirty``; a write-through cache serves
        #: nothing inline.
        self.inline_view = NO_INLINE
        if self.num_lines > 1 and self.line_size >= 8 and not (
            self.write_through
        ):
            self.inline_view = (
                self._tags, self._dirty, self._line_shift,
                self.num_lines - 1, span - 1, self._inline_hits,
                memoryview(ls._data)[self.local_base:self.local_base + span],
            )

    def _candidate_slots(self, line_number: int) -> list[int]:
        return [line_number % self.num_lines]

    def _victim_slot(self, line_number: int) -> int:
        return line_number % self.num_lines

    def _resident_slot(self, line_number: int) -> int | None:
        # Single candidate: no list allocation on the probe fast path
        # (num_lines is a power of two, so % is a mask).
        slot = line_number & (self.num_lines - 1)
        if self._tags[slot] == line_number:
            return slot
        return None


class SetAssociativeCache(SoftwareCache):
    """N-way set associative with LRU replacement within a set."""

    KIND = "setassoc"
    TRACKS_RECENCY = True

    def __init__(self, *args: object, ways: int = 4, **kwargs: object):
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        if ways <= 0 or self.num_lines % ways:
            raise ValueError(
                f"ways ({ways}) must divide num_lines ({self.num_lines})"
            )
        self.ways = ways
        self.num_sets = self.num_lines // ways

    def _set_slots(self, line_number: int) -> list[int]:
        set_index = line_number % self.num_sets
        return [set_index * self.ways + way for way in range(self.ways)]

    def _candidate_slots(self, line_number: int) -> list[int]:
        return self._set_slots(line_number)

    def _resident_slot(self, line_number: int) -> int | None:
        first = line_number % self.num_sets * self.ways
        try:
            return self._tags.index(line_number, first, first + self.ways)
        except ValueError:
            return None

    def _victim_slot(self, line_number: int) -> int:
        slots = self._set_slots(line_number)
        for slot in slots:
            if self._tags[slot] is None:
                return slot
        return min(slots, key=self._last_used.__getitem__)  # type: ignore[union-attr]


class VictimCache(DirectMappedCache):
    """Direct-mapped with a small fully associative victim buffer.

    The last ``victim_slots`` slots of line storage act as the victim
    buffer; lines evicted from the direct-mapped region move there
    instead of being dropped, so alternating accesses to two conflicting
    lines stop thrashing main memory.  Generated code never serves its
    hits inline (it tests for the exact :class:`DirectMappedCache` type).
    """

    KIND = "victim"
    TRACKS_RECENCY = True

    def __init__(self, *args: object, victim_slots: int = 4, **kwargs: object):
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        if not 0 < victim_slots < self.num_lines:
            raise ValueError(
                f"victim_slots ({victim_slots}) must be in 1.."
                f"{self.num_lines - 1}"
            )
        self.victim_slots = victim_slots
        self.primary_lines = self.num_lines - victim_slots

    def _primary_slot(self, line_number: int) -> int:
        return line_number % self.primary_lines

    def _victim_range(self) -> range:
        return range(self.primary_lines, self.num_lines)

    def _candidate_slots(self, line_number: int) -> list[int]:
        return [self._primary_slot(line_number), *self._victim_range()]

    def _victim_slot(self, line_number: int) -> int:
        return self._primary_slot(line_number)

    # Not the direct-mapped fast path: the primary region is modulo
    # primary_lines (not a power of two) and the victim buffer must be
    # searched too.
    _resident_slot = SoftwareCache._resident_slot

    def _prepare_victim(self, line_number: int, now: int) -> tuple[int, int]:
        # Evict from the primary slot, but first move its current
        # occupant into the victim buffer (displacing the LRU victim,
        # which is written back if dirty *before* it is overwritten).
        primary = self._primary_slot(line_number)
        tags = self._tags
        if tags[primary] is not None:
            dest = min(
                self._victim_range(),
                key=self._last_used.__getitem__,  # type: ignore[union-attr]
            )
            if tags[dest] is not None:
                trace = self._trace
                if trace.enabled:
                    trace.emit(
                        now, self._trace_track, EV_CACHE_EVICT,
                        (tags[dest] * self.line_size,),  # type: ignore[operator]
                    )
                if self._dirty[dest] is not None:
                    now = self._writeback(dest, now)
            self._move_line(primary, dest)
        return primary, now

    def _move_line(self, src_slot: int, dest_slot: int) -> None:
        ls = self.core.local_store
        assert ls is not None
        size = self.line_size
        data = ls.read_unchecked(self.local_base + src_slot * size, size)
        ls.write_unchecked(self.local_base + dest_slot * size, data)
        tags, dirty = self._tags, self._dirty
        tags[dest_slot], dirty[dest_slot] = tags[src_slot], dirty[src_slot]
        self._last_used[dest_slot] = self._last_used[src_slot]  # type: ignore[index]
        tags[src_slot] = None
        dirty[src_slot] = None
        self.core.perf.add("softcache.victim_moves")


#: Implementation of each kind in the shared
#: :data:`repro.runtime.cachekinds.SOFT_CACHE_KINDS` registry.
CACHE_CLASSES: dict[str, type] = {
    "direct": DirectMappedCache,
    "setassoc": SetAssociativeCache,
    "victim": VictimCache,
}
assert tuple(CACHE_CLASSES) == SOFT_CACHE_KINDS, (
    "softcache implementations out of sync with the cache-kind registry"
)


def make_cache(
    kind: str,
    core: AcceleratorCore,
    local_base: int,
    line_size: int = 128,
    num_lines: int = 64,
    **kwargs: object,
) -> SoftwareCache:
    """Construct a cache by name: ``direct``, ``setassoc`` or ``victim``.

    This is the programmer-facing selection knob the paper describes:
    "The programmer must decide, based on profiling, which cache is most
    suitable for a given offload."
    """
    if kind not in CACHE_CLASSES:
        raise ValueError(
            f"unknown cache kind {kind!r}; choose from "
            f"{sorted(CACHE_CLASSES)}"
        )
    return CACHE_CLASSES[kind](core, local_base, line_size, num_lines, **kwargs)
