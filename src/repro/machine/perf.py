"""Performance counters.

Every layer of the simulator (memory, DMA, interpreter, software caches,
dispatch machinery) increments named counters here.  Benchmarks read them
to report the quantities the paper talks about: virtual calls per frame,
bytes moved between memory spaces, domain search steps, cache hit rates.

Two APIs share one set of totals:

* :meth:`PerfCounters.add` — the direct path; one dict update per call.
* :meth:`PerfCounters.slot` — the batched path for hot loops: a
  :class:`CounterSlot` is a named plain-int accumulator that callers
  bump with ``slot.count += 1`` (no method call, no hashing).  Slots are
  drained into the backing :class:`collections.Counter` lazily, on every
  read (:meth:`get`, :meth:`as_dict`, :meth:`ratio`, iteration), so
  readers always observe exact totals regardless of which path
  produced them.  A slot subclass may stand for several counters at
  once (:class:`repro.runtime.softcache.InlineHits`): it folds itself.

The counter bag holds its slots *weakly*: a slot whose owner dies (a
software cache torn down with its offload thread, an execution engine
discarded after a run) drains any pending count into the totals from
its finalizer and disappears from the registry on the next flush, so
long-lived machines do not accumulate — and forever re-flush — dead
accumulators.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Iterator, Optional


class CounterSlot:
    """A batched accumulator for one counter name.

    Hot paths increment :attr:`count` directly; the owning
    :class:`PerfCounters` folds the pending value into its totals at
    read/flush time — or, if the slot dies first, the finalizer folds
    the remainder so no increment is ever lost.
    """

    __slots__ = ("name", "count", "_owner", "__weakref__")

    def __init__(self, name: str, owner: "Optional[PerfCounters]" = None):
        self.name = name
        self.count = 0
        self._owner = owner

    def __del__(self) -> None:
        if self._owner is not None:
            self._fold(self._owner._counts)

    def _fold(self, counts: Counter[str]) -> None:
        """Move the pending count into ``counts``.  Subclasses whose
        count stands for several counters override this."""
        if self.count:
            counts[self.name] += self.count
            self.count = 0

    def __repr__(self) -> str:
        return f"CounterSlot(name={self.name!r}, pending={self.count})"


class PerfCounters:
    """A bag of named monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._slots: list[weakref.ref[CounterSlot]] = []

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        assert amount >= 0, f"counter increments must be >= 0, got {amount}"
        self._counts[name] += amount

    def slot(
        self, name: str, kind: "type[CounterSlot]" = CounterSlot
    ) -> CounterSlot:
        """Return a batched accumulator feeding counter ``name``.

        Multiple slots may share a name; their pending counts sum.  The
        registry reference is weak: the caller owns the slot's lifetime,
        and a dead slot stops being flushed (its last pending count is
        folded in by the finalizer).  ``kind`` is a
        :class:`CounterSlot` subclass with its own ``_fold``.
        """
        slot = kind(name, self)
        self._slots.append(weakref.ref(slot))
        return slot

    def flush(self) -> None:
        """Fold every live slot's pending count into the totals.

        Registry entries whose slot has died are pruned here.
        """
        dead = False
        counts = self._counts
        for ref in self._slots:
            slot = ref()
            if slot is None:
                dead = True
            else:
                slot._fold(counts)
        if dead:
            self._slots = [ref for ref in self._slots if ref() is not None]

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        self.flush()
        return self._counts[name]

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot, sorted by counter name."""
        self.flush()
        return dict(sorted(self._counts.items()))

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a float; 0.0 when undefined."""
        self.flush()
        denom = self._counts[denominator]
        if denom == 0:
            return 0.0
        return self._counts[numerator] / denom

    def __iter__(self) -> Iterator[tuple[str, int]]:
        self.flush()
        return iter(sorted(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"PerfCounters({inner})"
