"""Performance counters.

Every layer of the simulator (memory, DMA, interpreter, software caches,
dispatch machinery) increments named counters here.  Benchmarks read them
to report the quantities the paper talks about: virtual calls per frame,
bytes moved between memory spaces, domain search steps, cache hit rates.

A :class:`PerfCounters` bag holds one :class:`CounterSlot` per counter
name for the machine's life: :meth:`~PerfCounters.slot` returns the same
slot every time, :meth:`~PerfCounters.add` bumps it by name, and hot
paths bind it once and bump ``slot.count`` in place.  A
:class:`PackedSlot` stands for several counters: each event adds one
:func:`packed_weight` of 48-bit fields, and every read folds what the
fields gained into the named slots.  A snapshot lists a name once its
count is non-zero or once :meth:`~PerfCounters.add` has named it.
"""

from __future__ import annotations

from typing import Iterator

#: Bits per :class:`PackedSlot` field; no run comes near 2**48 events.
_FIELD = 48
_FIELD_MASK = (1 << _FIELD) - 1


def packed_weight(*amounts: int) -> int:
    """What one event adds to a :class:`PackedSlot` count: ``amounts[i]``
    in field ``i``, low field first."""
    return sum(amount << _FIELD * field for field, amount in enumerate(amounts))


class CounterSlot:
    """The accumulator of one counter name: hot paths bump ``count``."""

    __slots__ = ("name", "count")

    def __init__(self, name: str):
        self.name = name
        self.count = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, count={self.count})"


class PackedSlot(CounterSlot):
    """Several counters in one growing ``count``: field ``i`` feeds every
    counter named in ``fields[i]``."""

    __slots__ = ("fields", "_targets", "_folded", "taken")

    def __init__(self, name: str, fields: tuple, perf: "PerfCounters"):
        super().__init__(name)
        self.fields = fields
        self._targets = tuple(tuple(map(perf.slot, group)) for group in fields)
        self._folded = 0
        #: ``count`` at the previous :meth:`take`.
        self.taken = 0

    def _fold(self) -> None:
        """Add what each field gained since the last fold to its slots."""
        delta, self._folded = self.count - self._folded, self.count
        for targets in self._targets:
            for slot in targets:
                slot.count += delta & _FIELD_MASK
            delta >>= _FIELD

    def take(self, name: str) -> int:
        """How much the fields feeding ``name`` gained since the previous
        take."""
        delta, self.taken = self.count - self.taken, self.count
        return sum(
            delta >> _FIELD * field & _FIELD_MASK
            for field, group in enumerate(self.fields) if name in group
        )


class PerfCounters:
    """A bag of named monotonically increasing counters."""

    def __init__(self) -> None:
        #: Counter name -> its one slot.
        self._slots: dict[str, CounterSlot] = {}
        #: Packed-slot name -> its one slot, folded into ``_slots`` on read.
        self._packed: dict[str, PackedSlot] = {}
        #: The slots :meth:`add` has named; listed even while 0.
        self._added: dict[str, CounterSlot] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        assert amount >= 0, f"counter increments must be >= 0, got {amount}"
        slot = self._added.get(name)
        if slot is None:
            slot = self._added[name] = self.slot(name)
        slot.count += amount

    def slot(self, name: str, fields: tuple = ()) -> CounterSlot:
        """The one slot of counter ``name``, created at the first ask.

        With ``fields`` (a tuple of counter-name tuples, low field first)
        it is the :class:`PackedSlot` ``name``, which appears in no
        snapshot itself.
        """
        registry = self._packed if fields else self._slots
        slot = registry.get(name)
        if slot is None:
            slot = registry[name] = (
                PackedSlot(name, fields, self) if fields else CounterSlot(name)
            )
        return slot

    def _fold(self) -> dict[str, CounterSlot]:
        for packed in self._packed.values():
            packed._fold()
        return self._slots

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        slot = self._fold().get(name)
        return 0 if slot is None else slot.count

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot, sorted by counter name."""
        added = self._added
        return {
            name: slot.count
            for name, slot in sorted(self._fold().items())
            if slot.count or name in added
        }

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` as a float; 0.0 when undefined."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.as_dict().items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"PerfCounters({inner})"
