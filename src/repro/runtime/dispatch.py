"""Virtual dispatch across memory spaces: the Figure 3 machinery.

On a single-memory-space machine, ``obj->f(...)`` is a vtable load plus
an indirect call.  On a machine whose accelerator cores run a different
instruction set and own private local stores, the *host* function address
found in a vtable is useless to an accelerator; instead, after the vtable
lookup the Offload runtime performs a two-stage *domain* lookup:

1. The **outer domain** is an array of known host virtual-function
   addresses.  A linear search determines whether any duplicate of the
   routine is present in local store; the matching index carries over to
   stage 2.
2. The **inner domain** row at that index lists the duplicates that were
   actually compiled — ``(duplicate id, local function address)`` pairs,
   where the id is compiler-generated metadata describing the memory-space
   combination of the arguments.  Overloads are selectively compiled, so
   there is no guarantee a full set is present.

A lookup that fails at either stage raises
:class:`repro.errors.MissingDuplicateError`, whose message tells the
programmer which method to add to the offload's ``domain`` annotation —
exactly the diagnostic behaviour the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MissingDuplicateError
from repro.machine.cores import Core
from repro.machine.perf import packed_weight
from repro.obs.trace import EV_DISPATCH_HIT, EV_DISPATCH_MISS


@dataclass(frozen=True)
class InnerEntry:
    """One compiled duplicate: (memory-space signature id, local target).

    ``target`` is whatever the execution engine uses to name a compiled
    accelerator function — the IR interpreter uses mangled function
    names; unit tests use plain strings.

    ``demand`` marks a duplicate that is *not* annotated by the
    programmer but was compiled for on-demand code loading (the
    "elaboration" Section 4.1 sketches): the first dispatch to it on a
    given accelerator pays a code-upload cost.
    """

    duplicate_id: str
    target: object
    demand: bool = False


#: The counters every lookup feeds, in the order of a slot bundle.
_COUNTERS = (
    "dispatch.domain_lookups", "dispatch.outer_probes",
    "dispatch.inner_probes", "dispatch.domain_hits",
    "dispatch.missing_duplicates",
)

#: The fields of the inline virtual-call hit
#: :class:`~repro.machine.perf.PackedSlot`, low first: what one call that
#: hits counts.
HIT_FIELDS = tuple((name,) for name in ("dispatch.vcalls", *_COUNTERS[:4]))


@dataclass
class DomainTable:
    """The paired outer/inner domains for one offload block.

    Attributes:
        outer: Host function addresses (vtable slot values) with a
            compiled presence in local store.  ``outer[i]`` corresponds
            to ``inner[i]``.
        inner: One row of :class:`InnerEntry` per outer entry.
        method_names: Human-readable method name per entry, used only
            for diagnostics (the paper's "information which the
            programmer can use").
    """

    outer: list[int] = field(default_factory=list)
    inner: list[list[InnerEntry]] = field(default_factory=list)
    method_names: list[str] = field(default_factory=list)
    #: Successful searches: (host address, duplicate id) -> (entry,
    #: index, outer probes, inner probes).  A repeat call charges the
    #: same probes without repeating the search; ``add`` clears it.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    #: The counter bag the slots below feed, and those slots.
    _perf: object = field(default=None, init=False, repr=False,
                          compare=False)
    _slots: tuple = field(default=(), init=False, repr=False, compare=False)
    #: How many times :meth:`add` has changed the table.
    generation: int = field(default=0, init=False, repr=False, compare=False)

    def add(
        self, host_address: int, method_name: str, entries: list[InnerEntry]
    ) -> None:
        """Register a virtual method and its compiled duplicates."""
        self._memo.clear()
        self.generation += 1
        if host_address in self.outer:
            index = self.outer.index(host_address)
            self.inner[index].extend(entries)
            return
        self.outer.append(host_address)
        self.inner.append(list(entries))
        self.method_names.append(method_name)

    def __len__(self) -> int:
        return len(self.outer)

    # ------------------------------------------------------------- lookup

    def _search(
        self, host_address: int, duplicate_id: str
    ) -> tuple[Optional[InnerEntry], Optional[int], int, int]:
        """The two-stage linear search: (entry or None, outer index or
        None, outer probes, inner probes).  Hits are memoised."""
        for index, address in enumerate(self.outer):
            if address != host_address:
                continue
            row = self.inner[index]
            for inner_probes, entry in enumerate(row, 1):
                if entry.duplicate_id == duplicate_id:
                    found = (entry, index, index + 1, inner_probes)
                    self._memo[host_address, duplicate_id] = found
                    return found
            return None, index, index + 1, len(row)
        return None, None, len(self.outer), 0

    def hit_weight(self, host_address: int, duplicate_id: str) -> int:
        """What a repeat of this successful lookup adds to the
        :data:`HIT_FIELDS` slot: one call, lookup and hit, and its probes."""
        _, _, outer, inner = self._memo[host_address, duplicate_id]
        return packed_weight(1, 1, outer, inner, 1)

    def lookup_entry(
        self, core: Core, host_address: int, duplicate_id: str, now: int
    ) -> tuple[InnerEntry, int]:
        """Resolve a dynamic call on ``core``; returns (entry, time).

        Charges one ``domain_probe`` per outer-domain comparison and one
        ``inner_domain_probe`` per inner-row entry examined, so the cost
        of dispatch grows with annotation-set size — the effect that made
        the Section 4.1 restructuring worthwhile.  A repeat of a
        successful lookup charges and counts the same probes from the
        memo; a failing one searches again.
        """
        start = now
        found = self._memo.get((host_address, duplicate_id))
        if found is None:
            found = self._search(host_address, duplicate_id)
        entry, index, outer_probes, inner_probes = found
        cost = core.cost
        now += (
            outer_probes * cost.domain_probe
            + inner_probes * cost.inner_domain_probe
        )
        perf = core.perf
        if perf is not self._perf:
            self._perf = perf
            self._slots = tuple(perf.slot(name) for name in _COUNTERS)
        lookups, outer, inner, hits, missing = self._slots
        lookups.count += 1
        outer.count += outer_probes
        inner.count += inner_probes
        trace = core.trace
        if entry is not None:
            hits.count += 1
            if trace.enabled:
                trace.emit(
                    start, core.name, EV_DISPATCH_HIT,
                    (outer_probes, inner_probes, now,
                     self.method_names[index]),  # type: ignore[index]
                )
            return entry, now
        missing.count += 1
        if trace.enabled:
            trace.emit(
                start, core.name, EV_DISPATCH_MISS,
                (outer_probes, inner_probes, now, duplicate_id),
            )
        if index is None:
            method, known = f"<host function @{host_address:#x}>", []
        else:
            method = self.method_names[index]
            known = [e.duplicate_id for e in self.inner[index]]
        raise MissingDuplicateError(method, duplicate_id, known)

    def lookup(
        self, core: Core, host_address: int, duplicate_id: str, now: int
    ) -> tuple[object, int]:
        """Like :meth:`lookup_entry` but returns the target directly."""
        entry, now = self.lookup_entry(core, host_address, duplicate_id, now)
        return entry.target, now
