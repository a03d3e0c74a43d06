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

from repro.errors import MissingDuplicateError
from repro.machine.cores import Core
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

    def add(
        self, host_address: int, method_name: str, entries: list[InnerEntry]
    ) -> None:
        """Register a virtual method and its compiled duplicates."""
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

    def lookup_entry(
        self, core: Core, host_address: int, duplicate_id: str, now: int
    ) -> tuple[InnerEntry, int]:
        """Resolve a dynamic call on ``core``; returns (entry, time).

        Charges one ``domain_probe`` per outer-domain comparison and one
        ``inner_domain_probe`` per inner-row entry examined, so the cost
        of dispatch grows with annotation-set size — the effect that made
        the Section 4.1 restructuring worthwhile.
        """
        cost = core.cost
        perf = core.perf
        trace = core.trace
        start = now
        perf.add("dispatch.domain_lookups")
        outer_probes = 0
        for index, address in enumerate(self.outer):
            now += cost.domain_probe
            outer_probes += 1
            perf.add("dispatch.outer_probes")
            if address != host_address:
                continue
            inner_probes = 0
            for entry in self.inner[index]:
                now += cost.inner_domain_probe
                inner_probes += 1
                perf.add("dispatch.inner_probes")
                if entry.duplicate_id == duplicate_id:
                    perf.add("dispatch.domain_hits")
                    if trace.enabled:
                        trace.emit(
                            start, core.name, EV_DISPATCH_HIT,
                            (outer_probes, inner_probes, now,
                             self.method_names[index]),
                        )
                    return entry, now
            perf.add("dispatch.missing_duplicates")
            if trace.enabled:
                trace.emit(
                    start, core.name, EV_DISPATCH_MISS,
                    (outer_probes, inner_probes, now, duplicate_id),
                )
            raise MissingDuplicateError(
                self.method_names[index],
                duplicate_id,
                [e.duplicate_id for e in self.inner[index]],
            )
        perf.add("dispatch.missing_duplicates")
        if trace.enabled:
            trace.emit(
                start, core.name, EV_DISPATCH_MISS,
                (outer_probes, 0, now, duplicate_id),
            )
        raise MissingDuplicateError(
            f"<host function @{host_address:#x}>",
            duplicate_id,
            [],
        )

    def lookup(
        self, core: Core, host_address: int, duplicate_id: str, now: int
    ) -> tuple[object, int]:
        """Like :meth:`lookup_entry` but returns the target directly."""
        entry, now = self.lookup_entry(core, host_address, duplicate_id, now)
        return entry.target, now
