"""Unit tests for core clocks and performance counters."""

import gc

import pytest

from repro.compiler.driver import compile_program
from repro.game.sources import figure2_source
from repro.machine.clock import CoreClock
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.machine.perf import PerfCounters
from repro.runtime.dispatch import DomainTable, InnerEntry
from repro.runtime.softcache import inline_hit_weight, make_cache
from repro.vm.interpreter import (
    ENGINE_NAMES,
    RunOptions,
    make_interpreter,
    run_program,
)


class TestCoreClock:
    def test_starts_at_zero(self):
        assert CoreClock().now == 0

    def test_sync_to_future_waits(self):
        clock = CoreClock(10)
        assert clock.sync_to(50) == 50

    def test_sync_to_past_is_free(self):
        clock = CoreClock(100)
        assert clock.sync_to(50) == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            CoreClock(-5)


class TestPerfCounters:
    def test_unset_counter_reads_zero(self):
        assert PerfCounters().get("nothing") == 0

    def test_add_accumulates(self):
        perf = PerfCounters()
        perf.add("hits")
        perf.add("hits", 4)
        assert perf.get("hits") == 5

    def test_negative_increment_rejected(self):
        # Hot-path invariant: checked by assert, so only under __debug__.
        with pytest.raises(AssertionError):
            PerfCounters().add("x", -1)

    def test_slot_batches_into_totals(self):
        perf = PerfCounters()
        slot = perf.slot("hits")
        slot.count += 3
        perf.add("hits", 2)
        # Reads drain pending slot counts, so both paths sum.
        assert perf.get("hits") == 5
        slot.count += 1
        assert perf.as_dict() == {"hits": 6}

    def test_slots_sharing_a_name_sum(self):
        perf = PerfCounters()
        a = perf.slot("n")
        b = perf.slot("n")
        a.count += 2
        b.count += 5
        assert perf.get("n") == 7

    def test_as_dict_includes_pending(self):
        perf = PerfCounters()
        perf.add("direct", 1)
        slot = perf.slot("batched")
        slot.count += 4
        assert perf.as_dict() == {"batched": 4, "direct": 1}

    def test_ratio(self):
        perf = PerfCounters()
        perf.add("hits", 3)
        perf.add("probes", 4)
        assert perf.ratio("hits", "probes") == pytest.approx(0.75)

    def test_ratio_with_zero_denominator(self):
        assert PerfCounters().ratio("a", "b") == 0.0

    def test_as_dict_sorted(self):
        perf = PerfCounters()
        perf.add("zebra")
        perf.add("alpha")
        assert list(perf.as_dict()) == ["alpha", "zebra"]

    def test_iteration_yields_pairs(self):
        perf = PerfCounters()
        perf.add("a", 2)
        assert list(perf) == [("a", 2)]


class TestSlotLifetime:
    """A long-lived counter bag must not grow with use: it interns one
    slot per counter name (regression: the registry used to keep a
    reference to every slot ever created, so long-lived machines
    re-flushed an ever-growing list)."""

    def test_dead_slot_pruned_from_registry(self):
        perf = PerfCounters()
        keep = perf.slot("kept")
        dead = perf.slot("dropped")
        dead.count += 1
        del dead
        gc.collect()
        assert sorted(perf._slots) == ["dropped", "kept"]
        assert perf.slot("kept") is keep
        assert perf.slot("dropped").count == 1

    def test_dead_slot_count_preserved(self):
        # Dropping the caller's reference mid-batch loses nothing.
        perf = PerfCounters()
        slot = perf.slot("hits")
        slot.count += 7
        del slot
        gc.collect()
        assert perf.get("hits") == 7

    def test_registry_does_not_grow_unbounded(self):
        perf = PerfCounters()
        for _ in range(100):
            slot = perf.slot("churn")
            slot.count += 1
            del slot
        gc.collect()
        assert list(perf._slots) == ["churn"]
        assert perf.get("churn") == 100

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_reused_machine_registry_stays_put(self, engine):
        program = compile_program(
            figure2_source(entity_count=8, pair_count=6, frames=1), CELL_LIKE
        )
        machine = Machine(CELL_LIKE)
        options = RunOptions(engine=engine)
        run_program(program, machine, options)
        once = machine.perf.as_dict()
        size = len(machine.perf._slots) + len(machine.perf._packed)
        for _ in range(19):
            run_program(program, machine, options)
        assert len(machine.perf._slots) + len(machine.perf._packed) == size
        assert machine.perf.as_dict() == {
            name: 20 * value for name, value in once.items()
        }


def inline_hits(machine):
    """A software cache's inline-hit slot, one hit's weight, and what
    one hit counts."""
    cache = make_cache("direct", machine.accelerator(0), 0x10000)
    return cache.inline_view[5], inline_hit_weight(4, False), {
        "outer.bytes_read": 4, "outer.loads": 1,
        "softcache.hits": 1, "softcache.probes": 1,
    }


def vcall_hits(machine):
    """An engine's inline virtual-call slot, one repeat call's weight,
    and what one repeat counts."""
    program = compile_program("void main() { }", CELL_LIKE)
    slot = make_interpreter(program, machine)._sc_vhits
    table = DomainTable()
    table.add(0x40, "A::f", [InnerEntry("a", "t")])
    table.add(0x80, "B::f", [InnerEntry("b", "t"), InnerEntry("a", "t")])
    table.lookup_entry(machine.accelerator(0), 0x80, "a", 0)
    return slot, table.hit_weight(0x80, "a"), {
        "dispatch.domain_hits": 1, "dispatch.domain_lookups": 1,
        "dispatch.inner_probes": 2, "dispatch.outer_probes": 2,
        "dispatch.vcalls": 1,
    }


READS = {
    "get": lambda perf, names: {name: perf.get(name) for name in names},
    "as_dict": lambda perf, names: perf.as_dict(),
    "ratio": lambda perf, names: {
        name: round(perf.ratio(name, "one")) for name in names
    },
    "iteration": lambda perf, names: dict(perf),
}


@pytest.mark.parametrize("packed", [inline_hits, vcall_hits])
class TestCounterNameContract:
    """Which names a snapshot lists, whatever route counted them."""

    def test_listed_names(self, packed):
        machine = Machine(CELL_LIKE)
        slot, _, _ = packed(machine)
        perf = machine.perf
        slot.count += 0
        snapshot = perf.as_dict()
        assert slot.name not in snapshot
        perf.slot("never.counted")
        perf.add("touched.once", 0)
        perf.slot("bumped.by.zero").count += 0
        assert perf.as_dict() == {**snapshot, "touched.once": 0}

    @pytest.mark.parametrize("read", sorted(READS))
    def test_packed_fields_fold_on_every_read(self, packed, read):
        machine = Machine(CELL_LIKE)
        slot, weight, counts = packed(machine)
        perf = machine.perf
        perf.add("one")
        before = perf.as_dict()
        slot.count += 3 * weight
        seen = READS[read](perf, counts)
        for name, amount in counts.items():
            assert seen[name] == before.get(name, 0) + 3 * amount
