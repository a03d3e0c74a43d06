"""Unit tests for core clocks and performance counters."""

import gc

import pytest

from repro.machine.clock import CoreClock
from repro.machine.perf import PerfCounters


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


def live_slots(perf):
    return [slot for ref in perf._slots if (slot := ref()) is not None]


class TestSlotLifetime:
    """The counter bag must not leak dead slots (regression: the
    registry used to keep a strong reference to every slot ever
    created, so long-lived machines re-flushed an ever-growing list)."""

    def test_dead_slot_pruned_from_registry(self):
        perf = PerfCounters()
        keep = perf.slot("kept")
        dead = perf.slot("dropped")
        dead.count += 1
        del dead
        gc.collect()
        perf.flush()
        assert live_slots(perf) == [keep]

    def test_dead_slot_count_preserved(self):
        # The finalizer folds any pending count into the totals, so
        # dropping a slot mid-batch loses nothing.
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
        perf.flush()
        assert len(live_slots(perf)) == 0
        assert len(perf._slots) == 0
        assert perf.get("churn") == 100
