"""Unit tests for the tagged DMA engine."""

import pytest

from repro.errors import DmaError
from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine


@pytest.fixture
def acc():
    machine = Machine(CELL_LIKE)
    return machine.accelerator(0)


class TestTransfers:
    def test_get_moves_data_into_local_store(self, acc):
        acc.main_memory.write_unchecked(0x1000, b"abcdefgh")
        t = acc.dma.get(1, 0x10, 0x1000, 8, 0)
        acc.dma.wait(1, t)
        assert acc.local_store.read_unchecked(0x10, 8) == b"abcdefgh"

    def test_put_moves_data_into_main_memory(self, acc):
        acc.local_store.write_unchecked(0x20, b"payload!")
        t = acc.dma.put(2, 0x20, 0x2000, 8, 0)
        acc.dma.wait(2, t)
        assert acc.main_memory.read_unchecked(0x2000, 8) == b"payload!"

    def test_issue_cost_is_setup_only(self, acc):
        resume = acc.dma.get(1, 0, 0x1000, 64, 100)
        assert resume == 100 + acc.cost.dma_setup

    def test_wait_charges_latency_and_bandwidth(self, acc):
        t = acc.dma.get(1, 0, 0x1000, 64, 0)
        done = acc.dma.wait(1, t)
        expected_transfer = -(-64 // acc.cost.dma_bytes_per_cycle)
        assert done >= acc.cost.dma_latency + expected_transfer

    def test_wait_for_completed_transfer_is_cheap(self, acc):
        t = acc.dma.get(1, 0, 0x1000, 8, 0)
        acc.dma.wait(1, t)
        much_later = 1_000_000
        assert acc.dma.wait(1, much_later) == much_later


class TestTagSemantics:
    def test_parallel_gets_same_tag_overlap_latency(self, acc):
        """The Figure 1 idiom: two gets under one tag beat two fenced
        gets because latencies overlap."""
        t = acc.dma.get(1, 0x000, 0x1000, 128, 0)
        t = acc.dma.get(1, 0x100, 0x2000, 128, t)
        parallel_done = acc.dma.wait(1, t)

        acc2 = Machine(CELL_LIKE).accelerator(0)
        t = acc2.dma.get(1, 0x000, 0x1000, 128, 0)
        t = acc2.dma.wait(1, t)
        t = acc2.dma.get(1, 0x100, 0x2000, 128, t)
        serial_done = acc2.dma.wait(1, t)
        assert parallel_done < serial_done

    def test_wait_only_clears_matching_tag(self, acc):
        acc.dma.get(1, 0x000, 0x1000, 8, 0)
        acc.dma.get(2, 0x100, 0x2000, 8, 0)
        acc.dma.wait(1, 40)
        remaining = acc.dma._in_flight
        assert len(remaining) == 1
        assert remaining[0].tag == 2

    def test_wait_all_clears_everything(self, acc):
        acc.dma.get(1, 0x000, 0x1000, 8, 0)
        acc.dma.get(2, 0x100, 0x2000, 8, 0)
        acc.dma.wait_all(40)
        assert acc.dma._in_flight == []

    def test_bandwidth_serialises_across_tags(self, acc):
        """Different tags still share the one data channel."""
        t1 = acc.dma.get(1, 0x000, 0x1000, 4096, 0)
        acc.dma.get(2, 0x2000, 0x3000, 4096, t1)
        done1 = acc.dma.wait(1, t1)
        done2 = acc.dma.wait(2, t1)
        transfer = -(-4096 // acc.cost.dma_bytes_per_cycle)
        assert done2 >= done1 + transfer


class TestValidation:
    def test_bad_tag_rejected(self, acc):
        with pytest.raises(DmaError):
            acc.dma.get(32, 0, 0x1000, 8, 0)

    def test_negative_tag_rejected(self, acc):
        with pytest.raises(DmaError):
            acc.dma.wait(-1, 0)

    def test_zero_size_rejected(self, acc):
        with pytest.raises(DmaError):
            acc.dma.get(1, 0, 0x1000, 0, 0)

    def test_local_range_out_of_bounds(self, acc):
        with pytest.raises(DmaError):
            acc.dma.get(1, acc.local_store.size - 4, 0x1000, 8, 0)

    def test_outer_range_out_of_bounds(self, acc):
        with pytest.raises(DmaError):
            acc.dma.put(1, 0, acc.main_memory.size - 4, 8, 0)


class TestLocalConflictTracking:
    def test_pending_get_conflict_detected(self, acc):
        acc.dma.get(1, 0x100, 0x1000, 64, 0)
        conflict = acc.dma.pending_local_conflict(0x120, 4)
        assert conflict is not None
        assert conflict.kind == "get"

    def test_no_conflict_outside_range(self, acc):
        acc.dma.get(1, 0x100, 0x1000, 64, 0)
        assert acc.dma.pending_local_conflict(0x200, 4) is None

    def test_no_conflict_after_wait(self, acc):
        t = acc.dma.get(1, 0x100, 0x1000, 64, 0)
        acc.dma.wait(1, t)
        assert acc.dma.pending_local_conflict(0x120, 4) is None

    def test_puts_do_not_conflict_with_local_reads(self, acc):
        acc.dma.put(1, 0x100, 0x1000, 64, 0)
        assert acc.dma.pending_local_conflict(0x120, 4) is None


class TestPerfAccounting:
    def test_bytes_counted(self, acc):
        t = acc.dma.get(1, 0, 0x1000, 100, 0)
        acc.dma.wait(1, t)
        t = acc.dma.put(1, 0, 0x1000, 50, t)
        acc.dma.wait(1, t)
        assert acc.perf.get("dma.bytes_get") == 100
        assert acc.perf.get("dma.bytes_put") == 50
        assert acc.perf.get("dma.gets") == 1
        assert acc.perf.get("dma.puts") == 1

class TestSerials:
    def test_serials_are_per_engine_and_start_at_one(self):
        machine = Machine(CELL_LIKE)
        first = machine.accelerator(0)
        second = machine.accelerator(1)
        first.dma.get(0, 0, 0x1000, 16, 0)
        first.dma.get(0, 0, 0x1000, 16, 0)
        second.dma.get(0, 0, 0x1000, 16, 0)
        assert [r.serial for r in first.dma._in_flight] == [1, 2]
        assert [r.serial for r in second.dma._in_flight] == [1]

    def test_serials_reproducible_across_machines(self):
        """Serials must not depend on how many machines ran earlier in
        the process (they used to come from a module-global counter)."""

        def issue(machine):
            dma = machine.accelerator(0).dma
            dma.get(2, 0, 0x2000, 32, 0)
            dma.put(3, 0, 0x3000, 32, 0)
            return [r.serial for r in dma._in_flight]

        assert issue(Machine(CELL_LIKE)) == issue(Machine(CELL_LIKE))
