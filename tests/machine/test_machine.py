"""Unit tests for machine assembly and configurations."""

import os

import pytest

from repro.errors import MachineError
from repro.machine.config import (
    CELL_LIKE,
    DSP_WORD,
    MANYCORE_GRID,
    SMP_UNIFORM,
    CostModel,
    MachineConfig,
)
from repro.machine.machine import Machine


class TestConfigs:
    def test_cell_has_local_stores_and_dma(self):
        machine = Machine(CELL_LIKE)
        acc = machine.accelerator(0)
        assert acc.local_store is not None
        assert acc.local_store.size == 256 * 1024
        assert acc.dma is not None

    def test_smp_accelerators_share_memory(self):
        machine = Machine(SMP_UNIFORM)
        acc = machine.accelerator(0)
        assert acc.shared_memory
        assert acc.local_store is None
        assert acc.dma is None

    def test_dsp_memory_is_word_granular(self):
        machine = Machine(DSP_WORD)
        assert machine.main_memory.granularity == 4
        acc = machine.accelerator(0)
        assert acc.local_store is not None
        assert acc.local_store.granularity == 4

    def test_with_override(self):
        config = CELL_LIKE.with_(num_accelerators=2)
        assert config.num_accelerators == 2
        assert config.local_store_size == CELL_LIKE.local_store_size
        assert Machine(config).accelerators[0].name == "acc0"

    def test_custom_cost_model(self):
        config = MachineConfig(name="t", cost=CostModel(dma_latency=999))
        assert Machine(config).accelerator(0).cost.dma_latency == 999


class TestMachine:
    def test_accelerator_index_bounds(self):
        machine = Machine(CELL_LIKE)
        with pytest.raises(MachineError):
            machine.accelerator(99)

    def test_all_components_share_perf(self):
        machine = Machine(CELL_LIKE)
        machine.accelerator(0).perf.add("x")
        assert machine.perf.get("x") == 1

    def test_total_cycles_is_max_over_cores(self):
        machine = Machine(CELL_LIKE)
        machine.host.clock.sync_to(100)
        machine.accelerator(2).clock.sync_to(500)
        assert machine.total_cycles() == 500

    def test_heap_allocations_are_disjoint(self):
        machine = Machine(CELL_LIKE)
        a = machine.heap.allocate(1000)
        b = machine.heap.allocate(1000)
        assert abs(b - a) >= 1000


def _spaces(machine):
    yield machine.main_memory
    for acc in machine.accelerators:
        if acc.local_store is not None:
            yield acc.local_store


class TestOsZeroedMemory:
    def test_fresh_spaces_read_zero_at_first_middle_last_byte(self):
        for space in _spaces(Machine(CELL_LIKE)):
            for address in (0, space.size // 2, space.size - 1):
                assert space.read_unchecked(address, 1) == b"\x00"

    def test_two_machines_never_alias(self):
        first, second = Machine(CELL_LIKE), Machine(CELL_LIKE)
        for space in _spaces(first):
            space.write_unchecked(space.size - 4, b"\xde\xad\xbe\xef")
        for space in _spaces(second):
            assert space.read_unchecked(space.size - 4, 4) == bytes(4)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps"
    )
    def test_build_and_drop_leaves_map_count_flat(self):
        def map_count():
            with open("/proc/self/maps") as maps:
                return sum(1 for _ in maps)

        Machine(MANYCORE_GRID)  # warm allocator arenas before counting
        before = map_count()
        for _ in range(2000):
            Machine(MANYCORE_GRID).main_memory.write_unchecked(0, b"\x01")
        assert map_count() <= before + 8
