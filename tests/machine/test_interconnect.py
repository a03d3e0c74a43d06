"""Tests for the shared-interconnect option (EIB/SCC-style bus)."""

import pytest

from repro.machine.config import CELL_LIKE
from repro.machine.interconnect import Interconnect
from repro.machine.machine import Machine
from repro.machine.perf import PerfCounters


class TestInterconnectUnit:
    def test_back_to_back_transfers_serialise(self):
        bus = Interconnect(8, PerfCounters())
        first = bus.reserve(0, 80)  # 10 cycles
        second = bus.reserve(0, 80)
        assert first == 10
        assert second == 20

    def test_idle_bus_adds_no_delay(self):
        bus = Interconnect(8, PerfCounters())
        bus.reserve(0, 80)
        assert bus.reserve(100, 80) == 110

    def test_contention_is_counted(self):
        perf = PerfCounters()
        bus = Interconnect(8, perf)
        bus.reserve(0, 800)
        bus.reserve(0, 8)
        assert perf.get("interconnect.contention_cycles") == 100

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            Interconnect(0, PerfCounters())


class TestMachineIntegration:
    SIZE = 16 * 1024

    def _stream_all(self, config):
        """Every accelerator issues one big get at time zero; returns
        the latest completion time."""
        machine = Machine(config)
        finish = 0
        for accelerator in machine.accelerators:
            t = accelerator.dma.get(1, 0, 0x10000, self.SIZE, 0)
            finish = max(finish, accelerator.dma.wait(1, t))
        return machine, finish

    def test_private_channels_overlap(self):
        machine, finish = self._stream_all(CELL_LIKE)
        single = (
            CELL_LIKE.cost.dma_latency
            + self.SIZE // CELL_LIKE.cost.dma_bytes_per_cycle
        )
        assert finish <= single + CELL_LIKE.cost.dma_setup

    def test_shared_bus_serialises(self):
        shared = CELL_LIKE.with_(shared_interconnect=True)
        machine, finish = self._stream_all(shared)
        transfer = self.SIZE // shared.cost.dma_bytes_per_cycle
        # Six transfers share one channel: ~6x one transfer time.
        assert finish >= shared.cost.dma_latency + 6 * transfer
        assert machine.perf.get("interconnect.contention_cycles") > 0

    def test_shared_bus_counts_bytes(self):
        shared = CELL_LIKE.with_(shared_interconnect=True)
        machine, _ = self._stream_all(shared)
        assert machine.perf.get("interconnect.bytes") == 6 * self.SIZE

    def test_functional_results_unchanged(self):
        """The bus changes timing only, never data."""
        from repro import compile_program, run_program
        from repro.game.sources import game_demo_source

        source = game_demo_source(
            entity_count=16, pair_count=8, particles=8, frames=1
        )
        shared_config = CELL_LIKE.with_(
            name="cell-shared-bus", shared_interconnect=True
        )
        private = run_program(
            compile_program(source, CELL_LIKE), Machine(CELL_LIKE)
        )
        shared = run_program(
            compile_program(source, shared_config), Machine(shared_config)
        )
        assert private.printed == shared.printed
        assert shared.cycles >= private.cycles
