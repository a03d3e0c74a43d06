"""Unit tests for the DMA engine's dynamic race checks."""

import pytest

from repro.compiler.driver import compile_program
from repro.errors import DmaRaceError
from repro.machine.config import APU_UNIFIED, CELL_LIKE
from repro.machine.machine import Machine
from repro.vm.interpreter import ENGINE_NAMES, RunOptions, run_program


@pytest.fixture
def acc():
    return Machine(CELL_LIKE).accelerator(0)


def attach(acc, mode="raise"):
    acc.dma.racecheck = mode
    return acc.dma


class TestConflictRules:
    def test_get_get_outer_overlap_is_safe(self, acc):
        """The Figure 1 idiom: two reads of main memory may overlap."""
        attach(acc)
        acc.dma.get(1, 0x000, 0x1000, 64, 0)
        acc.dma.get(1, 0x100, 0x1020, 64, 0)  # outer ranges overlap: fine

    def test_put_put_outer_overlap_races(self, acc):
        attach(acc)
        acc.dma.put(1, 0x000, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.put(2, 0x100, 0x1020, 64, 0)

    def test_get_put_outer_overlap_races(self, acc):
        attach(acc)
        acc.dma.get(1, 0x000, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.put(2, 0x100, 0x1020, 64, 0)

    def test_put_get_outer_overlap_races(self, acc):
        attach(acc)
        acc.dma.put(1, 0x000, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.get(2, 0x100, 0x1020, 64, 0)

    def test_same_tag_still_races(self, acc):
        """Tags group completion; they do not order transfers."""
        attach(acc)
        acc.dma.put(3, 0x000, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.put(3, 0x100, 0x1000, 64, 0)

    def test_disjoint_outer_ranges_are_safe(self, acc):
        attach(acc)
        acc.dma.put(1, 0x000, 0x1000, 64, 0)
        acc.dma.put(2, 0x100, 0x2000, 64, 0)

    def test_get_get_local_overlap_races(self, acc):
        """Two gets writing the same local buffer conflict."""
        attach(acc)
        acc.dma.get(1, 0x100, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.get(2, 0x120, 0x2000, 64, 0)

    def test_get_then_put_of_same_local_races(self, acc):
        """A put reading a local buffer an in-flight get is writing."""
        attach(acc)
        acc.dma.get(1, 0x100, 0x1000, 64, 0)
        with pytest.raises(DmaRaceError):
            acc.dma.put(2, 0x100, 0x2000, 64, 0)

    def test_put_put_from_same_local_is_safe(self, acc):
        """Two puts reading the same local bytes to disjoint outer
        destinations only read the local store."""
        attach(acc)
        acc.dma.put(1, 0x100, 0x1000, 64, 0)
        acc.dma.put(2, 0x100, 0x2000, 64, 0)

    def test_wait_clears_conflicts(self, acc):
        attach(acc)
        t = acc.dma.put(1, 0x000, 0x1000, 64, 0)
        t = acc.dma.wait(1, t)
        acc.dma.put(2, 0x000, 0x1000, 64, t)  # no race after the fence


class TestRecordMode:
    def test_records_instead_of_raising(self, acc):
        checker = attach(acc, mode="record")
        acc.dma.put(1, 0x000, 0x1000, 64, 0)
        acc.dma.put(2, 0x100, 0x1000, 64, 0)
        assert len(checker.races) == 1
        record = checker.races[0]
        assert record.location == "outer"
        assert "dma_put" in record.describe()

    def test_bad_mode_rejected(self):
        """Rejected when the options are built, also for a target whose
        accelerators have no DMA engine to check anything."""
        with pytest.raises(ValueError, match="racecheck.*'explode'"):
            RunOptions(racecheck="explode", target=APU_UNIFIED.name)


RACY_SOURCE = """
int g_data[8];
void main() {
    __offload {
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = i; }
        dma_put(&a[0], &g_data[0], 32, 1);
        dma_put(&a[0], &g_data[4], 32, 2);  // overlaps in outer
        dma_wait(1);
        dma_wait(2);
    };
}
"""


class TestRunsOnOneMachine:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_each_run_reports_only_its_own_races(self, engine):
        """The mode and the records belong to one run: a later run on
        the same machine neither inherits the earlier run's races nor
        keeps checking once its own mode is None."""
        program = compile_program(RACY_SOURCE, CELL_LIKE)
        machine = Machine(CELL_LIKE)
        counts = [
            len(
                run_program(
                    program, machine, RunOptions(racecheck=mode, engine=engine)
                ).races
            )
            for mode in ("record", "record", None)
        ]
        assert counts == [1, 1, 0]
