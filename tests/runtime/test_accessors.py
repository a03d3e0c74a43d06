"""Unit tests for accessor classes (Array, Direct, Stream)."""

import pytest

from repro.errors import MachineError
from repro.machine.config import CELL_LIKE, SMP_UNIFORM
from repro.machine.machine import Machine
from repro.machine.memory import scalar_codec
from repro.runtime.accessors import (
    ArrayAccessor,
    DirectAccessor,
    StreamAccessor,
    make_array_accessor,
)


@pytest.fixture
def cell():
    return Machine(CELL_LIKE)


@pytest.fixture
def acc(cell):
    return cell.accelerator(0)


_U32 = scalar_codec(4, False, False)


def load_u32(memory, address):
    return _U32.unpack(memory.read(address, 4))[0]


def store_u32(memory, address, value):
    memory.write(address, _U32.pack(value))


def fill(machine, base, count, element_size=4):
    for index in range(count):
        store_u32(machine.main_memory, base + index * element_size, index * 10)


class TestArrayAccessor:
    def test_bulk_get_stages_all_elements(self, cell, acc):
        fill(cell, 0x1000, 8)
        accessor = ArrayAccessor(acc, 0x1000, 4, 8, 0x100, now=0)
        for index in range(8):
            data, _ = accessor.read(index, accessor.ready_time)
            assert int.from_bytes(data, "little") == index * 10

    def test_single_transfer_beats_per_element(self, cell, acc):
        """The Section 4.2 claim: one bulk transfer replaces N round trips."""
        fill(cell, 0x1000, 16)
        accessor = ArrayAccessor(acc, 0x1000, 4, 16, 0x100, now=0)
        bulk_time = accessor.ready_time
        per_element = 0
        acc2 = Machine(CELL_LIKE).accelerator(0)
        for index in range(16):
            t = acc2.dma.get(1, 0x100, 0x1000 + index * 4, 4, per_element)
            per_element = acc2.dma.wait(1, t)
        assert bulk_time < per_element / 4

    def test_element_reads_cost_local_access(self, cell, acc):
        fill(cell, 0x1000, 4)
        accessor = ArrayAccessor(acc, 0x1000, 4, 4, 0x100, now=0)
        _, after = accessor.read(0, accessor.ready_time)
        assert after - accessor.ready_time == acc.cost.local_access

    def test_write_and_put_back(self, cell, acc):
        fill(cell, 0x1000, 4)
        accessor = ArrayAccessor(acc, 0x1000, 4, 4, 0x100, now=0, writeback=True)
        now = accessor.write(2, (999).to_bytes(4, "little"), accessor.ready_time)
        accessor.put_back(now)
        assert load_u32(cell.main_memory, 0x1000 + 8) == 999

    def test_writes_invisible_before_put_back(self, cell, acc):
        fill(cell, 0x1000, 4)
        accessor = ArrayAccessor(acc, 0x1000, 4, 4, 0x100, now=0, writeback=True)
        accessor.write(0, (999).to_bytes(4, "little"), accessor.ready_time)
        assert load_u32(cell.main_memory, 0x1000) == 0

    def test_index_bounds_checked(self, cell, acc):
        accessor = ArrayAccessor(acc, 0x1000, 4, 4, 0x100, now=0)
        with pytest.raises(IndexError):
            accessor.read(4, 0)

    def test_wrong_element_size_rejected(self, cell, acc):
        accessor = ArrayAccessor(acc, 0x1000, 4, 4, 0x100, now=0)
        with pytest.raises(ValueError):
            accessor.write(0, b"toolong-", 0)

    def test_requires_local_store(self):
        host = Machine(CELL_LIKE).host
        with pytest.raises((MachineError, AttributeError)):
            ArrayAccessor(host, 0x1000, 4, 4, 0x100, now=0)  # type: ignore[arg-type]


class TestDirectAccessor:
    def test_construction_is_free(self):
        machine = Machine(SMP_UNIFORM)
        accessor = DirectAccessor(machine.host, 0x1000, 4, 8, now=42)
        assert accessor.ready_time == 42

    def test_reads_hit_main_memory_directly(self):
        machine = Machine(SMP_UNIFORM)
        store_u32(machine.main_memory, 0x1000, 777)
        accessor = DirectAccessor(machine.host, 0x1000, 4, 8, now=0)
        data, after = accessor.read(0, 0)
        assert int.from_bytes(data, "little") == 777
        assert after == machine.host.cost.host_mem_access

    def test_writes_visible_immediately(self):
        machine = Machine(SMP_UNIFORM)
        accessor = DirectAccessor(machine.host, 0x1000, 4, 8, now=0)
        accessor.write(1, (5).to_bytes(4, "little"), 0)
        assert load_u32(machine.main_memory, 0x1004) == 5

    def test_put_back_is_noop(self):
        machine = Machine(SMP_UNIFORM)
        accessor = DirectAccessor(machine.host, 0x1000, 4, 8, now=0)
        assert accessor.put_back(17) == 17


class TestFactory:
    def test_cell_accelerator_gets_bulk_accessor(self, cell, acc):
        accessor = make_array_accessor(acc, 0x1000, 4, 4, now=0, local_addr=0x100)
        assert isinstance(accessor, ArrayAccessor)

    def test_host_gets_direct_accessor(self, cell):
        accessor = make_array_accessor(cell.host, 0x1000, 4, 4, now=0)
        assert isinstance(accessor, DirectAccessor)

    def test_smp_accelerator_gets_direct_accessor(self):
        machine = Machine(SMP_UNIFORM)
        accessor = make_array_accessor(
            machine.accelerator(0), 0x1000, 4, 4, now=0
        )
        assert isinstance(accessor, DirectAccessor)


class TestStreamAccessor:
    def _stream(self, acc, count=64, chunk=16, depth=2, writeback=False):
        return StreamAccessor(
            acc,
            outer_addr=0x1000,
            element_size=4,
            count=count,
            local_addr=0x100,
            chunk_elements=chunk,
            depth=depth,
            writeback=writeback,
        )

    def test_chunk_count(self, acc):
        stream = self._stream(acc, count=50, chunk=16)
        assert stream.num_chunks == 4

    def test_acquire_delivers_correct_data(self, cell, acc):
        fill(cell, 0x1000, 64)
        stream = self._stream(acc)
        now = 0
        seen = []
        for chunk in range(stream.num_chunks):
            local, count, now = stream.acquire(chunk, now)
            for index in range(count):
                seen.append(
                    load_u32(acc.local_store, local + index * 4)
                )
        assert seen == [i * 10 for i in range(64)]

    def test_last_chunk_may_be_short(self, cell, acc):
        fill(cell, 0x1000, 20)
        stream = self._stream(acc, count=20, chunk=16)
        _, count0, now = stream.acquire(0, 0)
        _, count1, _ = stream.acquire(1, now)
        assert (count0, count1) == (16, 4)

    def test_double_buffering_hides_latency(self, cell, acc):
        """depth=2 overlaps the next chunk's transfer with compute."""
        compute_per_chunk = 400

        def run(depth):
            machine = Machine(CELL_LIKE)
            fill(machine, 0x1000, 64)
            core = machine.accelerator(0)
            stream = StreamAccessor(
                core, 0x1000, 4, 64, 0x100, chunk_elements=16, depth=depth
            )
            now = 0
            for chunk in range(stream.num_chunks):
                _, _, now = stream.acquire(chunk, now)
                now += compute_per_chunk
            return stream.drain(now)

        assert run(2) < run(1)

    def test_writeback_round_trip(self, cell, acc):
        fill(cell, 0x1000, 32)
        stream = self._stream(acc, count=32, writeback=True)
        now = 0
        for chunk in range(stream.num_chunks):
            local, count, now = stream.acquire(chunk, now)
            for index in range(count):
                address = local + index * 4
                value = load_u32(acc.local_store, address)
                store_u32(acc.local_store, address, value + 1)
            now = stream.release(chunk, now)
        stream.drain(now)
        for index in range(32):
            assert load_u32(cell.main_memory, 0x1000 + index * 4) == index * 10 + 1

    def test_bad_depth_rejected(self, acc):
        with pytest.raises(ValueError):
            self._stream(acc, depth=0)

    def test_chunk_bounds_checked(self, acc):
        stream = self._stream(acc)
        with pytest.raises(IndexError):
            stream.acquire(99, 0)
