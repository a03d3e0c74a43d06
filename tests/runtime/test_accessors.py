"""Unit tests for the stream accessor."""

import pytest

from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.ir.ops import SCALARS
from repro.runtime.accessors import StreamAccessor


@pytest.fixture
def cell():
    return Machine(CELL_LIKE)


@pytest.fixture
def acc(cell):
    return cell.accelerator(0)


_U32 = SCALARS[4, False, False].codec


def load_u32(memory, address):
    return _U32.unpack(memory.read(address, 4))[0]


def store_u32(memory, address, value):
    memory.write(address, _U32.pack(value))


def fill(machine, base, count, element_size=4):
    for index in range(count):
        store_u32(machine.main_memory, base + index * element_size, index * 10)


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
