"""Property-based tests for memory, DMA and cache invariants."""

from hypothesis import given, settings, strategies as st

from repro.machine.config import CELL_LIKE
from repro.machine.machine import Machine
from repro.ir.ops import SCALARS
from repro.machine.memory import MemorySpace
from repro.runtime.softcache import make_cache

MEM_SIZE = 4096


@st.composite
def writes(draw):
    address = draw(st.integers(min_value=0, max_value=MEM_SIZE - 64))
    data = draw(st.binary(min_size=1, max_size=64))
    return address, data


class TestMemoryProperties:
    @given(st.lists(writes(), max_size=20))
    def test_last_write_wins(self, operations):
        """Reading any byte returns the value of the last write to it."""
        memory = MemorySpace("m", MEM_SIZE)
        shadow = bytearray(MEM_SIZE)
        for address, data in operations:
            memory.write(address, data)
            shadow[address : address + len(data)] = data
        assert memory.read(0, MEM_SIZE) == bytes(shadow)

    @given(
        st.integers(min_value=0, max_value=MEM_SIZE - 8),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_int_round_trip(self, address, value):
        memory = MemorySpace("m", MEM_SIZE)
        memory.write(address, SCALARS[4, False, False].codec.pack(value & 0xFFFFFFFF))
        assert SCALARS[4, True, False].codec.unpack(memory.read(address, 4))[0] == value

    @given(
        st.integers(min_value=0, max_value=MEM_SIZE - 8),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_f32_round_trip(self, address, value):
        memory = MemorySpace("m", MEM_SIZE)
        codec = SCALARS[4, True, True].codec
        memory.write(address, codec.pack(value))
        assert codec.unpack(memory.read(address, 4))[0] == value


class TestDmaProperties:
    @given(
        st.integers(min_value=0, max_value=1024),
        st.integers(min_value=0, max_value=1024),
        st.binary(min_size=1, max_size=256),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=40)
    def test_get_put_round_trip(self, local_addr, outer_addr, data, tag):
        """get then put of the same range restores main memory."""
        machine = Machine(CELL_LIKE)
        acc = machine.accelerator(0)
        machine.main_memory.write_unchecked(outer_addr, data)
        t = acc.dma.get(tag, local_addr, outer_addr, len(data), 0)
        t = acc.dma.wait(tag, t)
        assert acc.local_store.read_unchecked(local_addr, len(data)) == data
        t = acc.dma.put(tag, local_addr, outer_addr, len(data), t)
        acc.dma.wait(tag, t)
        assert machine.main_memory.read_unchecked(outer_addr, len(data)) == data

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_completion_times_monotone_in_issue_order(self, sizes):
        """The DMA channel serialises bandwidth: completion times of
        back-to-back transfers are strictly increasing."""
        machine = Machine(CELL_LIKE)
        acc = machine.accelerator(0)
        now = 0
        for index, size in enumerate(sizes):
            now = acc.dma.get(index % 8, 0, 2048, size, now)
        completions = [r.complete_time for r in acc.dma.in_flight]
        assert completions == sorted(completions)
        assert len(set(completions)) == len(completions)


class TestCacheProperties:
    @st.composite
    def cache_ops(draw):
        kind = draw(st.sampled_from(["load", "store"]))
        address = draw(st.integers(min_value=0, max_value=2000))
        if kind == "store":
            data = draw(st.binary(min_size=1, max_size=32))
            return ("store", address, data)
        size = draw(st.integers(min_value=1, max_value=32))
        return ("load", address, size)

    @given(
        st.sampled_from(["direct", "setassoc", "victim"]),
        st.lists(cache_ops(), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_cache_is_transparent(self, kind, operations):
        """Any mix of cached loads/stores, followed by a flush, leaves
        main memory exactly as uncached writes would — for every cache
        organisation."""
        machine = Machine(CELL_LIKE)
        acc = machine.accelerator(0)
        cache = make_cache(kind, acc, 0x10000, line_size=64, num_lines=8)
        main = machine.main_memory
        shadow = bytearray(main.read(0, main.size))
        now = 0
        for operation in operations:
            if operation[0] == "store":
                _, address, data = operation
                now = cache.store(address, data, now)
                shadow[address : address + len(data)] = data
            else:
                _, address, size = operation
                data, now = cache.load(address, size, now)
                assert data == bytes(shadow[address : address + size])
        cache.flush(now)
        assert main.read(0, main.size) == bytes(shadow)

    @given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_time_never_goes_backwards(self, addresses):
        machine = Machine(CELL_LIKE)
        cache = make_cache("direct", machine.accelerator(0), 0x10000)
        now = 0
        for address in addresses:
            _, new_now = cache.load(address, 4, now)
            assert new_now >= now
            now = new_now
