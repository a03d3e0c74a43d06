"""Unit tests for simulated memory spaces and the bump allocator."""

import pytest

from repro.errors import MemoryFault
from repro.machine.memory import BumpAllocator, MemorySpace, scalar_codec


class TestMemorySpaceBasics:
    def test_round_trip_bytes(self):
        memory = MemorySpace("m", 1024)
        memory.write(10, b"hello")
        assert memory.read(10, 5) == b"hello"

    def test_fresh_memory_is_zeroed(self):
        memory = MemorySpace("m", 64)
        assert memory.read(0, 64) == bytes(64)

    def test_out_of_bounds_read_raises(self):
        memory = MemorySpace("m", 16)
        with pytest.raises(MemoryFault):
            memory.read(12, 8)

    def test_negative_address_raises(self):
        memory = MemorySpace("m", 16)
        with pytest.raises(MemoryFault):
            memory.read(-1, 1)

    def test_write_at_exact_end_boundary(self):
        memory = MemorySpace("m", 16)
        memory.write(12, b"abcd")  # exactly fills to the end
        assert memory.read(12, 4) == b"abcd"

    def test_write_past_end_raises(self):
        memory = MemorySpace("m", 16)
        with pytest.raises(MemoryFault):
            memory.write(13, b"abcd")

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            MemorySpace("m", 0)

    def test_read_returns_a_copy(self):
        memory = MemorySpace("m", 8)
        before = memory.read(0, 8)
        memory.write(0, b"\xff")
        assert before == bytes(8)

    def test_fault_carries_space_and_address(self):
        memory = MemorySpace("main", 16)
        with pytest.raises(MemoryFault) as excinfo:
            memory.read(100, 1)
        assert excinfo.value.space == "main"
        assert excinfo.value.address == 100


class TestScalarAccess:
    """Scalars travel as ``read``/``write`` bytes through the codecs the
    engines use (:func:`scalar_codec`)."""

    def test_uint_round_trip(self):
        memory = MemorySpace("m", 64)
        codec = scalar_codec(4, False, False)
        memory.write(0, codec.pack(0xDEADBEEF))
        assert codec.unpack(memory.read(0, 4))[0] == 0xDEADBEEF

    def test_signed_load_sign_extends(self):
        memory = MemorySpace("m", 64)
        memory.write(0, scalar_codec(4, False, False).pack(0xFFFFFFFF))
        assert scalar_codec(4, True, False).unpack(memory.read(0, 4))[0] == -1

    def test_f32_round_trip(self):
        memory = MemorySpace("m", 64)
        codec = scalar_codec(4, True, True)
        memory.write(8, codec.pack(1.5))
        assert codec.unpack(memory.read(8, 4))[0] == 1.5

    def test_f64_round_trip(self):
        memory = MemorySpace("m", 64)
        codec = scalar_codec(8, True, True)
        memory.write(8, codec.pack(3.141592653589793))
        assert codec.unpack(memory.read(8, 8))[0] == 3.141592653589793

    def test_little_endian_layout(self):
        memory = MemorySpace("m", 64)
        memory.write(0, scalar_codec(4, False, False).pack(0x01020304))
        assert memory.read(0, 4) == bytes([0x04, 0x03, 0x02, 0x01])

    def test_no_codec_for_odd_widths(self):
        assert scalar_codec(3, False, False) is None


class TestWordGranularity:
    def test_word_aligned_access_allowed(self):
        memory = MemorySpace("m", 64, granularity=4)
        memory.write(8, b"abcd")
        assert memory.read(8, 4) == b"abcd"

    def test_sub_word_size_rejected(self):
        memory = MemorySpace("m", 64, granularity=4)
        with pytest.raises(MemoryFault):
            memory.read(0, 1)

    def test_misaligned_word_rejected(self):
        memory = MemorySpace("m", 64, granularity=4)
        with pytest.raises(MemoryFault):
            memory.write(2, b"abcd")

    def test_unchecked_access_bypasses_granularity(self):
        # The DMA engine moves arbitrary byte ranges.
        memory = MemorySpace("m", 64, granularity=4)
        memory.write_unchecked(1, b"x")
        assert memory.read_unchecked(1, 1) == b"x"

    def test_unchecked_still_bounds_checked(self):
        memory = MemorySpace("m", 16, granularity=4)
        with pytest.raises(MemoryFault):
            memory.read_unchecked(15, 4)


class TestBumpAllocator:
    def test_sequential_allocations_do_not_overlap(self):
        alloc = BumpAllocator(0, 1024)
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        assert b >= a + 100

    def test_alignment_respected(self):
        alloc = BumpAllocator(0, 1024, alignment=16)
        alloc.allocate(3)
        b = alloc.allocate(8)
        assert b % 16 == 0

    def test_explicit_alignment_overrides_default(self):
        alloc = BumpAllocator(0, 1024, alignment=4)
        alloc.allocate(1)
        b = alloc.allocate(8, alignment=64)
        assert b % 64 == 0

    def test_exhaustion_raises(self):
        alloc = BumpAllocator(0, 128)
        alloc.allocate(100)
        with pytest.raises(MemoryFault):
            alloc.allocate(100)

    def test_used_tracks_consumption(self):
        alloc = BumpAllocator(0, 1024, alignment=1)
        alloc.allocate(100)
        assert alloc.used == 100

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            BumpAllocator(100, 50)
