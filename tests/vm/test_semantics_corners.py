"""Semantics corner cases: signedness, narrowing, float edges, memory
layout guards."""

import math

import pytest

from repro import CELL_LIKE, Machine, MachineError, compile_program, run_program
from repro.errors import CompileError
from tests.conftest import printed, run_source


class TestSignedness:
    def test_char_is_signed(self):
        assert printed(
            "void main() { char c = (char)200; print_int(c < 0); }"
        ) == [1]

    def test_char_round_trips_through_memory(self):
        assert printed(
            """
            char g;
            void main() {
                g = (char)200;
                print_int(g);
            }
            """
        ) == [200 - 256]

    def test_uint_comparison_uses_unsigned_order(self):
        assert printed(
            """
            void main() {
                uint big = 0;
                big -= 1;           // 0xFFFFFFFF
                uint small = 1;
                print_int(big > small);
            }
            """
        ) == [1]

    def test_unsigned_right_shift_zero_fills(self):
        assert printed(
            """
            void main() {
                uint v = 0;
                v -= 1;
                print_int((int)(v >> 31));
            }
            """
        ) == [1]

    def test_signed_right_shift_sign_extends(self):
        assert printed("void main() { print_int(-8 >> 1); }") == [-4]

    def test_bool_normalises_to_zero_one(self):
        assert printed(
            "void main() { bool b = 7; print_int(b); }"
        ) == [1]


class TestFloatEdges:
    def test_float_division_by_zero_gives_infinity(self):
        result = run_source(
            "void main() { float z = 0.0f; print_float(1.0f / z); }"
        )
        assert math.isinf(result.printed[0])

    def test_float_precision_is_binary32(self):
        # 0.1f is not exactly 0.1 in binary32 when stored to memory.
        result = run_source(
            """
            float g;
            void main() { g = 0.1f; print_float(g); }
            """
        )
        import struct

        expected = struct.unpack("<f", struct.pack("<f", 0.1))[0]
        assert result.printed == [expected]

    def test_cast_of_nan_to_int_is_zero(self):
        assert printed(
            """
            void main() {
                float z = 0.0f;
                float nan = z / z;
                print_int((int)nan);
            }
            """
        ) == [0]

    def test_negative_sqrt_is_nan(self):
        result = run_source(
            "void main() { print_float(sqrtf(0.0f - 4.0f)); }"
        )
        assert math.isnan(result.printed[0])


class TestNarrowing:
    def test_implicit_char_narrowing_on_assignment(self):
        assert printed(
            "void main() { char c = 0; c = (char)(300); print_int(c); }"
        ) == [44]

    def test_char_arithmetic_promotes_to_int(self):
        assert printed(
            "void main() { char a = 100; char b = 100; print_int(a + b); }"
        ) == [200]

    def test_pointer_to_int_cast_round_trip(self):
        assert printed(
            """
            int g = 5;
            void main() {
                int raw = (int)&g;
                int* back = (int*)raw;
                print_int(*back);
            }
            """
        ) == [5]


class TestLayoutGuards:
    GIANT = """
        int g_huge[2000000];   // 8 MB > the 4 MB static region
        void main() { g_huge[0] = 1; }
        """

    def test_giant_globals_rejected_at_load(self):
        # Compiled for a machine they fit, loaded on one they do not:
        # the loader still checks what it is handed.
        roomy = CELL_LIKE.with_(main_memory_size=64 * 1024 * 1024)
        program = compile_program(self.GIANT, roomy)
        with pytest.raises(MachineError) as excinfo:
            run_program(program, Machine(CELL_LIKE))
        assert "main_memory_size" in str(excinfo.value)

    def test_giant_globals_rejected_at_compile(self):
        with pytest.raises(CompileError) as excinfo:
            compile_program(self.GIANT, CELL_LIKE)
        assert "main_memory_size" in str(excinfo.value)

    def test_bigger_machine_accepts_them(self):
        source = """
        int g_huge[2000000];
        void main() { g_huge[1999999] = 7; print_int(g_huge[1999999]); }
        """
        config = CELL_LIKE.with_(
            name="cell-big", main_memory_size=64 * 1024 * 1024
        )
        program = compile_program(source, config)
        result = run_program(program, Machine(config))
        assert result.printed == [7]
