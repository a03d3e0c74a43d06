"""Tests for the Section 5 indexed-addressing scheme.

Covers the paper's exact legality examples, the hybrid lowering of
constant-offset byte accesses, and the emulate-mode baseline.
"""

import pytest

from repro.compiler.driver import CompileOptions, compile_program
from repro.compiler import wordaddr
from repro.errors import CompileError
from repro.game.sources import word_illegal_sources, word_struct_source
from repro.machine.config import CELL_LIKE, DSP_WORD
from repro.machine.machine import Machine
from repro.vm.interpreter import run_program
from tests.conftest import error_codes


def expect_word_error(source, code):
    with pytest.raises(CompileError) as excinfo:
        compile_program(source, DSP_WORD)
    assert code in error_codes(excinfo.value), excinfo.value.diagnostics[0].code


class TestPaperExamples:
    """The literal examples from Section 5 of the paper."""

    def test_word_step_is_legal(self):
        sources = word_illegal_sources()
        compile_program(sources["legal_word_step"], DSP_WORD)

    def test_byte_offset_into_plain_pointer_is_illegal(self):
        sources = word_illegal_sources()
        with pytest.raises(CompileError) as excinfo:
            compile_program(sources["illegal_byte_into_word"], DSP_WORD)
        assert "E-word-assign" in error_codes(excinfo.value)

    def test_byte_qualified_destination_is_legal(self):
        sources = word_illegal_sources()
        compile_program(sources["legal_byte_qualified"], DSP_WORD)

    def test_variable_byte_arithmetic_is_illegal(self):
        sources = word_illegal_sources()
        with pytest.raises(CompileError) as excinfo:
            compile_program(sources["illegal_variable_byte_arith"], DSP_WORD)
        assert "E-word-arith" in error_codes(excinfo.value)

    def test_all_examples_compile_on_byte_addressed_target(self):
        """The same sources are fine where memory is byte-addressed —
        the attributes are inert, preserving portability."""
        for source in word_illegal_sources().values():
            compile_program(source, CELL_LIKE)

    def test_struct_byte_fields_via_constant_offsets(self):
        """`p->a = p->b` — the most common use-case, compiled with
        constant extracts."""
        source = """
        struct T { char a; char b; char c; char d; };
        T g_t;
        void main() {
            T* p = &g_t;
            p->b = (char)42;
            p->a = p->b;
            print_int(p->a);
        }
        """
        program = compile_program(source, DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        assert result.printed == [42]


class TestHybridLowering:
    def test_word_multiple_stride_with_variable_index(self):
        """Element size divisible by the word size keeps variable
        indexing legal (every step lands on a word boundary)."""
        program = compile_program(word_struct_source(8), DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        # packet 1: a=b=0, c=value+1=1, d=1, value = 0 + a + d = 1
        assert result.printed == [1]
        assert result.perf().get("word.extracts", 0) > 0

    def test_int_array_variable_index_legal(self):
        source = """
        int g[8];
        void main() {
            for (int i = 0; i < 8; i++) { g[i] = i * 2; }
            print_int(g[5]);
        }
        """
        program = compile_program(source, DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        assert result.printed == [10]

    def test_aligned_int_access_needs_no_extracts(self):
        source = """
        int g[4];
        void main() {
            g[0] = 7;
            print_int(g[0]);
        }
        """
        program = compile_program(source, DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        assert result.perf().get("word.extracts", 0) == 0

    def test_dynamic_byte_pointer_deref_works_but_costs(self):
        source = """
        struct T { char a; char b; char c; char d; };
        T g_t;
        void main() {
            g_t.b = (char)9;
            char __byte * q = (char*)&g_t + 1;
            print_int(*q);
        }
        """
        program = compile_program(source, DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        assert result.printed == [9]

    def test_sub_word_stores_preserve_neighbours(self):
        """Read-modify-write of the containing word must not clobber
        the other bytes."""
        source = """
        struct T { char a; char b; char c; char d; };
        T g_t;
        void main() {
            g_t.a = (char)1;
            g_t.b = (char)2;
            g_t.c = (char)3;
            g_t.d = (char)4;
            g_t.b = (char)9;
            print_int(g_t.a);
            print_int(g_t.b);
            print_int(g_t.c);
            print_int(g_t.d);
        }
        """
        program = compile_program(source, DSP_WORD)
        result = run_program(program, Machine(DSP_WORD))
        assert result.printed == [1, 9, 3, 4]


class TestEmulateMode:
    def test_emulate_compiles_the_illegal_source(self):
        """Byte-pointer emulation accepts everything..."""
        sources = word_illegal_sources()
        options = CompileOptions(wordaddr_mode="emulate")
        compile_program(sources["illegal_byte_into_word"], DSP_WORD, options)
        compile_program(
            sources["illegal_variable_byte_arith"], DSP_WORD, options
        )

    def test_emulate_costs_more_than_hybrid(self):
        """...but pays for every sub-word access — the paper's
        "unacceptable performance hit"."""
        source = word_struct_source(16)
        hybrid = run_program(
            compile_program(source, DSP_WORD), Machine(DSP_WORD)
        )
        emulate = run_program(
            compile_program(
                source, DSP_WORD, CompileOptions(wordaddr_mode="emulate")
            ),
            Machine(DSP_WORD),
        )
        assert emulate.printed == hybrid.printed
        assert emulate.cycles > hybrid.cycles

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            CompileOptions(wordaddr_mode="turbo")


class TestAddrKindCalculus:
    """Pure unit tests of the wordaddr helper functions."""

    def test_word_plus_word_multiple_stays_word(self):
        assert wordaddr.add_offset("word", 8, 4, None, "t") == "word"

    def test_word_plus_one_becomes_const_offset(self):
        assert wordaddr.add_offset("word", 1, 4, None, "t") == 1

    def test_const_offsets_accumulate_mod_word(self):
        assert wordaddr.add_offset(3, 1, 4, None, "t") == "word"
        assert wordaddr.add_offset(3, 2, 4, None, "t") == 1

    def test_dynamic_absorbs_everything(self):
        assert wordaddr.add_offset("dynamic", 1, 4, None, "t") == "dynamic"

    def test_unknown_delta_raises(self):
        with pytest.raises(CompileError):
            wordaddr.add_offset("word", None, 4, None, "t")

    def test_scaled_delta_constant_index(self):
        assert wordaddr.scaled_delta(3, 2, 4) == 6

    def test_scaled_delta_variable_word_multiple(self):
        assert wordaddr.scaled_delta(8, None, 4) == 0

    def test_scaled_delta_variable_sub_word(self):
        assert wordaddr.scaled_delta(3, None, 4) is None

    def test_deref_plans(self):
        assert wordaddr.deref_plan("word", 4, 4) == "direct"
        assert wordaddr.deref_plan("word", 1, 4) == "const-extract"
        assert wordaddr.deref_plan(1, 1, 4) == "const-extract"
        assert wordaddr.deref_plan(3, 2, 4) == "dynamic-extract"  # straddles
        assert wordaddr.deref_plan("dynamic", 1, 4) == "dynamic-extract"
