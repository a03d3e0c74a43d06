"""Unit tests for static data layout (globals, vtables, function ids)."""

import struct
import time

import pytest

from repro.compiler.driver import analyze_source, compile_program
from repro.compiler.layout import DATA_BASE, FIRST_FUNCTION_ID, compute_layout
from repro.errors import CompileError
from repro.machine.config import resolve_target, target_names
from repro.tools import check as check_tool
from repro.tools import run as run_tool


def layout_for(source):
    info = analyze_source(source)
    return info, compute_layout(info)


MAIN = "void main() { }"


class TestFunctionIds:
    def test_every_function_gets_unique_id(self):
        _, layout = layout_for(
            "int f() { return 1; } class C { void m() { } };" + MAIN
        )
        ids = list(layout.function_ids)
        assert len(ids) == len(set(ids))
        assert set(layout.function_ids.values()) == {"f", "C::m", "main"}

    def test_ids_start_at_base(self):
        _, layout = layout_for(MAIN)
        assert min(layout.function_ids) == FIRST_FUNCTION_ID

    def test_assignment_is_deterministic(self):
        src = "int b() { return 1; } int a() { return 2; }" + MAIN
        _, first = layout_for(src)
        _, second = layout_for(src)
        assert first.fid_by_name == second.fid_by_name


class TestVtables:
    def test_vtable_only_for_polymorphic_classes(self):
        _, layout = layout_for(
            "struct Plain { int x; }; class Poly { virtual void f() { } };"
            + MAIN
        )
        assert "Poly" in layout.vtables
        assert "Plain" not in layout.vtables

    def test_vtable_slots_contain_function_ids(self):
        info, layout = layout_for(
            """
            class A { virtual void f() { } virtual void g() { } };
            class B : A { virtual void f() { } };
            """
            + MAIN
        )
        image = dict()
        for address, data in layout.init_image:
            image[address] = data
        a_table = image[layout.vtables["A"]]
        b_table = image[layout.vtables["B"]]
        a_slots = struct.unpack("<2I", a_table)
        b_slots = struct.unpack("<2I", b_table)
        assert a_slots[0] == layout.fid_by_name["A::f"]
        assert b_slots[0] == layout.fid_by_name["B::f"]
        assert b_slots[1] == layout.fid_by_name["A::g"]  # inherited


class TestGlobals:
    def test_globals_placed_after_vtables(self):
        _, layout = layout_for(
            "class A { virtual void f() { } }; int g;" + MAIN
        )
        assert layout.globals["g"].address > layout.vtables["A"]

    def test_globals_do_not_overlap(self):
        _, layout = layout_for("int a; float b; char c; int d[10];" + MAIN)
        slots = sorted(layout.globals.values(), key=lambda s: s.address)
        for first, second in zip(slots, slots[1:]):
            assert first.address + first.size <= second.address

    def test_natural_alignment(self):
        _, layout = layout_for("char c; int n;" + MAIN)
        assert layout.globals["n"].address % 4 == 0

    def test_scalar_initialiser_in_image(self):
        _, layout = layout_for("int g = 77;" + MAIN)
        address = layout.globals["g"].address
        image = {a: d for a, d in layout.init_image}
        assert image[address] == (77).to_bytes(4, "little")

    def test_float_initialiser_in_image(self):
        _, layout = layout_for("float g = 1.5f;" + MAIN)
        address = layout.globals["g"].address
        image = {a: d for a, d in layout.init_image}
        assert struct.unpack("<f", image[address])[0] == 1.5

    def test_global_object_gets_vptr(self):
        _, layout = layout_for(
            "class A { virtual void f() { } }; A g_obj;" + MAIN
        )
        address = layout.globals["g_obj"].address
        image = {a: d for a, d in layout.init_image}
        assert struct.unpack("<I", image[address])[0] == layout.vtables["A"]

    def test_array_of_objects_gets_vptr_per_element(self):
        info, layout = layout_for(
            "class A { int n; virtual void f() { } }; A pool[3];" + MAIN
        )
        size = info.classes["A"].size()
        base = layout.globals["pool"].address
        image = {a: d for a, d in layout.init_image}
        for index in range(3):
            assert base + index * size in image

    def test_data_base_leaves_null_guard(self):
        _, layout = layout_for("int g;" + MAIN)
        assert layout.globals["g"].address >= DATA_BASE

    def test_word_alignment_honoured(self):
        info = analyze_source("char c; char d;" + MAIN)
        layout = compute_layout(info, word_align=4)
        assert layout.globals["c"].address % 4 == 0
        assert layout.globals["d"].address % 4 == 0

    def test_nested_array_of_objects_gets_vptr_per_element(self):
        info, layout = layout_for(
            "class A { int n; virtual void f() { } }; A grid[2][3];" + MAIN
        )
        size = info.classes["A"].size()
        base = layout.globals["grid"].address
        image = {a: d for a, d in layout.init_image}
        vptrs = sorted(a for a in image if a >= base)
        assert vptrs == [base + index * size for index in range(6)]

    def test_scalar_array_adds_nothing_to_the_image(self):
        _, layout = layout_for("int g[4000][4000];" + MAIN)
        assert layout.init_image == []


#: Static data far beyond any target's data region, and twice the 4 MiB
#: data region of the default main memory.
OVERSIZED = {
    "huge": "int g[2000000000];\nvoid main() { g[1] = 2; }\n",
    "big": "int g[2000000];\nvoid main() { g[1] = 2; }\n",
}


class TestOversizedStaticData:
    """Static data that cannot load below the heap fails at compile
    time, at once, with the loader's own words."""

    @pytest.mark.parametrize("target", target_names())
    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_compile_fails_at_once(self, name, target):
        start = time.perf_counter()
        with pytest.raises(CompileError) as caught:
            compile_program(OVERSIZED[name], target)
        assert time.perf_counter() - start < 0.1
        (diagnostic,) = caught.value.diagnostics
        assert diagnostic.code == "E-static-data"
        heap_base = resolve_target(target).heap_base
        assert diagnostic.message.startswith("program static data (")
        assert f"heap/stack region starting at {heap_base:#x}" in (
            diagnostic.message
        )

    @pytest.mark.parametrize("target", target_names())
    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    @pytest.mark.parametrize("tool", (run_tool, check_tool))
    def test_clis_print_one_error_line(
        self, tmp_path, capsys, tool, name, target
    ):
        path = tmp_path / "program.om"
        path.write_text(OVERSIZED[name])
        assert tool.main([str(path), "--target", target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error[E-static-data]: program static data")

    def test_data_that_fits_still_compiles(self):
        config = resolve_target("cell")
        count = (config.heap_base - DATA_BASE) // 4
        program = compile_program(
            f"int g[{count}];\nvoid main() {{ g[1] = 2; }}\n", config
        )
        assert program.data_end <= config.heap_base
