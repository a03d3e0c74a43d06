"""Tests for automatic call-graph duplication and name mangling."""

from repro.compiler.driver import compile_program
from repro.machine.config import CELL_LIKE, SMP_UNIFORM


def compile_src(source, config=CELL_LIKE):
    return compile_program(source, config)


class TestHostInstances:
    def test_every_function_has_host_instance(self):
        program = compile_src(
            "int f() { return 1; } class C { int m() { return 2; } };"
            "void main() { }"
        )
        assert "f" in program.functions
        assert "C::m" in program.functions
        assert "main" in program.functions
        assert program.functions["f"].space == "host"


class TestAccelDuplication:
    SRC = """
    int g;
    int helper(int* p) { return *p + 1; }
    void main() {
        __offload {
            int local_v = 2;
            int a = helper(&g);        // outer pointer arg
            int b = helper(&local_v);  // local pointer arg
            g = a + b;
        };
    }
    """

    def test_duplicate_per_space_signature(self):
        program = compile_src(self.SRC)
        names = set(program.functions)
        assert "helper@0$O" in names
        assert "helper@0$L" in names
        assert "helper" in names  # host instance still present

    def test_duplicate_metadata(self):
        program = compile_src(self.SRC)
        dup = program.functions["helper@0$L"]
        assert dup.space == "accel"
        assert dup.duplicate_id == "L"
        assert dup.source_name == "helper"

    def test_entry_function_created(self):
        program = compile_src(self.SRC)
        assert "__offload_0" in program.functions
        assert program.functions["__offload_0"].space == "accel"

    def test_no_duplicates_on_shared_memory(self):
        program = compile_src(self.SRC, SMP_UNIFORM)
        assert not any("$" in name for name in program.functions)
        assert "__offload_0" in program.functions

    def test_transitive_duplication(self):
        program = compile_src(
            """
            int g;
            int inner(int* p) { return *p; }
            int outer_fn(int* p) { return inner(p); }
            void main() {
                __offload { g = outer_fn(&g); };
            }
            """
        )
        assert "outer_fn@0$O" in program.functions
        assert "inner@0$O" in program.functions

    def test_method_duplicates_include_this(self):
        program = compile_src(
            """
            class C { int n; int get() { return n; } };
            C g_c;
            void main() {
                __offload { int x = g_c.get(); g_c.n = x; };
            }
            """
        )
        assert "C::get@0$O" in program.functions

    def test_per_offload_duplication(self):
        """Each offload block compiles its own accelerator binary."""
        program = compile_src(
            """
            int g;
            int helper(int* p) { return *p; }
            void main() {
                __offload { g = helper(&g); };
                __offload { g = helper(&g); };
            }
            """
        )
        assert "helper@0$O" in program.functions
        assert "helper@1$O" in program.functions

    def test_same_signature_compiled_once(self):
        program = compile_src(
            """
            int g;
            int helper(int* p) { return *p; }
            void main() {
                __offload {
                    int a = helper(&g);
                    int b = helper(&g);
                    g = a + b;
                };
            }
            """
        )
        matching = [n for n in program.functions if n.startswith("helper@0")]
        assert matching == ["helper@0$O"]


class TestDomainTables:
    SRC = """
    class A { int n; virtual void f() { n = 1; } };
    class B : A { virtual void f() { n = 2; } };
    A g_a; B g_b;
    void main() {
        __offload [domain(A::f, B::f)] {
            A* p = &g_a;
            p->f();
        };
    }
    """

    def test_domain_lists_annotated_methods(self):
        program = compile_src(self.SRC)
        meta = program.offload_meta[0]
        assert meta.domain.method_names == ["A::f", "B::f"]
        assert meta.annotation_count == 2

    def test_outer_domain_holds_function_ids(self):
        program = compile_src(self.SRC)
        meta = program.offload_meta[0]
        fid_of = {name: fid for fid, name in program.function_ids.items()}
        assert meta.domain.outer == [fid_of["A::f"], fid_of["B::f"]]

    def test_inner_entries_point_at_duplicates(self):
        program = compile_src(self.SRC)
        meta = program.offload_meta[0]
        targets = [entry.target for row in meta.domain.inner for entry in row]
        assert "A::f@0$O" in targets
        assert "B::f@0$O" in targets
        assert all(t in program.functions for t in targets)

    def test_local_annotation_compiles_local_duplicate(self):
        program = compile_src(
            """
            class A { int n; virtual void f() { n = 1; } };
            A g_a;
            void main() {
                __offload [domain(A::f@local)] {
                    A local_obj;
                    A* p = &local_obj;
                    p->f();
                };
            }
            """
        )
        meta = program.offload_meta[0]
        entries = [e for row in meta.domain.inner for e in row]
        assert entries[0].duplicate_id == "L"
        assert "A::f@0$L" in program.functions

    def test_shared_memory_domain_is_empty(self):
        program = compile_src(self.SRC, SMP_UNIFORM)
        meta = program.offload_meta[0]
        assert len(meta.domain) == 0
        assert meta.annotation_count == 2  # effort metric still recorded


class TestProgramStructure:
    def test_validate_passes(self):
        program = compile_src("void main() { if (1) { } }")
        program.validate()

    def test_total_instruction_count_positive(self):
        program = compile_src("void main() { print_int(1); }")
        assert program.total_instructions() > 0

    def test_accel_host_partition(self):
        program = compile_src(
            "int g; void main() { __offload { g = 1; }; }"
        )
        accel = {f.name for f in program.accel_functions()}
        host = {f.name for f in program.host_functions()}
        assert "__offload_0" in accel
        assert "main" in host
        assert not accel & host
