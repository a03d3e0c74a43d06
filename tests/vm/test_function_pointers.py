"""Function-pointer dispatch: 'methods or functions ... called
virtually or via function pointer' (Section 3)."""

import pytest

from repro import CELL_LIKE, SMP_UNIFORM, compile_program
from repro.analysis.annotations import annotation_requirements
from repro.compiler.driver import analyze_source
from repro.errors import MissingDuplicateError, TypeCheckError
from tests.conftest import error_codes, printed, run_source

OPS = """
int twice(int x) { return x * 2; }
int triple(int x) { return x * 3; }
int negate(int x) { return 0 - x; }
int (*g_op)(int);
"""


class TestHostFunctionPointers:
    def test_assign_and_call(self):
        assert printed(
            OPS
            + """
            void main() {
                g_op = &twice;
                print_int(g_op(10));
            }
            """
        ) == [20]

    def test_reassignment_changes_target(self):
        assert printed(
            OPS
            + """
            void main() {
                g_op = &twice;
                int a = g_op(10);
                g_op = &triple;
                print_int(a + g_op(10));
            }
            """
        ) == [50]

    def test_local_function_pointer(self):
        assert printed(
            OPS
            + """
            void main() {
                int (*op)(int) = &negate;
                print_int(op(5));
            }
            """
        ) == [-5]

    def test_dispatch_table_in_array(self):
        """A jump table: function ids stored through int casts."""
        assert printed(
            OPS
            + """
            void main() {
                int total = 0;
                for (int i = 0; i < 3; i++) {
                    if (i == 0) { g_op = &twice; }
                    if (i == 1) { g_op = &triple; }
                    if (i == 2) { g_op = &negate; }
                    total += g_op(6);
                }
                print_int(total);
            }
            """
        ) == [12 + 18 - 6]

    def test_null_function_pointer_call_traps(self):
        from repro.errors import RuntimeTrap

        with pytest.raises(RuntimeTrap):
            run_source(
                OPS
                + """
                void main() {
                    int (*op)(int) = null;
                    print_int(op(1));
                }
                """
            )

    def test_arity_checked(self):
        with pytest.raises(TypeCheckError) as excinfo:
            run_source(
                OPS
                + """
                void main() {
                    g_op = &twice;
                    print_int(g_op(1, 2));
                }
                """
            )
        assert "E-arity" in error_codes(excinfo.value)

    def test_signature_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            run_source(
                OPS
                + """
                float half(float v) { return v * 0.5f; }
                void main() {
                    g_op = &half;   // int(*)(int) = float(*)(float)
                }
                """
            )

    def test_method_pointer_rejected(self):
        with pytest.raises(TypeCheckError) as excinfo:
            run_source(
                """
                class C { int m() { return 1; } };
                void main() {
                    int (*p)() = &m;
                }
                """
            )
        assert {"E-func-value", "E-undeclared"} & set(
            error_codes(excinfo.value)
        )

    def test_bare_function_name_still_error(self):
        with pytest.raises(TypeCheckError) as excinfo:
            run_source(OPS + "void main() { int x = twice; }")
        assert "E-func-value" in error_codes(excinfo.value)


class TestOffloadedFunctionPointers:
    OFFLOAD = OPS + """
    void main() {
        g_op = &triple;
        int result = 0;
        int (*captured)(int) = &twice;
        __offload [domain(twice, triple)] {
            result = g_op(5) * 100 + captured(5);
        };
        print_int(result);
    }
    """

    def test_domain_dispatch_through_pointer(self):
        assert printed(self.OFFLOAD) == [15 * 100 + 10]

    def test_same_source_on_shared_memory(self):
        assert printed(self.OFFLOAD, SMP_UNIFORM) == [15 * 100 + 10]

    def test_unannotated_function_raises(self):
        source = OPS + """
        void main() {
            g_op = &negate;
            int result = 0;
            __offload [domain(twice)] { result = g_op(5); };
            print_int(result);
        }
        """
        with pytest.raises(MissingDuplicateError) as excinfo:
            run_source(source)
        assert "negate" in str(excinfo.value)

    def test_demand_loading_covers_function_pointers(self):
        from repro import CompileOptions, Machine, run_program

        source = OPS + """
        void main() {
            g_op = &negate;
            int result = 0;
            __offload { result = g_op(5); };
            print_int(result);
        }
        """
        # Demand loading only pre-compiles virtual *methods*; plain
        # functions still need annotations — documents the boundary.
        program = compile_program(
            source, CELL_LIKE, CompileOptions(demand_load=True)
        )
        with pytest.raises(MissingDuplicateError):
            run_program(program, Machine(CELL_LIKE))

    def test_duplicates_compiled_for_annotated_functions(self):
        program = compile_program(self.OFFLOAD, CELL_LIKE)
        assert "twice@0$" in program.functions
        assert "triple@0$" in program.functions

    def test_annotation_analysis_counts_taken_functions(self):
        info = analyze_source(self.OFFLOAD)
        report = annotation_requirements(info, info.offloads[0])
        # All three ops share the signature; negate's address is never
        # taken, so only twice and triple are required.
        assert report.required == ["triple", "twice"]
        assert report.missing == []
