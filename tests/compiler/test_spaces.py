"""Tests for the memory-space type checks performed at lowering time
(the paper's "strong type checking to refuse erroneous pointer
manipulations such as assignments between pointers into different
memory spaces")."""

import pytest

from repro.compiler.driver import compile_program
from repro.errors import CompileError
from repro.machine.config import CELL_LIKE, SMP_UNIFORM
from tests.conftest import error_codes


def expect_space_error(source, code, config=CELL_LIKE):
    with pytest.raises(CompileError) as excinfo:
        compile_program(source, config)
    assert code in error_codes(excinfo.value), excinfo.value.diagnostics[0].code


class TestSpaceAssignment:
    def test_local_to_outer_var_rejected(self):
        expect_space_error(
            """
            int g;
            void main() {
                __offload {
                    int local_v = 1;
                    int* p = &g;       // inferred outer
                    p = &local_v;      // local address: refused
                };
            }
            """,
            "E-space-assign",
        )

    def test_outer_to_local_var_rejected(self):
        expect_space_error(
            """
            int g;
            void main() {
                __offload {
                    int local_v = 1;
                    int* p = &local_v; // inferred local
                    p = &g;            // outer address: refused
                };
            }
            """,
            "E-space-assign",
        )

    def test_explicit_outer_qualifier_enforced(self):
        expect_space_error(
            """
            void main() {
                __offload {
                    int local_v = 1;
                    __outer int* p = &local_v;
                };
            }
            """,
            "E-space-assign",
        )

    def test_same_space_reassignment_ok(self):
        compile_program(
            """
            int g; int g2;
            void main() {
                __offload {
                    int* p = &g;
                    p = &g2;
                };
            }
            """,
            CELL_LIKE,
        )

    def test_local_to_local_ok(self):
        compile_program(
            """
            void main() {
                __offload {
                    int a = 1; int b = 2;
                    int* p = &a;
                    p = &b;
                    *p = 3;
                };
            }
            """,
            CELL_LIKE,
        )

    def test_host_code_is_single_space(self):
        compile_program(
            """
            int g;
            void main() {
                int local_v = 1;
                int* p = &g;
                p = &local_v;   // both host memory on the host
            }
            """,
            CELL_LIKE,
        )

    def test_shared_memory_has_no_space_errors(self):
        compile_program(
            """
            int g;
            void main() {
                __offload {
                    int local_v = 1;
                    int* p = &g;
                    p = &local_v;  // one flat address space on SMP
                };
            }
            """,
            SMP_UNIFORM,
        )


class TestSpaceEscape:
    def test_local_pointer_into_global_rejected(self):
        expect_space_error(
            """
            int* g_ptr;
            void main() {
                __offload {
                    int local_v = 1;
                    g_ptr = &local_v;
                };
            }
            """,
            "E-space-escape",
        )

    def test_local_pointer_into_captured_var_rejected(self):
        # The captured variable is a host pointer variable, so this is
        # refused as a cross-space assignment.
        expect_space_error(
            """
            void main() {
                int* host_ptr = null;
                __offload {
                    int local_v = 1;
                    host_ptr = &local_v;
                };
            }
            """,
            "E-space-assign",
        )

    def test_local_pointer_into_object_field_rejected(self):
        expect_space_error(
            """
            struct Holder { int* p; };
            Holder g_h;
            void main() {
                __offload {
                    int local_v = 1;
                    g_h.p = &local_v;
                };
            }
            """,
            "E-space-escape",
        )

    def test_returning_local_pointer_rejected(self):
        expect_space_error(
            """
            int* leak() {
                int local_v = 1;
                return &local_v;
            }
            int g;
            void main() {
                __offload { int x = *leak(); g = x; };
            }
            """,
            "E-space-return",
        )


class TestDmaOperandSpaces:
    def test_dma_get_requires_local_destination(self):
        expect_space_error(
            """
            int g; int g2;
            void main() {
                __offload { dma_get(&g2, &g, 4, 1); dma_wait(1); };
            }
            """,
            "E-dma-space",
        )

    def test_dma_get_requires_outer_source(self):
        expect_space_error(
            """
            void main() {
                __offload {
                    int a = 1; int b = 2;
                    dma_get(&a, &b, 4, 1); dma_wait(1);
                };
            }
            """,
            "E-dma-space",
        )

    def test_correct_dma_operands_accepted(self):
        compile_program(
            """
            int g;
            void main() {
                __offload {
                    int staging = 0;
                    dma_get(&staging, &g, 4, 1);
                    dma_wait(1);
                };
            }
            """,
            CELL_LIKE,
        )


class TestAccessorSpaces:
    def test_accessor_must_bind_outer_data(self):
        expect_space_error(
            """
            void main() {
                __offload {
                    int local_arr[4];
                    Array<int, 4> a(local_arr);
                };
            }
            """,
            "E-accessor-space",
        )

    def test_accessor_of_global_ok(self):
        compile_program(
            """
            int g[4];
            void main() {
                __offload { Array<int, 4> a(g); int x = a[0]; };
            }
            """,
            CELL_LIKE,
        )
