"""Unit tests for semantic analysis: types, layout, captures, domains."""

import pytest

from repro.errors import TypeCheckError
from repro.lang.parser import parse_program
from repro.lang.sema import analyze
from repro.lang.types import FLOAT, INT, PointerType
from tests.conftest import error_codes


def check(source):
    return analyze(parse_program(source))


def expect_error(source, code):
    with pytest.raises(TypeCheckError) as excinfo:
        check(source)
    assert code in error_codes(excinfo.value), (
        f"expected {code}, got {excinfo.value.diagnostics[0].code}"
    )


MAIN = "void main() { }"


class TestClassLayout:
    def test_plain_struct_size(self):
        info = check("struct V { float x; float y; };" + MAIN)
        assert info.classes["V"].size() == 8

    def test_vptr_reserved_for_virtuals(self):
        info = check("class C { int n; virtual void f() { } };" + MAIN)
        cls = info.classes["C"]
        assert cls.has_vptr
        assert cls.size() == 8
        assert cls.find_field("n").offset == 4

    def test_alignment_padding(self):
        info = check("struct S { char c; int n; };" + MAIN)
        cls = info.classes["S"]
        assert cls.find_field("n").offset == 4
        assert cls.size() == 8

    def test_size_rounded_to_alignment(self):
        info = check("struct S { int n; char c; };" + MAIN)
        assert info.classes["S"].size() == 8

    def test_base_fields_precede_derived(self):
        info = check(
            "class A { int x; }; class B : A { int y; };" + MAIN
        )
        b = info.classes["B"]
        assert b.find_field("x").offset < b.find_field("y").offset
        assert b.size() == 8

    def test_derived_inherits_vptr(self):
        info = check(
            "class A { virtual void f() { } }; class B : A { int y; };" + MAIN
        )
        assert info.classes["B"].has_vptr

    def test_nested_struct_field(self):
        info = check(
            "struct V { float x; float y; }; struct E { V pos; int id; };"
            + MAIN
        )
        assert info.classes["E"].size() == 12

    def test_unknown_base_rejected(self):
        expect_error("class B : Missing { };" + MAIN, "E-unknown-type")

    def test_duplicate_class_rejected(self):
        expect_error("class A { }; class A { };" + MAIN, "E-redefined")


class TestVtables:
    def test_override_shares_slot(self):
        info = check(
            """
            class A { virtual void f() { } virtual void g() { } };
            class B : A { virtual void f() { } };
            """
            + MAIN
        )
        a, b = info.classes["A"], info.classes["B"]
        assert a.methods["f"].vtable_index == b.methods["f"].vtable_index
        assert [m.qualified_name for m in b.vtable] == ["B::f", "A::g"]

    def test_new_virtual_appends_slot(self):
        info = check(
            """
            class A { virtual void f() { } };
            class B : A { virtual void h() { } };
            """
            + MAIN
        )
        b = info.classes["B"]
        assert b.methods["h"].vtable_index == 1

    def test_override_stays_virtual_without_keyword(self):
        info = check(
            """
            class A { virtual void f() { } };
            class B : A { void f() { } };
            """
            + MAIN
        )
        assert info.classes["B"].methods["f"].is_virtual

    def test_override_arity_mismatch_rejected(self):
        expect_error(
            """
            class A { virtual void f() { } };
            class B : A { virtual void f(int x) { } };
            """
            + MAIN,
            "E-override-mismatch",
        )


class TestExpressions:
    def test_arithmetic_promotion_to_float(self):
        info = check("void main() { float f = 1 + 2.5f; }")
        assert info is not None

    def test_float_to_int_requires_cast(self):
        expect_error("void main() { int x = 1.5f; }", "E-type-mismatch")

    def test_explicit_float_to_int_cast_ok(self):
        check("void main() { int x = (int)1.5f; }")

    def test_pointer_plus_int(self):
        check("int g[4]; void main() { int* p = &g[0]; p = p + 2; }")

    def test_pointer_minus_pointer(self):
        check(
            "int g[4]; void main() { int* a = &g[0]; int* b = &g[2];"
            " int d = b - a; }"
        )

    def test_pointer_plus_pointer_rejected(self):
        expect_error(
            "int g[4]; void main() { int* a = &g[0]; int* b = &g[1];"
            " int x = (int)(a + b); }",
            "E-type-mismatch",
        )

    def test_incompatible_pointer_comparison_rejected(self):
        expect_error(
            """
            class A { int x; }; class B { int y; };
            A g_a; B g_b;
            void main() { bool r = &g_a == &g_b; }
            """,
            "E-type-mismatch",
        )

    def test_subclass_pointer_comparison_ok(self):
        check(
            """
            class A { int x; }; class B : A { int y; };
            A g_a; B g_b;
            void main() { bool r = &g_a == (A*)&g_b; }
            """
        )

    def test_null_comparison_ok(self):
        check("int g; void main() { int* p = &g; bool r = p == null; }")

    def test_derived_to_base_implicit(self):
        check(
            """
            class A { int x; }; class B : A { };
            B g_b;
            void main() { A* p = &g_b; }
            """
        )

    def test_base_to_derived_requires_cast(self):
        expect_error(
            """
            class A { int x; }; class B : A { };
            A g_a;
            void main() { B* p = &g_a; }
            """,
            "E-type-mismatch",
        )

    def test_undeclared_name(self):
        expect_error("void main() { x = 1; }", "E-undeclared")

    def test_deref_non_pointer_rejected(self):
        expect_error("void main() { int x = 1; int y = *x; }", "E-deref")

    def test_void_pointer_deref_rejected(self):
        expect_error(
            "int g; void main() { void* p = (void*)&g; int x = *p; }",
            "E-deref",
        )

    def test_address_of_rvalue_rejected(self):
        expect_error("void main() { int* p = &(1 + 2); }", "E-lvalue")

    def test_assign_to_rvalue_rejected(self):
        expect_error("void main() { 1 = 2; }", "E-lvalue")

    def test_condition_must_be_scalar(self):
        expect_error(
            "struct S { int x; }; S g; void main() { if (g) { } }",
            "E-condition",
        )

    def test_sizeof_folds(self):
        info = check("struct S { int a; int b; }; void main() { int n = sizeof(S); }")
        assert info is not None


class TestFunctionsAndMethods:
    def test_call_arity_checked(self):
        expect_error(
            "int f(int a) { return a; } void main() { f(1, 2); }", "E-arity"
        )

    def test_arg_type_checked(self):
        expect_error(
            "struct S { int x; }; S g;"
            "int f(int a) { return a; } void main() { f(*(&g)); }",
            "E-type-mismatch",
        )

    def test_return_type_checked(self):
        expect_error("int f() { return; } " + MAIN, "E-return")

    def test_void_return_with_value_rejected(self):
        expect_error("void f() { return 1; } " + MAIN, "E-return")

    def test_method_resolution_through_base(self):
        check(
            """
            class A { int v; int get() { return v; } };
            class B : A { };
            B g_b;
            void main() { int x = g_b.get(); }
            """
        )

    def test_implicit_this_field_access(self):
        info = check(
            "class C { int n; int get() { return n; } };" + MAIN
        )
        assert info is not None

    def test_implicit_this_method_call(self):
        check(
            """
            class C {
                int n;
                int get() { return n; }
                int twice() { return get() + get(); }
            };
            """
            + MAIN
        )

    def test_class_by_value_param_rejected(self):
        expect_error(
            "struct S { int x; }; void f(S s) { } " + MAIN, "E-param-type"
        )

    def test_class_by_value_return_rejected(self):
        expect_error(
            "struct S { int x; }; S g; S f() { return g; } " + MAIN,
            "E-return-type",
        )

    def test_virtual_marked_on_arrow_call(self):
        info = check(
            """
            class A { virtual int f() { return 1; } };
            A g_a;
            void main() { A* p = &g_a; int x = p->f(); }
            """
        )
        assert info is not None

    def test_missing_main_rejected(self):
        expect_error("int helper() { return 1; }", "E-no-main")

    def test_no_overloading(self):
        expect_error(
            "int f(int a) { return a; } int f() { return 0; } " + MAIN,
            "E-redefined",
        )


class TestIntrinsics:
    def test_print_int(self):
        check("void main() { print_int(3); }")

    def test_dma_outside_offload_rejected(self):
        expect_error(
            "int g; void main() { dma_wait(1); }", "E-intrinsic-context"
        )

    def test_dma_inside_offload_ok(self):
        check(
            """
            int g;
            void main() {
                __offload {
                    int local_v = 0;
                    dma_get(&local_v, &g, 4, 1);
                    dma_wait(1);
                };
            }
            """
        )

    def test_dma_pointer_args_checked(self):
        expect_error(
            "void main() { __offload { dma_get(1, 2, 4, 1); }; }",
            "E-type-mismatch",
        )

    def test_math_intrinsics(self):
        check(
            "void main() { float r = sqrtf(2.0f) + fabsf(-1.0f)"
            " + fminf(1.0f, 2.0f); int i = iabs(-3) + imax(1, 2); }"
        )


class TestOffloadSemantics:
    def test_captures_enclosing_locals(self):
        info = check(
            """
            void main() {
                int total = 0;
                int untouched = 5;
                __offload { total += 1; };
            }
            """
        )
        captures = info.offloads[0].captures
        assert [s.name for s in captures] == ["total"]

    def test_globals_not_captured(self):
        info = check(
            "int g; void main() { __offload { g = 1; }; }"
        )
        assert info.offloads[0].captures == []

    def test_this_captured_in_method(self):
        info = check(
            """
            class W {
                int n;
                void work() { __offload { n = n + 1; }; }
            };
            """
            + MAIN
        )
        names = [s.name for s in info.offloads[0].captures]
        assert names == ["this"]

    def test_block_locals_not_captured(self):
        info = check(
            "void main() { __offload { int inner = 0; inner += 1; }; }"
        )
        assert info.offloads[0].captures == []

    def test_nested_offload_rejected(self):
        expect_error(
            "void main() { __offload { __offload { }; }; }",
            "E-offload-nesting",
        )

    def test_join_inside_offload_rejected(self):
        expect_error(
            """
            void main() {
                __offload_handle_t h = __offload { };
                __offload { __offload_join(h); };
            }
            """,
            "E-capture-handle",
        )

    def test_return_inside_offload_rejected(self):
        expect_error(
            "int f() { __offload { return; }; return 0; } " + MAIN,
            "E-offload-return",
        )

    def test_join_requires_handle(self):
        expect_error(
            "void main() { int x = 0; __offload_join(x); }",
            "E-type-mismatch",
        )

    def test_handle_requires_offload_init(self):
        expect_error(
            "void main() { __offload_handle_t h = null; }", "E-handle-init"
        )

    def test_offload_ids_are_sequential(self):
        info = check(
            """
            void main() {
                __offload { };
                __offload { };
            }
            """
        )
        assert [o.offload_id for o in info.offloads] == [0, 1]


class TestDomainAnnotations:
    SRC = """
    class A { virtual void f() { } void plain() { } };
    class B : A { virtual void f() { } };
    """

    def test_resolved_to_implementations(self):
        info = check(
            self.SRC
            + "void main() { __offload [domain(A::f, B::f)] { }; }"
        )
        resolved = info.offloads[0].resolved_domain
        assert [r.method.qualified_name for r in resolved] == ["A::f", "B::f"]

    def test_non_virtual_rejected(self):
        expect_error(
            self.SRC + "void main() { __offload [domain(A::plain)] { }; }",
            "E-domain",
        )

    def test_unknown_class_rejected(self):
        expect_error(
            self.SRC + "void main() { __offload [domain(Zed::f)] { }; }",
            "E-domain",
        )

    def test_unknown_method_rejected(self):
        expect_error(
            self.SRC + "void main() { __offload [domain(A::zap)] { }; }",
            "E-domain",
        )

    def test_bare_free_function_accepted(self):
        # Free functions are legal domain entries (function-pointer
        # dispatch); unknown names are not.
        info = check(
            self.SRC
            + "int op(int x) { return x; }"
            + "void main() { __offload [domain(op)] { }; }"
        )
        assert info.offloads[0].resolved_domain[0].qualified_name == "op"

    def test_unknown_bare_name_rejected(self):
        expect_error(
            self.SRC + "void main() { __offload [domain(mystery)] { }; }",
            "E-domain",
        )

    def test_free_function_local_space_rejected(self):
        expect_error(
            self.SRC
            + "int op(int x) { return x; }"
            + "void main() { __offload [domain(op@local)] { }; }",
            "E-domain",
        )

    def test_local_space_recorded(self):
        info = check(
            self.SRC + "void main() { __offload [domain(A::f@local)] { }; }"
        )
        assert info.offloads[0].resolved_domain[0].this_space == "local"


class TestAccessorSemantics:
    def test_element_type_must_match(self):
        expect_error(
            "float g[8]; void main() { Array<int, 8> a(g); }",
            "E-accessor-init",
        )

    def test_extent_must_fit_bound_array(self):
        expect_error(
            "int g[4]; void main() { Array<int, 8> a(g); }",
            "E-accessor-init",
        )

    def test_staging_prefix_allowed(self):
        check("int g[16]; void main() { Array<int, 8> a(g); }")

    def test_requires_initialiser(self):
        expect_error(
            "void main() { Array<int, 8> a; }", "E-accessor-init"
        )

    def test_accessor_cannot_be_captured(self):
        expect_error(
            """
            int g[8];
            void main() {
                Array<int, 8> a(g);
                __offload { int x = a[0]; };
            }
            """,
            "E-capture-accessor",
        )

    def test_index_yields_element_type(self):
        info = check(
            "int g[8]; void main() { Array<int, 8> a(g); int x = a[1]; }"
        )
        assert info is not None
