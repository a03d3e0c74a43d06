"""End-to-end virtual dispatch tests: host vtables and accelerator
domain dispatch (Figure 3)."""

import pytest

from repro.errors import MissingDuplicateError, RuntimeTrap
from repro.game.sources import ai_kernel_source
from repro.machine.config import CELL_LIKE, SMP_UNIFORM
from repro.vm.interpreter import RunOptions
from tests.conftest import printed, run_source

SHAPES = """
class Shape {
    int id;
    virtual int area() { return 0; }
    virtual int name() { return 0; }
};
class Square : Shape {
    int side;
    virtual int area() { return side * side; }
    virtual int name() { return 1; }
};
class Circle : Shape {
    int radius;
    virtual int area() { return 3 * radius * radius; }
    virtual int name() { return 2; }
};
Square g_square;
Circle g_circle;
Shape g_plain;
Shape* g_shapes[3];
void setup() {
    g_square.side = 4;
    g_circle.radius = 2;
    g_shapes[0] = &g_plain;
    g_shapes[1] = &g_square;
    g_shapes[2] = &g_circle;
}
"""


class TestHostDispatch:
    def test_dynamic_type_selects_implementation(self):
        assert printed(
            SHAPES
            + """
            void main() {
                setup();
                int total = 0;
                for (int i = 0; i < 3; i++) { total += g_shapes[i]->area(); }
                print_int(total);
            }
            """
        ) == [0 + 16 + 12]

    def test_base_pointer_to_derived_object(self):
        assert printed(
            SHAPES
            + """
            void main() {
                setup();
                Shape* p = &g_circle;
                print_int(p->name());
            }
            """
        ) == [2]

    def test_inherited_method_not_overridden(self):
        assert printed(
            """
            class A { virtual int f() { return 10; } };
            class B : A { int unrelated; };
            B g_b;
            void main() {
                A* p = &g_b;
                print_int(p->f());
            }
            """
        ) == [10]

    def test_dot_call_is_static(self):
        assert printed(
            SHAPES
            + """
            void main() {
                setup();
                print_int(g_square.area());
            }
            """
        ) == [16]

    def test_cast_does_not_change_dynamic_type(self):
        assert printed(
            SHAPES
            + """
            void main() {
                setup();
                Shape* p = (Shape*)&g_square;
                print_int(p->area());
            }
            """
        ) == [16]

    def test_method_calling_own_virtual(self):
        assert printed(
            """
            class A {
                virtual int base() { return 1; }
                int doubled() { return base() * 2; }
            };
            class B : A { virtual int base() { return 5; } };
            B g_b;
            void main() {
                A* p = &g_b;
                print_int(p->doubled());
            }
            """
        ) == [10]  # implicit this->base() dispatches on the dynamic type


class TestAcceleratorDomainDispatch:
    def test_offloaded_virtual_calls(self):
        source = (
            SHAPES
            + """
            void main() {
                setup();
                int total = 0;
                __offload [domain(Shape::area, Square::area, Circle::area)] {
                    for (int i = 0; i < 3; i++) {
                        Shape* p = g_shapes[i];
                        total += p->area();
                    }
                };
                print_int(total);
            }
            """
        )
        assert printed(source) == [28]

    def test_missing_duplicate_names_method(self):
        source = (
            SHAPES
            + """
            void main() {
                setup();
                int total = 0;
                __offload [domain(Shape::area, Square::area)] {
                    Shape* p = g_shapes[2];   // Circle: not annotated
                    total += p->area();
                };
                print_int(total);
            }
            """
        )
        with pytest.raises(MissingDuplicateError) as excinfo:
            run_source(source)
        assert "Circle::area" in str(excinfo.value)
        assert "domain annotation" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ["codegen", "reference"])
    def test_null_vtable_slot_traps_like_a_bad_indirect_call(self, engine):
        """A function id the program does not know is a bad pointer, not
        a missing annotation: the host ``ICall``'s trap, on both engines."""
        source = ai_kernel_source(entity_count=4, check_count=5)
        filled = "    g_checks[4] = &g_c0;\n"
        assert filled in source
        with pytest.raises(RuntimeTrap) as excinfo:
            run_source(
                source.replace(filled, ""),
                run_options=RunOptions(engine=engine),
            )
        assert str(excinfo.value) == "indirect call through bad function id 0x0"

    @pytest.mark.parametrize("checks", [5, 8])
    def test_more_checks_than_classes_fill_every_slot(self, checks):
        results = [
            run_source(
                ai_kernel_source(entity_count=8, check_count=checks),
                run_options=RunOptions(engine=engine),
            )
            for engine in ("codegen", "reference")
        ]
        assert results[0].printed == results[1].printed
        assert results[0].cycles == results[1].cycles

    def test_local_object_needs_local_duplicate(self):
        source = (
            SHAPES
            + """
            void main() {
                int result = 0;
                __offload [domain(Square::area)] {
                    Square local_sq;
                    local_sq.side = 3;
                    Shape* p = &local_sq;
                    result = p->area();
                };
                print_int(result);
            }
            """
        )
        # Only the outer duplicate was compiled; the receiver is local.
        with pytest.raises(MissingDuplicateError) as excinfo:
            run_source(source)
        assert excinfo.value.duplicate_id == "L"

    def test_local_annotation_enables_local_receiver(self):
        source = (
            SHAPES
            + """
            void main() {
                int result = 0;
                __offload [domain(Square::area@local)] {
                    Square local_sq;
                    local_sq.side = 3;
                    Shape* p = &local_sq;
                    result = p->area();
                };
                print_int(result);
            }
            """
        )
        assert printed(source) == [9]

    def test_domain_dispatch_counters(self):
        source = (
            SHAPES
            + """
            void main() {
                setup();
                int total = 0;
                __offload [domain(Shape::area, Square::area, Circle::area)] {
                    for (int i = 0; i < 3; i++) {
                        Shape* p = g_shapes[i];
                        total += p->area();
                    }
                };
                print_int(total);
            }
            """
        )
        result = run_source(source)
        perf = result.perf()
        assert perf["dispatch.vcalls"] == 3
        assert perf["dispatch.domain_hits"] == 3
        assert perf["dispatch.outer_probes"] >= 3

    def test_same_source_on_smp_uses_plain_vtables(self):
        source = (
            SHAPES
            + """
            void main() {
                setup();
                int total = 0;
                __offload [domain(Shape::area, Square::area, Circle::area)] {
                    for (int i = 0; i < 3; i++) {
                        Shape* p = g_shapes[i];
                        total += p->area();
                    }
                };
                print_int(total);
            }
            """
        )
        result = run_source(source, SMP_UNIFORM)
        assert result.printed == [28]
        assert result.perf().get("dispatch.domain_lookups", 0) == 0
