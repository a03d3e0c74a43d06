"""Unit tests for the semantic type system."""

import pytest

from repro.lang.parser import parse_program
from repro.lang.sema import analyze
from repro.lang.types import (
    BOOL,
    CHAR,
    FLOAT,
    INT,
    UINT,
    VOID,
    AddrUnit,
    ArrayType,
    ClassType,
    HandleType,
    MemSpace,
    MethodInfo,
    PointerType,
    common_arithmetic_type,
    is_arithmetic,
    is_integer,
)


class TestScalars:
    def test_sizes(self):
        assert (BOOL.size(), CHAR.size(), INT.size(), UINT.size(),
                FLOAT.size()) == (1, 1, 4, 4, 4)

    def test_void_has_no_size(self):
        assert VOID.size() == 0

    def test_predicates(self):
        assert is_integer(INT) and is_integer(CHAR) and not is_integer(FLOAT)
        assert is_arithmetic(FLOAT) and not is_arithmetic(VOID)

    def test_usual_conversions(self):
        assert common_arithmetic_type(INT, FLOAT) == FLOAT
        assert common_arithmetic_type(CHAR, INT) == INT
        assert common_arithmetic_type(UINT, INT) == UINT
        assert common_arithmetic_type(CHAR, BOOL) == INT
        assert common_arithmetic_type(INT, VOID) is None


class TestPointers:
    def test_size_is_four(self):
        assert PointerType(INT).size() == 4

    def test_str_includes_qualifiers(self):
        text = str(PointerType(CHAR, MemSpace.HOST, AddrUnit.BYTE))
        assert "__outer" in text and "__byte" in text

    def test_space_codes(self):
        assert MemSpace.HOST.code() == "O"
        assert MemSpace.LOCAL.code() == "L"

    def test_space_qualification(self):
        assert declared_type("__outer int *p;").space is MemSpace.HOST
        assert declared_type("int *p;").space is MemSpace.GENERIC

    def test_addressing_qualification(self):
        pointer = declared_type("char __byte *p;")
        assert pointer.addressing is AddrUnit.BYTE
        assert declared_type("int __word *p;").addressing is AddrUnit.WORD
        assert declared_type("int *p;").addressing is AddrUnit.DEFAULT


def declared_type(declaration):
    """The type sema gives the one global ``declaration`` declares."""
    info = analyze(parse_program(declaration + " void main() { }"))
    return info.globals[0].symbol.type


class TestArrays:
    def test_size_and_align(self):
        array = ArrayType(INT, 10)
        assert array.size() == 40
        assert array.align() == 4

    def test_handle_is_opaque_word(self):
        assert HandleType().size() == 4


class TestClassLayoutUnit:
    def _poly(self):
        cls = ClassType("Poly")
        cls.methods["f"] = MethodInfo("f", "Poly::f", None, is_virtual=True)
        cls.finalize([("n", INT)])
        return cls

    def test_vptr_precedes_fields(self):
        cls = self._poly()
        assert cls.has_vptr
        assert cls.find_field("n").offset == 4
        assert cls.size() == 8

    def test_plain_struct_no_vptr(self):
        cls = ClassType("Plain")
        cls.finalize([("a", CHAR), ("b", INT)])
        assert not cls.has_vptr
        assert cls.find_field("b").offset == 4

    def test_empty_class_has_nonzero_size(self):
        cls = ClassType("Empty")
        cls.finalize([])
        assert cls.size() >= 1

    def test_double_finalize_rejected(self):
        cls = ClassType("Once")
        cls.finalize([])
        with pytest.raises(ValueError):
            cls.finalize([])

    def test_size_before_finalize_rejected(self):
        with pytest.raises(ValueError):
            ClassType("NotYet").size()

    def test_subclass_relationship(self):
        base = self._poly()
        derived = ClassType("Derived", base)
        derived.finalize([("extra", FLOAT)])
        assert derived.is_subclass_of(base)
        assert not base.is_subclass_of(derived)
        assert derived.find_method("f") is base.methods["f"]

    def test_override_replaces_vtable_slot(self):
        base = self._poly()
        derived = ClassType("Derived", base)
        derived.methods["f"] = MethodInfo(
            "f", "Derived::f", None, is_virtual=True
        )
        derived.finalize([])
        assert derived.vtable[0].qualified_name == "Derived::f"
        assert base.vtable[0].qualified_name == "Poly::f"
        assert derived.methods["f"].vtable_index == 0

    def test_identity_equality(self):
        a = ClassType("Same")
        b = ClassType("Same")
        assert a != b
        assert a == a
