"""Semantic types for OffloadMini.

The two type-system extensions the paper describes both live on
:class:`PointerType`:

* **memory space** (Section 3): every pointer is qualified ``HOST``
  (outer), ``LOCAL`` (accelerator scratch-pad) or ``GENERIC`` (a
  function-parameter space resolved per duplicate at compile time).
  Assignments between concrete distinct spaces are type errors.
* **addressing unit** (Section 5): on word-addressed targets a pointer
  is either word-addressed (the default) or byte-addressed
  (``__byte``); byte-addressed pointers additionally track whether
  their sub-word offset is a *known constant*, which is what makes the
  hybrid scheme's dereferences cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class MemSpace(enum.Enum):
    """Which memory a pointer refers into."""

    HOST = "host"  # main memory ("outer" from an accelerator)
    LOCAL = "local"  # the executing accelerator's scratch-pad
    GENERIC = "generic"  # parameter space, fixed per duplicate

    def code(self) -> str:
        """Single-letter code used in duplicate identifiers."""
        return {"host": "O", "local": "L", "generic": "G"}[self.value]


class AddrUnit(enum.Enum):
    """Addressing unit of a pointer (Section 5)."""

    DEFAULT = "default"  # whatever the target machine uses
    WORD = "word"
    BYTE = "byte"


class Type:
    """Base class of semantic types."""

    def size(self) -> int:
        raise NotImplementedError

    def align(self) -> int:
        return self.size()

    @property
    def is_class(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(
            other, "__dict__", None
        )

    def __hash__(self) -> int:
        return hash(type(self).__name__)


@dataclass(frozen=True, eq=True)
class VoidType(Type):
    def size(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True, eq=True)
class ScalarType(Type):
    """A builtin scalar: bool, char, int, uint, float."""

    name: str
    byte_size: int
    signed: bool = True
    is_float_type: bool = False

    def size(self) -> int:
        return self.byte_size

    def __str__(self) -> str:
        return self.name


VOID = VoidType()
BOOL = ScalarType("bool", 1, signed=False)
CHAR = ScalarType("char", 1, signed=True)
INT = ScalarType("int", 4, signed=True)
UINT = ScalarType("uint", 4, signed=False)
FLOAT = ScalarType("float", 4, is_float_type=True)

SCALARS = {t.name: t for t in (BOOL, CHAR, INT, UINT, FLOAT)}

#: Size of a pointer value in simulated memory (a 32-bit address).
POINTER_SIZE = 4


@dataclass(frozen=True, eq=True)
class PointerType(Type):
    """A pointer with memory-space and addressing-unit qualifiers.

    ``const_sub_offset`` supports the Section 5 hybrid scheme: a
    byte-addressed pointer *expression* whose sub-word offset is a known
    compile-time constant dereferences cheaply (word load + constant
    extract); ``None`` means the offset is dynamic.
    """

    pointee: Type
    space: MemSpace = MemSpace.GENERIC
    addressing: AddrUnit = AddrUnit.DEFAULT
    const_sub_offset: Optional[int] = None

    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        quals = []
        if self.space is MemSpace.HOST:
            quals.append("__outer")
        elif self.space is MemSpace.LOCAL:
            quals.append("__local")
        if self.addressing is AddrUnit.BYTE:
            quals.append("__byte")
        elif self.addressing is AddrUnit.WORD:
            quals.append("__word")
        prefix = " ".join(quals) + " " if quals else ""
        return f"{self.pointee} {prefix}*".replace("  ", " ")


@dataclass(frozen=True, eq=True)
class ArrayType(Type):
    element: Type
    count: int

    def size(self) -> int:
        return self.element.size() * self.count

    def align(self) -> int:
        return self.element.align()

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass(frozen=True, eq=True)
class HandleType(Type):
    """An offload handle (opaque, register-only)."""

    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        return "__offload_handle_t"


@dataclass(frozen=True, eq=True)
class FuncPtrType(Type):
    """A pointer to a free function: ``ret (*p)(params)``.

    The runtime value is a host function id (the same currency vtable
    slots use), so indirect calls dispatch through ICall on the host
    and through the offload's domain on an accelerator — the "via
    function pointer" dispatch the paper's Section 3 describes.
    """

    return_type: Type
    param_types: tuple[Type, ...]

    def size(self) -> int:
        return POINTER_SIZE

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} (*)({params})"


@dataclass(frozen=True, eq=True)
class AccessorType(Type):
    """``Array<T, N>`` — the Section 4.2 accessor class.

    Represented as an opaque local object; its storage (the staged
    element buffer) is allocated in the executing core's fast memory by
    codegen.  ``element`` is T, ``count`` is N.
    """

    element: Type
    count: int

    def size(self) -> int:
        return self.element.size() * self.count

    def align(self) -> int:
        return max(self.element.align(), 1)

    def __str__(self) -> str:
        return f"Array<{self.element}, {self.count}>"


@dataclass
class FieldInfo:
    """A laid-out class field."""

    name: str
    type: Type
    offset: int


@dataclass
class MethodInfo:
    """A class method after sema.

    ``vtable_index`` is set for virtual methods (shared with the
    overridden base method); ``decl`` is the AST node.
    """

    name: str
    qualified_name: str
    decl: object  # FuncDecl
    is_virtual: bool
    vtable_index: Optional[int] = None


class ClassType(Type):
    """A class or struct; layout is computed by :meth:`finalize`.

    Object layout: a 4-byte vptr slot first when the class (or any base)
    has virtual methods, then base-class fields, then own fields, each
    at natural alignment.
    """

    def __init__(self, name: str, base: Optional["ClassType"] = None):
        self.name = name
        self.base = base
        self.fields: list[FieldInfo] = []
        self.methods: dict[str, MethodInfo] = {}
        self.vtable: list[MethodInfo] = []  # slot -> implementation
        self.has_vptr = False
        self._size = 0
        self._align = 1
        self._finalized = False

    # -------------------------------------------------------------- layout

    def finalize(self, own_fields: list[tuple[str, Type]]) -> None:
        """Compute layout given this class's own (name, type) fields."""
        if self._finalized:
            raise ValueError(f"class {self.name} laid out twice")
        offset = 0
        align = 1
        if self.base is not None:
            if not self.base._finalized:
                raise ValueError(
                    f"base {self.base.name} must be laid out before {self.name}"
                )
            self.has_vptr = self.base.has_vptr
            self.fields = list(self.base.fields)
            offset = self.base._size
            align = self.base._align
            self.vtable = list(self.base.vtable)
        needs_vptr = self.has_vptr or any(
            m.is_virtual for m in self.methods.values()
        )
        if needs_vptr and not self.has_vptr:
            # Base had no vptr; reserve it at offset 0 and push base
            # fields up.  (Only possible when there is no base.)
            if self.base is not None and self.base._size > 0:
                raise ValueError(
                    f"{self.name}: cannot introduce virtual methods below a "
                    f"non-polymorphic base with fields (unsupported layout)"
                )
            self.has_vptr = True
            offset = max(offset, POINTER_SIZE)
            align = max(align, POINTER_SIZE)
        for field_name, field_type in own_fields:
            field_align = max(1, field_type.align())
            offset = (offset + field_align - 1) // field_align * field_align
            self.fields.append(FieldInfo(field_name, field_type, offset))
            offset += field_type.size()
            align = max(align, field_align)
        self._align = align
        self._size = max(1, (offset + align - 1) // align * align)
        # Vtable: overrides replace the base slot; new virtuals append.
        for method in self.methods.values():
            if not method.is_virtual:
                continue
            slot = self._find_base_slot(method.name)
            if slot is not None:
                method.vtable_index = slot
                self.vtable[slot] = method
            else:
                method.vtable_index = len(self.vtable)
                self.vtable.append(method)
        self._finalized = True

    def _find_base_slot(self, method_name: str) -> Optional[int]:
        for slot, info in enumerate(self.vtable):
            if info.name == method_name:
                return slot
        return None

    # ------------------------------------------------------------- queries

    def size(self) -> int:
        if not self._finalized:
            raise ValueError(f"size of un-finalized class {self.name}")
        return self._size

    def align(self) -> int:
        return self._align

    @property
    def is_class(self) -> bool:
        return True

    def find_field(self, name: str) -> Optional[FieldInfo]:
        for info in self.fields:
            if info.name == name:
                return info
        return None

    def find_method(self, name: str) -> Optional[MethodInfo]:
        """Find a method here or in a base class."""
        if name in self.methods:
            return self.methods[name]
        if self.base is not None:
            return self.base.find_method(name)
        return None

    def is_subclass_of(self, other: "ClassType") -> bool:
        current: Optional[ClassType] = self
        while current is not None:
            if current is other:
                return True
            current = current.base
        return False

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"ClassType({self.name!r})"


def is_integer(t: Type) -> bool:
    """True for bool/char/int/uint."""
    return isinstance(t, ScalarType) and not t.is_float_type


def is_arithmetic(t: Type) -> bool:
    return isinstance(t, ScalarType)


def common_arithmetic_type(a: Type, b: Type) -> Optional[Type]:
    """Usual-arithmetic-conversions result, or None if not arithmetic."""
    if not (is_arithmetic(a) and is_arithmetic(b)):
        return None
    assert isinstance(a, ScalarType) and isinstance(b, ScalarType)
    if a.is_float_type or b.is_float_type:
        return FLOAT
    if a == UINT or b == UINT:
        return UINT
    return INT
