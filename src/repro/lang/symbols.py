"""Symbols and lexical scopes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.lang.types import Type


class SymbolKind(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"
    FUNCTION = "function"
    FIELD = "field"  # implicit-this member access
    THIS = "this"


@dataclass(eq=False)
class Symbol:
    """A named entity resolved by sema (identity-hashed).

    ``offload_id`` records which offload block (if any) the symbol was
    *declared* inside; -1 means host code.  Lowering uses it to place the
    variable's storage (local store vs. host stack) and capture analysis
    uses it to decide what crosses the offload boundary.
    """

    name: str
    kind: SymbolKind
    type: Type
    decl: object = None
    offload_id: int = -1
    is_captured: bool = False
    #: True when '&symbol' appears anywhere; forces frame storage.
    address_taken: bool = False
    #: Unique id for stable ordering/mangling of locals.
    uid: int = field(default_factory=lambda: Symbol._next_uid())

    _uid_counter = 0

    @classmethod
    def _next_uid(cls) -> int:
        cls._uid_counter += 1
        return cls._uid_counter

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.kind.value}, {self.type})"


class Scope:
    """One lexical scope; lookup walks outward through parents."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._names: dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> bool:
        """Bind a symbol; returns False if the name exists in this scope."""
        if symbol.name in self._names:
            return False
        self._names[symbol.name] = symbol
        return True

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._names:
                return scope._names[name]
            scope = scope.parent
        return None
