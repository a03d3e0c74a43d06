"""Diagnostic and error types shared across the repro toolchain.

Every user-facing failure in the compiler, runtime or simulated machine is
reported through one of the exception classes defined here, each carrying
enough structured information (source span, diagnostic code) for tests and
tools to assert on precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position within a source buffer (1-based line and column)."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class SourceSpan(tuple):
    """A half-open range of source text, used to anchor diagnostics:
    an immutable, hashable tuple of both locations' fields, so a span is
    one object; ``start`` and ``end`` are made on access."""

    __slots__ = ()

    def __new__(cls, start: SourceLocation, end: SourceLocation) -> "SourceSpan":
        return tuple.__new__(cls, (start.filename, start.line, start.column,
                                   end.filename, end.line, end.column))

    @property
    def start(self) -> SourceLocation:
        return SourceLocation(self[0], self[1], self[2])

    @property
    def end(self) -> SourceLocation:
        return SourceLocation(self[3], self[4], self[5])

    def __getnewargs__(self) -> tuple[SourceLocation, SourceLocation]:
        return self.start, self.end

    def __repr__(self) -> str:
        return f"SourceSpan(start={self.start!r}, end={self.end!r})"

    def __str__(self) -> str:
        return str(self.start)


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


@dataclass
class Diagnostic:
    """A single compiler diagnostic.

    Attributes:
        code: Stable machine-readable identifier, e.g. ``"E-space-assign"``.
        message: Human-readable description.
        span: Where in the source the problem was detected, if known.
        notes: Additional explanatory lines.
    """

    code: str
    message: str
    span: Optional[SourceSpan] = None
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        where = f"{self.span}: " if self.span is not None else ""
        text = f"{where}error[{self.code}]: {self.message}"
        for note in self.notes:
            text += f"\n  note: {note}"
        return text

    def __str__(self) -> str:
        return self.render()


class CompileError(ReproError):
    """Raised when compilation fails; carries all collected diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(d.render() for d in diagnostics))

    @classmethod
    def single(
        cls,
        code: str,
        message: str,
        span: Optional[SourceSpan] = None,
        notes: Optional[list[str]] = None,
    ) -> "CompileError":
        return cls([Diagnostic(code, message, span, list(notes or []))])


class LexError(CompileError):
    """Raised on malformed input at the token level."""


class ParseError(CompileError):
    """Raised on syntactically invalid input."""


class TypeCheckError(CompileError):
    """Raised when semantic analysis rejects a program."""


class MachineError(ReproError):
    """Raised on illegal operations against the simulated machine."""


class MemoryFault(MachineError):
    """An out-of-bounds or misaligned access to a simulated memory space."""

    def __init__(self, message: str, space: str, address: int):
        self.space = space
        self.address = address
        super().__init__(f"{message} (space={space!r}, address={address:#x})")


class LocalStoreOverflow(MachineError):
    """Raised when an accelerator's scratch-pad memory is exhausted."""


class DmaError(MachineError):
    """Raised on invalid DMA engine usage (bad tag, bad range, ...)."""


class DmaRaceError(MachineError):
    """Raised by the dynamic race checker when transfers conflict."""

    def __init__(self, message: str, first: object = None, second: object = None):
        self.first = first
        self.second = second
        super().__init__(message)


class RuntimeTrap(ReproError):
    """Raised when an executing program performs an illegal operation."""


class MissingDuplicateError(RuntimeTrap):
    """The Figure 3 failure mode: a dynamically dispatched call found no
    pre-compiled duplicate in the inner domain.

    The exception reports the method and memory-space signature so the
    programmer can extend the ``domain(...)`` annotation, exactly as the
    paper describes ("an exception is generated, providing information which
    the programmer can use to tell the compiler which methods should be
    pre-compiled").
    """

    def __init__(self, method_name: str, duplicate_id: str, known: list[str]):
        self.method_name = method_name
        self.duplicate_id = duplicate_id
        self.known = known
        known_text = ", ".join(known) if known else "<none>"
        super().__init__(
            f"no accelerator duplicate of {method_name!r} for signature "
            f"{duplicate_id!r}; duplicates present: {known_text}. "
            f"Add the method to the offload block's domain annotation."
        )
