"""The compiler driver: source text -> :class:`repro.ir.IRProgram`.

The pipeline itself lives in :mod:`repro.compiler.passes` as an explicit
pass manager (parse -> sema -> layout -> domains -> offload-meta ->
lower-host -> drain-duplicates -> optimize -> validate -> analyze).  This module
keeps the pieces the passes share: :class:`CompileOptions`, the
:class:`Compiler` state object (layout, duplication worklist, the
growing program) and the public :func:`compile_program` entry point,
which consults the content-addressed compile cache
(:mod:`repro.compiler.cache`) before running the passes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.sema import SemanticInfo, analyze
from repro.lang.types import ClassType
from repro.ir.module import IRProgram
from repro.errors import CompileError
from repro.machine.config import MachineConfig, resolve_target
from repro.runtime.cachekinds import CACHE_KIND_CHOICES
from repro.compiler.layout import LayoutResult, compute_layout
from repro.compiler.lower import FunctionLowerer, OffloadEntryLowerer

if TYPE_CHECKING:
    from repro.compiler.cache import CompileCache


@dataclass(frozen=True)
class CompileOptions:
    """Target-independent compiler knobs.

    Attributes:
        wordaddr_mode: ``"hybrid"`` — the paper's scheme (static errors
            for inefficient byte arithmetic, cheap constant extracts);
            ``"emulate"`` — the all-byte-pointers baseline that converts
            on every dereference (Section 5's rejected alternative,
            kept for the E8 benchmark).
        default_cache: Cache kind used by offload blocks without an
            explicit ``cache(...)`` annotation: "none" (raw per-access
            DMA), "direct", "setassoc" or "victim" (the
            :data:`repro.runtime.cachekinds.CACHE_KIND_CHOICES`
            registry).
        optimize: Run the IR optimisation pipeline (constant folding,
            copy propagation, dead code elimination) on every function.
        demand_load: Compile an all-outer duplicate of *every* virtual
            method into every offload's domain, marked for on-demand
            code loading — the Section 4.1 "elaboration": no
            missing-duplicate exceptions for outer receivers, at a
            first-dispatch code-upload cost per accelerator.
        dump_ir: Attach a printable IR dump to the program (debugging).
        analyze: Run the whole-program static analyses (DMA discipline,
            local-store footprint, outer traffic, annotation coverage)
            as a pipeline pass; findings land on the pass context.
    """

    wordaddr_mode: str = "hybrid"
    default_cache: str = "none"
    optimize: bool = False
    demand_load: bool = False
    dump_ir: bool = False
    analyze: bool = False

    def __post_init__(self) -> None:
        if self.wordaddr_mode not in ("hybrid", "emulate"):
            raise ValueError(
                f"wordaddr_mode must be 'hybrid' or 'emulate', "
                f"got {self.wordaddr_mode!r}"
            )
        if self.default_cache not in CACHE_KIND_CHOICES:
            raise ValueError(f"unknown default cache {self.default_cache!r}")


def offload_entry_name(offload_id: int) -> str:
    """Mangled name of the IR entry function for one offload block."""
    return f"__offload_{offload_id}"


class Compiler:
    """Shared state while compiling one analysed program for one target.

    The pass manager drives the pipeline; this object carries what the
    passes and the lowerers both need: the layout, the automatic
    call-graph duplication worklist, and the program being built.
    """

    def __init__(
        self,
        info: SemanticInfo,
        config: MachineConfig,
        options: CompileOptions,
    ):
        self.info = info
        self.config = config
        self.options = options
        word_align = config.word_size if config.word_addressed else 1
        self.layout: LayoutResult = compute_layout(info, word_align)
        problem = config.static_data_error(self.layout.data_end)
        if problem is not None:
            raise CompileError.single("E-static-data", problem)
        self.program = IRProgram(target_name=config.name)
        self._worklist: deque[tuple] = deque()
        self._scheduled: set[str] = set()

    # ------------------------------------------------------------ requests

    def duplicate_name(
        self, decl: ast.FuncDecl, offload: ast.OffloadExpr, sig: str
    ) -> str:
        return f"{decl.qualified_name}@{offload.offload_id}${sig}"

    def request_duplicate(
        self,
        decl: ast.FuncDecl,
        owner: Optional[ClassType],
        sig: str,
        offload: ast.OffloadExpr,
    ) -> str:
        """Queue an accelerator duplicate; returns its mangled name."""
        name = self.duplicate_name(decl, offload, sig)
        if name not in self._scheduled:
            self._scheduled.add(name)
            self._worklist.append(("dup", decl, owner, sig, offload, name))
        return name

    def request_offload_entry(self, offload: ast.OffloadExpr) -> str:
        name = offload_entry_name(offload.offload_id)
        if name not in self._scheduled:
            self._scheduled.add(name)
            self._worklist.append(("entry", offload, name))
        return name

    # -------------------------------------------------------- pass bodies

    def _owner_of(self, decl: ast.FuncDecl) -> Optional[ClassType]:
        if decl.owner is None:
            return None
        return self.info.classes[decl.owner]

    def lower_host_instances(self) -> None:
        """Lower every source function's host instance (``lower-host``)."""
        for qname in sorted(self.info.functions):
            decl = self.info.functions[qname]
            lowerer = FunctionLowerer(
                self,
                decl,
                self._owner_of(decl),
                space="host",
                sig="",
                offload=None,
                mangled=qname,
            )
            self.program.functions[qname] = lowerer.compile()

    def drain_worklist(self) -> None:
        """Lower queued offload entries and accelerator duplicates FIFO
        until none remain (``drain-duplicates``) — lowering one duplicate
        may enqueue more."""
        worklist = self._worklist
        while worklist:
            job = worklist.popleft()
            if job[0] == "entry":
                _, offload, name = job
                lowerer = OffloadEntryLowerer(self, offload, name)
                self.program.functions[name] = lowerer.compile()
            else:
                _, decl, owner, sig, offload, name = job
                lowerer = FunctionLowerer(
                    self,
                    decl,
                    owner,
                    space="accel",
                    sig=sig,
                    offload=offload,
                    mangled=name,
                )
                self.program.functions[name] = lowerer.compile()


def compile_program(
    source: str,
    config: "MachineConfig | str",
    options: Optional[CompileOptions] = None,
    filename: str = "<input>",
    cache: Optional["CompileCache"] = None,
) -> IRProgram:
    """Compile OffloadMini source text for a target machine.

    ``config`` is a :class:`MachineConfig` or a registered target name
    (``"cell"``, ``"apu"``, ... — resolved through
    :func:`repro.machine.config.resolve_target`, unknown names rejected
    with the known-name list before any compilation work happens).

    When a compile cache is available — passed explicitly, or activated
    process-wide by pointing ``REPRO_COMPILE_CACHE`` at a directory —
    the (source, target config, options) triple is hashed and a stored
    artifact is deserialized instead of re-running the pass pipeline.
    The resolved target config — cost model included — is part of the
    key, so one cache directory serves every target without collisions.
    Cached or fresh, the returned program is a freshly built object
    graph, never shared with earlier calls.

    Raises :class:`repro.errors.CompileError` (or a subclass) on any
    lexical, syntactic, semantic or memory-space error.
    """
    from repro.compiler.cache import compile_cache_key, resolve_cache
    from repro.compiler.passes import PassManager

    config = resolve_target(config, source="compile_program")
    options = options or CompileOptions()
    cache = resolve_cache(cache)
    key = None
    if cache is not None:
        key = compile_cache_key(source, config, options)
        cached = cache.load(key)
        if cached is not None:
            return cached
    ctx = PassManager.default().run(source, config, options, filename)
    if cache is not None and key is not None:
        cache.store(key, ctx.program)
    return ctx.program


def analyze_source(source: str, filename: str = "<input>") -> SemanticInfo:
    """Parse and type-check only (used by analysis tooling)."""
    return analyze(parse_program(source, filename))
