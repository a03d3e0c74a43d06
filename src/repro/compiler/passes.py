"""The pass-manager compilation pipeline.

The driver used to be one monolithic ``Compiler.compile()``; this module
replaces it with an explicit registry of named, ordered passes:

    parse -> sema -> layout -> domains -> offload-meta -> lower-host
          -> drain-duplicates -> optimize -> validate

Each pass is a plain function over a shared :class:`PassContext`; the
:class:`PassManager` runs them in order, records per-pass wall-clock
timings, and can capture a human-readable dump after any pass (the
``--dump-after=<pass>`` hook in ``repro.tools.run``).

The per-offload work is deliberately split in two: ``domains`` builds
the Figure 3 outer/inner tables (queueing accelerator duplicates on the
worklist as a side effect), and ``offload-meta`` then assembles the
:class:`~repro.ir.module.OffloadMeta` records.  ``drain-duplicates``
processes the worklist FIFO, so lowering one duplicate may enqueue
further duplicates — the paper's automatic call-graph duplication.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.lang.parser import parse_program
from repro.lang.sema import analyze
from repro.machine.config import MachineConfig
from repro.obs.trace import EV_PASS, NULL_RECORDER


class PassContext:
    """Everything the passes read and write while compiling one program.

    Front-end passes populate ``ast_program`` and ``info``; the
    ``layout`` pass creates the :class:`~repro.compiler.driver.Compiler`
    (which owns the worklist and the growing
    :class:`~repro.ir.module.IRProgram`); later passes refine
    ``compiler.program``, which :attr:`program` exposes once available.
    """

    def __init__(
        self,
        source: str,
        config: MachineConfig,
        options,  # CompileOptions; untyped to avoid a driver import cycle
        filename: str = "<input>",
    ):
        self.source = source
        self.config = config
        self.options = options
        self.filename = filename
        self.ast_program = None
        self.info = None
        self.compiler = None
        #: offload_id -> DomainTable, built by the ``domains`` pass.
        self.domain_tables: dict[int, object] = {}
        #: (pass name, seconds, ran) per executed pipeline slot.
        self.timings: list[PassTiming] = []
        #: pass name -> dump text, for passes named in ``dump_after``.
        self.dumps: dict[str, str] = {}
        #: The trace recorder the pipeline was run with (``analyze``
        #: forwards it so analysis spans land next to pass spans).
        self.trace = NULL_RECORDER
        #: Findings from the ``analyze`` pass (when options.analyze).
        self.findings: list = []
        #: Per-analysis timings from the ``analyze`` pass.
        self.analysis_timings: list = []

    @property
    def program(self):
        """The IR program under construction (after the layout pass)."""
        if self.compiler is None:
            return None
        return self.compiler.program


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass in one compilation."""

    name: str
    seconds: float
    ran: bool = True


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage.

    Attributes:
        name: Stable identifier (``--dump-after`` operand, registry key).
        run: The pass body.
        description: One line for ``--help`` and docs.
        dump: Renders the pipeline state after this pass (None: a dump
            request falls back to a generic context summary).
        skip: When provided and true for a context, the pass is recorded
            as skipped instead of run (e.g. ``optimize`` without ``-O``).
    """

    name: str
    run: Callable[[PassContext], None]
    description: str = ""
    dump: Optional[Callable[[PassContext], str]] = None
    skip: Optional[Callable[[PassContext], bool]] = None


class PassManager:
    """An ordered, name-addressable registry of compilation passes."""

    def __init__(self, passes: Optional[list[Pass]] = None):
        self._passes: list[Pass] = list(passes) if passes else []
        names = [p.name for p in self._passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in {names}")

    # ----------------------------------------------------------- registry

    @property
    def passes(self) -> tuple[Pass, ...]:
        return tuple(self._passes)

    def names(self) -> list[str]:
        return [p.name for p in self._passes]

    def get(self, name: str) -> Pass:
        for p in self._passes:
            if p.name == name:
                return p
        raise KeyError(f"no pass named {name!r}; have {self.names()}")

    # ---------------------------------------------------------- execution

    def run(
        self,
        source: str,
        config: MachineConfig,
        options,
        filename: str = "<input>",
        *,
        stop_after: Optional[str] = None,
        dump_after: tuple[str, ...] = (),
        trace=NULL_RECORDER,
    ) -> PassContext:
        """Run the pipeline over one source; returns the final context.

        ``stop_after`` ends the pipeline early (debugging: the program
        may be incomplete).  ``dump_after`` captures the named passes'
        dumps into ``ctx.dumps``.  ``trace`` receives one ``pass.span``
        event per pipeline slot on the ``compile`` track, stamped with
        *wall-clock* microseconds (compilation has no simulated clock) —
        keep compile spans out of recorders whose exports must be
        deterministic.
        """
        for name in (stop_after, *dump_after):
            if name is not None:
                self.get(name)  # raise early on typos
        ctx = PassContext(source, config, options, filename)
        ctx.trace = trace
        elapsed_us = 0
        for p in self._passes:
            if p.skip is not None and p.skip(ctx):
                ctx.timings.append(PassTiming(p.name, 0.0, ran=False))
                if trace.enabled:
                    trace.emit(elapsed_us, "compile", EV_PASS, (p.name, 0, 0))
            else:
                start = time.perf_counter()
                p.run(ctx)
                seconds = time.perf_counter() - start
                ctx.timings.append(PassTiming(p.name, seconds))
                if trace.enabled:
                    duration_us = int(seconds * 1_000_000)
                    trace.emit(
                        elapsed_us, "compile", EV_PASS,
                        (p.name, duration_us, 1),
                    )
                    elapsed_us += duration_us
            if p.name in dump_after:
                ctx.dumps[p.name] = (
                    p.dump(ctx) if p.dump is not None else _generic_dump(ctx)
                )
            if p.name == stop_after:
                break
        return ctx

    @classmethod
    def default(cls) -> "PassManager":
        """The standard nine-pass pipeline."""
        return cls(list(_DEFAULT_PASSES))


def format_timings(timings: list[PassTiming]) -> str:
    """Render per-pass timings as an aligned table (``--time-passes``)."""
    total = sum(t.seconds for t in timings)
    lines = ["pass                 seconds      share"]
    for t in timings:
        if not t.ran:
            lines.append(f"{t.name:20s}        (skipped)")
            continue
        share = (t.seconds / total * 100.0) if total > 0 else 0.0
        lines.append(f"{t.name:20s} {t.seconds:10.6f} {share:9.1f}%")
    lines.append(f"{'total':20s} {total:10.6f}")
    return "\n".join(lines)


# ------------------------------------------------------------ pass bodies


def _pass_parse(ctx: PassContext) -> None:
    ctx.ast_program = parse_program(ctx.source, ctx.filename)


def _dump_parse(ctx: PassContext) -> str:
    program = ctx.ast_program
    lines = [f"; parsed {ctx.filename}"]
    for decl in program.classes:
        lines.append(f"class {decl.name}")
    for decl in program.globals:
        lines.append(f"global {decl.name}")
    for decl in program.functions:
        lines.append(f"func {decl.name}")
    return "\n".join(lines)


def _pass_sema(ctx: PassContext) -> None:
    ctx.info = analyze(ctx.ast_program)


def _dump_sema(ctx: PassContext) -> str:
    info = ctx.info
    lines = [
        f"; sema: {len(info.functions)} function(s), "
        f"{len(info.classes)} class(es), {len(info.globals)} global(s), "
        f"{len(info.offloads)} offload(s)"
    ]
    for qname in sorted(info.functions):
        lines.append(f"func {qname}")
    for offload in info.offloads:
        lines.append(
            f"offload #{offload.offload_id} "
            f"domain={len(offload.domain)} cache={offload.cache_kind}"
        )
    return "\n".join(lines)


def _pass_layout(ctx: PassContext) -> None:
    from repro.compiler.driver import Compiler
    from repro.compiler.layout import apply_layout

    ctx.compiler = Compiler(ctx.info, ctx.config, ctx.options)
    apply_layout(ctx.compiler.program, ctx.compiler.layout)


def _dump_layout(ctx: PassContext) -> str:
    program = ctx.program
    lines = [f"; layout for {program.target_name}"]
    for name, slot in sorted(program.globals.items()):
        lines.append(f"global {name} @ {slot.address:#x} ({slot.size} bytes)")
    for class_name, address in sorted(program.vtables.items()):
        lines.append(f"vtable {class_name} @ {address:#x}")
    lines.append(f"data_end {program.data_end:#x}")
    return "\n".join(lines)


def _pass_domains(ctx: PassContext) -> None:
    from repro.compiler import domains as domains_mod

    compiler = ctx.compiler
    for offload in compiler.info.offloads:
        compiler.request_offload_entry(offload)
        table = domains_mod.build_domain_table(compiler, offload)
        if ctx.options.demand_load and not ctx.config.shared_memory:
            domains_mod.add_demand_entries(compiler, offload, table)
        ctx.domain_tables[offload.offload_id] = table


def _dump_domains(ctx: PassContext) -> str:
    lines = []
    for offload_id in sorted(ctx.domain_tables):
        table = ctx.domain_tables[offload_id]
        lines.append(f"offload #{offload_id}: {len(table)} outer entr(ies)")
        for address, name, row in zip(
            table.outer, table.method_names, table.inner
        ):
            ids = ", ".join(
                e.duplicate_id + ("?" if e.demand else "") for e in row
            )
            lines.append(f"  {address:#x} {name} [{ids}]")
    return "\n".join(lines) or "; no offloads"


def _pass_offload_meta(ctx: PassContext) -> None:
    from repro.compiler.driver import offload_entry_name
    from repro.ir.module import OffloadMeta
    from repro.runtime.cachekinds import NO_CACHE

    compiler = ctx.compiler
    for offload in compiler.info.offloads:
        cache_kind = offload.cache_kind or ctx.options.default_cache
        compiler.program.offload_meta[offload.offload_id] = OffloadMeta(
            offload_id=offload.offload_id,
            entry=offload_entry_name(offload.offload_id),
            cache_kind=None if cache_kind == NO_CACHE else cache_kind,
            domain=ctx.domain_tables[offload.offload_id],
            annotation_count=len(offload.domain),
            capture_names=[s.name for s in offload.captures],
        )


def _dump_offload_meta(ctx: PassContext) -> str:
    lines = []
    for meta in ctx.program.offload_meta.values():
        lines.append(
            f"offload #{meta.offload_id} entry={meta.entry} "
            f"cache={meta.cache_kind} domain={len(meta.domain)} "
            f"captures={meta.capture_names}"
        )
    return "\n".join(lines) or "; no offloads"


def _pass_lower_host(ctx: PassContext) -> None:
    ctx.compiler.lower_host_instances()


def _dump_host_ir(ctx: PassContext) -> str:
    from repro.ir.printer import format_function

    return "\n\n".join(
        format_function(fn)
        for fn in ctx.program.host_functions()
    )


def _pass_drain_duplicates(ctx: PassContext) -> None:
    ctx.compiler.drain_worklist()


def _dump_accel_ir(ctx: PassContext) -> str:
    from repro.ir.printer import format_function

    return "\n\n".join(
        format_function(fn)
        for fn in ctx.program.accel_functions()
    ) or "; no accelerator functions"


def _pass_optimize(ctx: PassContext) -> None:
    from repro.compiler.optimize import optimize_program

    optimize_program(ctx.program.functions)


def _skip_optimize(ctx: PassContext) -> bool:
    return not ctx.options.optimize


def _pass_validate(ctx: PassContext) -> None:
    ctx.program.validate()


def _pass_analyze(ctx: PassContext) -> None:
    from repro.analysis.runner import run_analyses

    result = run_analyses(
        ctx.program,
        ctx.config,
        info=ctx.info,
        file=ctx.filename,
        trace=ctx.trace,
    )
    ctx.findings = result.findings
    ctx.analysis_timings = result.timings


def _skip_analyze(ctx: PassContext) -> bool:
    return not getattr(ctx.options, "analyze", False)


def _dump_analyze(ctx: PassContext) -> str:
    return "\n".join(f.render() for f in ctx.findings) or "; no findings"


def _dump_program(ctx: PassContext) -> str:
    from repro.ir.printer import format_program

    return format_program(ctx.program)


def _generic_dump(ctx: PassContext) -> str:
    if ctx.program is not None:
        return _dump_program(ctx)
    return f"; context for {ctx.filename} (no IR program yet)"


_DEFAULT_PASSES: tuple[Pass, ...] = (
    Pass("parse", _pass_parse, "source text -> AST", _dump_parse),
    Pass("sema", _pass_sema, "type/space checking -> SemanticInfo", _dump_sema),
    Pass(
        "layout",
        _pass_layout,
        "place globals/vtables, assign function ids",
        _dump_layout,
    ),
    Pass(
        "domains",
        _pass_domains,
        "build Figure 3 domain tables, queue duplicates",
        _dump_domains,
    ),
    Pass(
        "offload-meta",
        _pass_offload_meta,
        "assemble per-offload metadata records",
        _dump_offload_meta,
    ),
    Pass("lower-host", _pass_lower_host, "lower host function instances", _dump_host_ir),
    Pass(
        "drain-duplicates",
        _pass_drain_duplicates,
        "lower offload entries and accelerator duplicates (worklist)",
        _dump_accel_ir,
    ),
    Pass(
        "optimize",
        _pass_optimize,
        "IR optimisation pipeline (when CompileOptions.optimize)",
        _dump_program,
        skip=_skip_optimize,
    ),
    Pass("validate", _pass_validate, "structural sanity checks", _dump_program),
    Pass(
        "analyze",
        _pass_analyze,
        "whole-program static analyses (when CompileOptions.analyze)",
        _dump_analyze,
        skip=_skip_analyze,
    ),
)

#: Names of the standard pipeline, in order (argparse choices etc.).
DEFAULT_PASS_NAMES: tuple[str, ...] = tuple(p.name for p in _DEFAULT_PASSES)
