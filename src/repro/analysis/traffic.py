"""Outer-traffic analysis: flag uncached hot outer loops.

On a scratch-pad machine every :data:`AccSpace.OUTER` load or store an
offload executes crosses the memory-space boundary.  Without a software
cache the runtime's :class:`repro.vm.context.RawDmaStrategy` turns each
one into a blocking bounce-buffer DMA round trip — two orders of
magnitude slower than a local access under the default cost model.  An
outer access *inside a loop* pays that toll every iteration; the paper's
§5 guidance is to either put a software cache in front of the accesses
or batch them into one bulk DMA outside the loop.  This analysis
mechanizes the guidance.

For every natural loop of every accel function reachable from an
*uncached* offload block, the analysis counts outer access sites
(``Load``/``Store``/``Copy`` touching OUTER space), reads their
addresses from the function's interval solve (the one the bounds and
DMA-discipline checks read; :mod:`repro.analysis.intervals`), and
*coalesces* sites that provably hit the same constant address (those
would share a cache line or a single batched transfer).  Loops whose
coalesced count meets :data:`HOT_LOOP_THRESHOLD` get
``W-outer-loop-traffic`` with a concrete per-iteration byte estimate
and the two §5 remedies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Finding
from repro.analysis.footprint import reachable_functions
from repro.analysis.intervals import (
    AbsAddr,
    AbsInt,
    SolvedFunction,
    compute_summaries,
    solved_function,
)
from repro.ir.instructions import AccSpace, Copy, Load, Store
from repro.ir.module import IRFunction, IRProgram

#: Minimum coalesced outer-access sites per loop iteration to warn.
HOT_LOOP_THRESHOLD = 1


@dataclass(frozen=True)
class OuterAccess:
    """One outer-memory access site inside a loop body."""

    instr_index: int
    kind: str  # "load" | "store" | "copy-in" | "copy-out"
    size: int
    addr: object  # AbsAddr | AbsInt | None (statically unresolved)


@dataclass(frozen=True)
class LoopTraffic:
    """Per-loop result: raw sites, coalesced count and byte estimate."""

    function: str
    header_index: int  # first instruction index of the loop header
    accesses: tuple[OuterAccess, ...]
    coalesced_sites: int
    bytes_per_iteration: int


def _outer_accesses_in(
    solved: SolvedFunction, body: frozenset
) -> list[OuterAccess]:
    """Outer access sites in a loop body, with the addresses the solve
    gives them (an address computed before the loop resolves inside it)."""
    accesses: list[OuterAccess] = []
    for block_index in sorted(body):
        for index, instr, regs, _ in solved.walk(solved.cfg.blocks[block_index]):
            if isinstance(instr, Load) and instr.space is AccSpace.OUTER:
                accesses.append(
                    OuterAccess(index, "load", instr.size, regs.get(instr.addr))
                )
            elif isinstance(instr, Store) and instr.space is AccSpace.OUTER:
                accesses.append(
                    OuterAccess(index, "store", instr.size, regs.get(instr.addr))
                )
            elif isinstance(instr, Copy):
                if instr.src_space is AccSpace.OUTER:
                    accesses.append(
                        OuterAccess(
                            index, "copy-in", instr.size, regs.get(instr.src_addr)
                        )
                    )
                if instr.dst_space is AccSpace.OUTER:
                    accesses.append(
                        OuterAccess(
                            index, "copy-out", instr.size, regs.get(instr.dst_addr)
                        )
                    )
    return accesses


def _coalesce(accesses: list[OuterAccess]) -> tuple[int, int]:
    """(coalesced site count, bytes per iteration).

    Sites whose addresses are the same constant — one region and
    offset, or one absolute address — merge (the widest access wins).
    Any other address stays distinct, even when two sites hold equal
    ranges: a range says where an access may land, not that two
    accesses land together.
    """
    merged: dict[object, int] = {}
    distinct = 0
    distinct_bytes = 0
    for access in accesses:
        addr = access.addr
        if type(addr) is AbsAddr and addr.offset.const_value is not None:
            key = (addr.region, addr.offset.const_value)
        elif type(addr) is AbsInt and addr.const_value is not None:
            key = ("absolute", addr.const_value)
        else:
            distinct += 1
            distinct_bytes += access.size
            continue
        merged[key] = max(merged.get(key, 0), access.size)
    return distinct + len(merged), distinct_bytes + sum(merged.values())


def analyze_function(
    function: IRFunction, summaries=None
) -> list[LoopTraffic]:
    """Loop traffic summaries for one accel function (cache-agnostic),
    read off its interval solve against ``summaries``
    (:func:`repro.analysis.intervals.solved_function`)."""
    solved = solved_function(function, summaries)
    cfg = solved.cfg
    out: list[LoopTraffic] = []
    for loop in cfg.natural_loops():
        accesses = _outer_accesses_in(solved, loop.body)
        if not accesses:
            continue
        sites, nbytes = _coalesce(accesses)
        out.append(
            LoopTraffic(
                function=function.name,
                header_index=cfg.blocks[loop.header].start,
                accesses=tuple(accesses),
                coalesced_sites=sites,
                bytes_per_iteration=nbytes,
            )
        )
    return out


def uncached_reachable(program: IRProgram) -> set[str]:
    """Accel functions reachable from at least one *uncached* offload.

    Functions reachable only from cached offloads are exempt from the
    traffic warning: their outer accesses hit the software cache, which
    is precisely the remedy the warning suggests.
    """
    reach: set[str] = set()
    for meta in program.offload_meta.values():
        if meta.cache_kind is None:
            reach |= reachable_functions(program, meta)
    return reach


def check_function(
    function: IRFunction, *, summaries=None, file: str = "<input>"
) -> list[Finding]:
    """``W-outer-loop-traffic`` findings for one (uncached) function."""
    findings: list[Finding] = []
    for loop in analyze_function(function, summaries):
        if loop.coalesced_sites < HOT_LOOP_THRESHOLD:
            continue
        raw = len(loop.accesses)
        coalesced = (
            f"{loop.coalesced_sites} coalesced outer access"
            f"{'es' if loop.coalesced_sites != 1 else ''}"
        )
        if raw != loop.coalesced_sites:
            coalesced += f" ({raw} sites before coalescing)"
        findings.append(
            Finding(
                code="W-outer-loop-traffic",
                message=(
                    f"loop at instruction {loop.header_index} performs "
                    f"{coalesced}, ~{loop.bytes_per_iteration} bytes, "
                    f"per iteration in uncached offload code"
                ),
                file=file,
                function=function.name,
                instr_index=loop.header_index,
                notes=(
                    "each access is a blocking bounce-buffer DMA round "
                    "trip; annotate the offload block with cache(...) "
                    "or hoist the accesses into one bulk dma_get/"
                    "dma_put outside the loop",
                ),
                analysis="outer-traffic",
            )
        )
    return findings


def check_program(
    program: IRProgram, *, file: str = "<input>"
) -> list[Finding]:
    """``W-outer-loop-traffic`` findings for uncached offload blocks."""
    reach = uncached_reachable(program)
    functions = sorted(program.accel_functions(), key=lambda f: f.name)
    summaries = compute_summaries(functions)
    findings: list[Finding] = []
    for function in functions:
        if function.name in reach:
            findings.extend(
                check_function(function, summaries=summaries, file=file)
            )
    return findings
