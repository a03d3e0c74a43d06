"""Static DMA bounds and alignment checking over the interval domain.

The dynamic DMA engine (:mod:`repro.machine.dma`) validates transfers
against the *whole* local store and *whole* main memory — a loop-
computed transfer that walks past the end of its own buffer into a
neighbouring global corrupts data silently and passes every PR 4
check.  This checker consumes the interval × congruence analysis
(:mod:`repro.analysis.intervals`) to prove each ``dma_get`` /
``dma_put`` / accessor bulk transfer fits its source and destination
extents:

* the **outer** side against the byte size of the global it addresses
  (:class:`repro.ir.module.GlobalSlot`),
* the **local** side against the issuing function's frame reservation,
* the absolute address against the target's DMA alignment
  (:attr:`repro.machine.config.MachineConfig.dma_align`), using the
  congruence domain — a 24-byte stride from an 8-aligned base is
  *proven* aligned, not assumed,
* the transfer size against the paper's many-small-DMAs anti-pattern
  (§5: latency-bound transfers under ~one cache line each).

Codes:

* ``E-dma-oob`` — the transfer provably exceeds a known buffer extent
  on some iteration.  Reported only when the address and size intervals
  are *finite* (the loop analysis bounded them), which is what keeps
  this error-severity check free of false positives: an unknown bound
  stays quiet rather than guessing.
* ``W-dma-unaligned`` — every attainable transfer address is provably
  misaligned for the target's DMA engine.
* ``W-dma-tiny-transfer`` — a DMA issued inside a loop moves provably
  fewer than :data:`TINY_DMA_BYTES` bytes per trip; setup/latency
  dominates (the paper's "many small DMAs" anti-pattern).

Interprocedural findings carry related locations: the loop back edge
that makes the address loop-carried, and the call sites through which
an offload entry reaches the issuing function.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import Finding, RelatedLocation
from repro.analysis.intervals import (
    AbsAddr,
    AbsInt,
    Congruence,
    SolvedFunction,
    compute_summaries,
    solved_function,
)
from repro.ir.instructions import Call, Intrinsic
from repro.ir.module import IRFunction, IRProgram
from repro.machine.config import MachineConfig

#: Below this many bytes, a DMA inside a loop is latency-dominated —
#: the §5 "many small transfers" anti-pattern.  One cache line of the
#: software cache (128 bytes) comfortably clears it; the Figure 1
#: per-entity transfers (24 bytes) deliberately do not get flagged:
#: the threshold targets sub-16-byte scalar-ish traffic.
TINY_DMA_BYTES = 16

#: Frames are allocated 16-aligned by the runtime FrameStack, so frame
#: offsets decide local-side alignment down to this grain.
_FRAME_ALIGN = 16

#: (intrinsic name, local-arg position, outer-arg position, size-arg
#: position, direction) for every bulk-transfer intrinsic.
_DMA_SITES = {
    "dma_get": (0, 1, 2, "get"),
    "dma_put": (0, 1, 2, "put"),
    "acc_bulk_get": (0, 1, 2, "get"),
    "acc_bulk_put": (0, 1, 2, "put"),
}


def _global_extent(program: IRProgram, region: str) -> Optional[tuple[str, int, int]]:
    """(name, base address, byte size) for a ``global:`` region."""
    if not region.startswith("global:"):
        return None
    name = region[len("global:"):]
    slot = program.globals.get(name)
    if slot is None:
        return None
    return name, slot.address, slot.size


def _loop_related(
    solved: SolvedFunction, instr_index: int, file: str
) -> tuple[RelatedLocation, ...]:
    """The back edge of the innermost loop around one instruction."""
    block = solved.cfg.block_at(instr_index)
    enclosing = [
        loop
        for loop in solved.cfg.natural_loops()
        if block.index in loop.body
    ]
    if not enclosing:
        return ()
    innermost = min(enclosing, key=lambda loop: len(loop.body))
    latches = [
        u for u, header in solved.cfg.back_edges() if header == innermost.header
    ]
    if not latches:
        return ()
    latch_end = solved.cfg.blocks[latches[0]].end - 1
    return (
        RelatedLocation(
            message=(
                "the transfer address varies around this loop back edge"
            ),
            file=file,
            function=solved.function.name,
            instr_index=latch_end,
        ),
    )


def _call_chain_related(
    program: IRProgram, function: IRFunction, file: str
) -> tuple[RelatedLocation, ...]:
    """Call sites in *other* accel functions reaching ``function`` —
    the interprocedural path an offload entry takes to the DMA site."""
    related = []
    for caller in sorted(program.accel_functions(), key=lambda f: f.name):
        if caller.name == function.name:
            continue
        for index, instr in enumerate(caller.code):
            if isinstance(instr, Call) and instr.callee == function.name:
                related.append(
                    RelatedLocation(
                        message=f"called from {caller.name}",
                        file=file,
                        function=caller.name,
                        instr_index=index,
                    )
                )
    return tuple(related[:4])  # keep diagnostics readable


def _in_loop(solved: SolvedFunction, instr_index: int) -> bool:
    block = solved.cfg.block_at(instr_index)
    return any(
        block.index in loop.body for loop in solved.cfg.natural_loops()
    )


def _check_extent(
    *,
    what: str,
    extent_name: str,
    extent: int,
    offset: AbsInt,
    size: AbsInt,
) -> Optional[str]:
    """An overrun message when ``[offset, offset+size)`` provably leaves
    ``[0, extent)`` on some attainable iteration; None when in bounds
    or not finitely bounded (no guessing at error severity)."""
    iv, sz = offset.interval, size.interval
    if not (iv.bounded and sz.bounded):
        return None
    if iv.lo < 0:
        return (
            f"the {what} address reaches byte {iv.lo} of {extent_name}, "
            f"before its start"
        )
    if iv.hi + sz.hi > extent:
        return (
            f"the {what} side spans bytes [{iv.lo}, {iv.hi + sz.hi}) of "
            f"{extent_name}, which holds only {extent} bytes"
        )
    return None


def check_function(
    program: IRProgram,
    function: IRFunction,
    config: MachineConfig,
    *,
    summaries=None,
    file: str = "<input>",
) -> list[Finding]:
    """Bounds/alignment findings for one accelerator function."""
    solved = solved_function(function, summaries)
    findings: list[Finding] = []
    align = config.dma_align
    for index, instr in enumerate(function.code):
        if not isinstance(instr, Intrinsic) or instr.name not in _DMA_SITES:
            continue
        local_arg, outer_arg, size_arg, direction = _DMA_SITES[instr.name]
        regs = solved.values_before(index)
        local = regs.get(instr.args[local_arg])
        outer = regs.get(instr.args[outer_arg])
        size = regs.get(instr.args[size_arg])
        if not isinstance(size, AbsInt):
            size = AbsInt()
        related = _loop_related(solved, index, file)
        if not function.source_name.startswith("__offload_"):
            related += _call_chain_related(program, function, file)

        overruns: list[str] = []
        if isinstance(outer, AbsAddr):
            extent = _global_extent(program, outer.region)
            if extent is not None:
                name, _, nbytes = extent
                message = _check_extent(
                    what="outer",
                    extent_name=f"global '{name}'",
                    extent=nbytes,
                    offset=outer.offset,
                    size=size,
                )
                if message:
                    overruns.append(message)
        if isinstance(local, AbsAddr) and local.region == "frame":
            message = _check_extent(
                what="local",
                extent_name="the frame reservation",
                extent=function.frame_size,
                offset=local.offset,
                size=size,
            )
            if message:
                overruns.append(message)
        for message in overruns:
            findings.append(
                Finding(
                    code="E-dma-oob",
                    message=(
                        f"{instr.name} at instruction {index} is provably "
                        f"out of bounds: {message}"
                    ),
                    file=file,
                    function=function.name,
                    instr_index=index,
                    notes=(
                        "the DMA engine only validates whole-store bounds "
                        "at run time; this transfer would silently corrupt "
                        "adjacent data — clamp the loop bound or split the "
                        "transfer",
                    ),
                    analysis="dma-bounds",
                    related=related,
                )
            )

        if align > 1 and not overruns:
            misaligned: list[str] = []
            if isinstance(outer, AbsAddr):
                extent = _global_extent(program, outer.region)
                if extent is not None:
                    _, base, _ = extent
                    absolute = outer.offset.cong.add(Congruence.const(base))
                    if absolute.aligned_to(align) is False:
                        misaligned.append(
                            f"outer address ≡ {absolute.rem} "
                            f"(mod {absolute.mod or align})"
                        )
            if (
                isinstance(local, AbsAddr)
                and local.region == "frame"
                and align <= _FRAME_ALIGN
                and local.offset.cong.aligned_to(align) is False
            ):
                cong = local.offset.cong
                misaligned.append(
                    f"local address ≡ {cong.rem} (mod {cong.mod or align})"
                )
            if misaligned:
                findings.append(
                    Finding(
                        code="W-dma-unaligned",
                        message=(
                            f"{instr.name} at instruction {index} is "
                            f"provably misaligned for {config.name}'s "
                            f"{align}-byte DMA alignment: "
                            f"{'; '.join(misaligned)}"
                        ),
                        file=file,
                        function=function.name,
                        instr_index=index,
                        notes=(
                            "unaligned transfers take the slow path on "
                            "every target with a real DMA engine; pad the "
                            "struct or round the offset",
                        ),
                        analysis="dma-bounds",
                        related=related,
                    )
                )

        if (
            instr.name in ("dma_get", "dma_put")
            and size.interval.hi is not None
            and size.interval.hi < TINY_DMA_BYTES
            and _in_loop(solved, index)
        ):
            findings.append(
                Finding(
                    code="W-dma-tiny-transfer",
                    message=(
                        f"{instr.name} at instruction {index} moves at "
                        f"most {size.interval.hi} bytes per loop "
                        f"iteration; setup+latency dominate transfers "
                        f"under {TINY_DMA_BYTES} bytes"
                    ),
                    file=file,
                    function=function.name,
                    instr_index=index,
                    notes=(
                        "batch the loop's transfers into one bulk "
                        "dma_get/dma_put outside the loop, or use an "
                        "accessor with a software cache",
                    ),
                    analysis="dma-bounds",
                    related=related,
                )
            )
    return findings


def check_program(
    program: IRProgram,
    config: MachineConfig,
    *,
    file: str = "<input>",
) -> list[Finding]:
    """Bounds/alignment findings for every accelerator function.

    Shared-memory targets lower DMA to plain copies — there are no
    transfer sites left to check, so the walk is a cheap no-op there.
    """
    functions = sorted(program.accel_functions(), key=lambda f: f.name)
    summaries = compute_summaries(functions)
    findings: list[Finding] = []
    for function in functions:
        findings.extend(
            check_function(
                program, function, config, summaries=summaries, file=file
            )
        )
    return findings
