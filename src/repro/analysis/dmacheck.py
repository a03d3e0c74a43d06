"""Flow-sensitive, interprocedural DMA-discipline checking.

The static side of the paper's DMA race tooling (Scratch, TACAS 2010):
this checker runs the abstract semantics through the dataflow framework
(:mod:`repro.analysis.dataflow`), so the set of issued-but-unwaited
transfers flows *across* branches and around loop back edges.  The
Figure 1 collision pattern with a forgotten wait between iterations —
which a per-basic-block analysis provably misses — is reported
statically here.

Abstract state per program point:

* register values (the shared symbolic-address domain),
* the set of in-flight :class:`PendingTransfer` records,
* the set of DMA tags possibly issued so far (orphan-wait detection),
* the set of tags *definitely* waited on every path (summaries).

Joins union the pending set (a transfer in flight on either path may be
in flight at the merge), pointwise-join register values, union issued
tags and intersect waited tags.  Loop-carried growth is bounded by
collapsing pending transfers that originate at the same instruction —
their addresses are joined, widening disagreeing offsets to
"unknown offset within the region" — so the fixpoint always converges.

Interprocedural reasoning uses per-function :class:`FunctionSummary`
records computed to a global fixpoint over the accelerator call graph:
tags a callee may issue, transfers it may leave in flight at return
(propagated into the caller's pending set), and tags it is guaranteed
to wait for (which fence the caller's earlier transfers).

Diagnostic codes (see :mod:`repro.analysis.diagnostics`):

* ``E-dma-race`` — two in-flight transfers may overlap.
* ``E-dma-leak`` — an offload entry returns with transfers in flight
  (nothing on the host can ever wait for them).
* ``E-dma-orphan-wait`` — a wait on a tag no path ever issued.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.analysis.dataflow import (
    BasicBlock,
    ForwardAnalysis,
    Summaries,
    SymAddr,
    build_cfg,
    call_targets,
    eval_value_instr,
    freeze_values,
    join_values,
    solve_call_graph,
    solve_forward,
    thaw_values,
)
from repro.analysis.diagnostics import Finding, RelatedLocation
from repro.ir.instructions import Call, DomainCall, ICall, Intrinsic, Ret
from repro.ir.module import IRFunction, IRProgram
from repro.machine.dma import race_location


@dataclass(frozen=True)
class PendingTransfer:
    """One issued, un-waited DMA transfer in the abstract state."""

    kind: str  # "get" | "put"
    tag: Optional[int]  # None when not statically known
    local: Optional[SymAddr]
    outer: Optional[SymAddr]
    size: Optional[int]
    index: int  # issuing instruction index (in ``origin``)
    origin: str  # function the transfer was issued in


@dataclass(frozen=True)
class DmaState:
    """The abstract state at one program point (immutable, hashable)."""

    values: tuple  # freeze_values() of the register map
    pending: frozenset  # of PendingTransfer
    issued: frozenset  # of int tags possibly issued
    unknown_issue: bool  # a dynamic callee / unknown tag may have issued
    waited: frozenset  # of int tags waited on EVERY path so far
    waits_all: bool  # an all-fencing wait happened on every path


EMPTY_STATE = DmaState(
    values=(),
    pending=frozenset(),
    issued=frozenset(),
    unknown_issue=False,
    waited=frozenset(),
    waits_all=False,
)


@dataclass(frozen=True)
class FunctionSummary:
    """What one accelerator function may do to the DMA state.

    ``must_wait_tags`` / ``waits_all`` hold on *every* path through the
    function, so a caller may treat them as fences; ``issued_tags``,
    ``unknown_issue`` and ``leaked`` are may-information.
    """

    issued_tags: frozenset
    unknown_issue: bool
    leaked: tuple  # of PendingTransfer possibly in flight at return
    must_wait_tags: frozenset
    waits_all: bool


#: Conservative summary for callees not yet computed (cycles) or not
#: analysable: assumes no fencing and an unknown issue source.
UNKNOWN_SUMMARY = FunctionSummary(
    issued_tags=frozenset(),
    unknown_issue=True,
    leaked=(),
    must_wait_tags=frozenset(),
    waits_all=False,
)


def _ranges_overlap(
    a: Optional[SymAddr],
    a_size: Optional[int],
    b: Optional[SymAddr],
    b_size: Optional[int],
) -> bool:
    """Conservative overlap test over symbolic addresses.

    Unknown provenance (``None``) never overlaps — distinct opaque
    sources stay quiet, matching the seed analysis.  Within one region,
    an unknown (widened) offset or size counts as overlapping.
    """
    if a is None or b is None:
        return False
    if a.region != b.region:
        return False
    if a.offset is None or b.offset is None:
        return True
    if a_size is None or b_size is None:
        return True
    return a.offset < b.offset + b_size and b.offset < a.offset + a_size


def _conflict(earlier: PendingTransfer, later: PendingTransfer) -> Optional[str]:
    """The DMA engine's own rules (:func:`repro.machine.dma.race_location`)
    over the symbolic ranges."""
    return race_location(
        earlier.kind,
        later.kind,
        _ranges_overlap(earlier.outer, earlier.size, later.outer, later.size),
        _ranges_overlap(earlier.local, earlier.size, later.local, later.size),
    )


def _join_addr(a: Optional[SymAddr], b: Optional[SymAddr]) -> Optional[SymAddr]:
    if a == b:
        return a
    if a is None or b is None:
        return None
    if a.region == b.region:
        return SymAddr(a.region, None)
    return None


def _collapse_pending(pending: frozenset) -> frozenset:
    """Bound loop-carried growth: transfers issued at the same
    instruction (same origin/index) are merged, widening any field the
    paths disagree on.  This is the analysis' widening operator — the
    pending set is thereby at most one entry per DMA instruction."""
    by_site: dict[tuple[str, int], PendingTransfer] = {}
    for t in pending:
        key = (t.origin, t.index)
        held = by_site.get(key)
        if held is None:
            by_site[key] = t
            continue
        by_site[key] = PendingTransfer(
            kind=held.kind,
            tag=held.tag if held.tag == t.tag else None,
            local=_join_addr(held.local, t.local),
            outer=_join_addr(held.outer, t.outer),
            size=held.size if held.size == t.size else None,
            index=held.index,
            origin=held.origin,
        )
    return frozenset(by_site.values())


class DmaDisciplineAnalysis(ForwardAnalysis):
    """The dataflow analysis proper, parameterised by callee summaries.

    ``report`` collects findings during the final reporting pass; during
    fixpoint solving it is None so transient states don't produce
    duplicate diagnostics.
    """

    def __init__(
        self,
        function: IRFunction,
        summaries: dict[str, FunctionSummary],
        accel_names: frozenset,
    ):
        self.function = function
        self.summaries = summaries
        self.accel_names = accel_names
        self.report: Optional[list] = None

    # ------------------------------------------------------------ lattice

    def boundary(self) -> DmaState:
        return EMPTY_STATE

    def join(self, a: DmaState, b: DmaState) -> DmaState:
        return DmaState(
            values=freeze_values(
                join_values(thaw_values(a.values), thaw_values(b.values))
            ),
            pending=_collapse_pending(a.pending | b.pending),
            issued=a.issued | b.issued,
            unknown_issue=a.unknown_issue or b.unknown_issue,
            waited=a.waited & b.waited,
            waits_all=a.waits_all and b.waits_all,
        )

    def widen(self, old: DmaState, new: DmaState, visits: int) -> DmaState:
        # The join already collapses per-site; as a last resort drop all
        # offset precision so the chain is finite even under adversarial
        # address arithmetic.
        widened = frozenset(
            PendingTransfer(
                kind=t.kind,
                tag=t.tag,
                local=t.local.widened() if t.local else None,
                outer=t.outer.widened() if t.outer else None,
                size=None,
                index=t.index,
                origin=t.origin,
            )
            for t in new.pending
        )
        return DmaState(
            values=new.values,
            pending=_collapse_pending(widened),
            issued=new.issued,
            unknown_issue=new.unknown_issue,
            waited=new.waited,
            waits_all=new.waits_all,
        )

    # ----------------------------------------------------------- transfer

    def transfer(self, block: BasicBlock, state: DmaState) -> DmaState:
        values = thaw_values(state.values)
        pending = set(state.pending)
        issued = set(state.issued)
        unknown_issue = state.unknown_issue
        waited = set(state.waited)
        waits_all = state.waits_all
        fn = self.function
        for index, instr in block.instructions(fn):
            if isinstance(instr, Intrinsic) and instr.name in (
                "dma_get",
                "dma_put",
            ):
                local = values.get(instr.args[0])
                outer = values.get(instr.args[1])
                size = values.get(instr.args[2])
                tag = values.get(instr.args[3])
                transfer = PendingTransfer(
                    kind="get" if instr.name == "dma_get" else "put",
                    tag=tag if isinstance(tag, int) else None,
                    local=local if isinstance(local, SymAddr) else None,
                    outer=outer if isinstance(outer, SymAddr) else None,
                    size=size if isinstance(size, int) else None,
                    index=index,
                    origin=fn.name,
                )
                if self.report is not None:
                    for earlier in sorted(
                        pending, key=lambda t: (t.origin, t.index)
                    ):
                        location = _conflict(earlier, transfer)
                        if location is not None:
                            self.report.append(
                                ("race", earlier, transfer, location)
                            )
                pending.add(transfer)
                if isinstance(tag, int):
                    issued.add(tag)
                else:
                    unknown_issue = True
                if instr.dst is not None:
                    values.pop(instr.dst, None)
            elif isinstance(instr, Intrinsic) and instr.name == "dma_wait":
                tag = values.get(instr.args[0])
                if isinstance(tag, int):
                    if (
                        self.report is not None
                        and tag not in issued
                        and not unknown_issue
                    ):
                        self.report.append(("orphan", tag, index))
                    pending = {t for t in pending if t.tag != tag}
                    waited.add(tag)
                else:
                    # Unknown tag: conservatively treat as a full fence
                    # (the seed analysis' behaviour).
                    pending.clear()
                    waits_all = True
                if instr.dst is not None:
                    values.pop(instr.dst, None)
            elif isinstance(instr, Call):
                summary = self._summary_for(instr.callee)
                if summary is not None:
                    if summary.waits_all:
                        pending.clear()
                        waits_all = True
                    elif summary.must_wait_tags:
                        pending = {
                            t
                            for t in pending
                            if t.tag not in summary.must_wait_tags
                        }
                        waited |= summary.must_wait_tags
                    if self.report is not None:
                        for leaked in summary.leaked:
                            for earlier in sorted(
                                pending, key=lambda t: (t.origin, t.index)
                            ):
                                location = _conflict(earlier, leaked)
                                if location is not None:
                                    self.report.append(
                                        ("race", earlier, leaked, location)
                                    )
                    pending.update(summary.leaked)
                    issued |= summary.issued_tags
                    unknown_issue = unknown_issue or summary.unknown_issue
                if instr.dst is not None:
                    values.pop(instr.dst, None)
            elif isinstance(instr, (ICall, DomainCall)):
                # Dynamic dispatch: the duplicate actually invoked is
                # not resolved here; assume it may issue transfers we
                # cannot see (suppresses orphan-wait false positives)
                # but model no fence.
                unknown_issue = True
                if instr.dst is not None:
                    values.pop(instr.dst, None)
            elif isinstance(instr, Ret):
                if self.report is not None and pending:
                    self.report.append(("leak", frozenset(pending), index))
            else:
                eval_value_instr(instr, index, values)
        return DmaState(
            values=freeze_values(values),
            pending=_collapse_pending(frozenset(pending)),
            issued=frozenset(issued),
            unknown_issue=unknown_issue,
            waited=frozenset(waited),
            waits_all=waits_all,
        )

    def _summary_for(self, callee: str) -> Optional[FunctionSummary]:
        if callee in self.summaries:
            return self.summaries[callee]
        if callee in self.accel_names:
            return UNKNOWN_SUMMARY  # cycle / not yet computed
        return None  # host helper: no accel DMA engine involved


# ------------------------------------------------------------- summaries


def _export_transfer(t: PendingTransfer) -> PendingTransfer:
    """Rewrite a leaked transfer for use in callers: the callee's frame
    is not the caller's frame, so frame regions are renamed to a
    callee-qualified region (globals are genuinely shared and kept)."""

    def rewrite(addr: Optional[SymAddr]) -> Optional[SymAddr]:
        if addr is None:
            return None
        if addr.region == "frame" or addr.region.startswith("u:"):
            return SymAddr(f"{addr.region}@{t.origin}", addr.offset)
        return addr

    return PendingTransfer(
        kind=t.kind,
        tag=t.tag,
        local=rewrite(t.local),
        outer=rewrite(t.outer),
        size=t.size,
        index=t.index,
        origin=t.origin,
    )


def _solve(
    function: IRFunction,
    summaries: dict[str, FunctionSummary],
    accel_names: frozenset,
) -> tuple[tuple, FunctionSummary]:
    """The function's solved dataflow as ``(cfg, result)``, and the
    summary read off it: the states at ``Ret``."""
    cfg = build_cfg(function)
    analysis = DmaDisciplineAnalysis(function, summaries, accel_names)
    result = solve_forward(cfg, analysis)
    ret_states: list[DmaState] = []
    for block_index, out_state in result.block_out.items():
        block = cfg.blocks[block_index]
        if block.end > 0 and isinstance(function.code[block.end - 1], Ret):
            ret_states.append(out_state)
    issued: set = set()
    unknown = False
    leaked: set = set()
    must_wait = None
    waits_all = bool(ret_states)
    for state in ret_states:
        issued |= state.issued
        unknown = unknown or state.unknown_issue
        leaked |= {_export_transfer(t) for t in state.pending}
        must_wait = (
            set(state.waited)
            if must_wait is None
            else must_wait & state.waited
        )
        waits_all = waits_all and state.waits_all
    return (cfg, result), FunctionSummary(
        issued_tags=frozenset(issued),
        unknown_issue=unknown,
        leaked=tuple(
            sorted(leaked, key=lambda t: (t.origin, t.index, t.kind))
        ),
        must_wait_tags=frozenset(must_wait or ()),
        waits_all=waits_all,
    )


def compute_summaries(
    functions: list[IRFunction], *, max_rounds: int = 8
) -> Summaries:
    """Fixpoint of per-function summaries over the accel call graph.

    Starts every function at :data:`UNKNOWN_SUMMARY` (sound for cycles)
    and re-summarises until nothing changes; ``max_rounds`` bounds the
    work on pathological graphs.  The result keeps the converged solves
    for :func:`check_function` to report from.
    """
    accel_names = frozenset(f.name for f in functions)
    callees = {f.name: call_targets(f) for f in functions}

    def inputs(function: IRFunction, summaries: dict) -> list:
        return [
            summaries.get(callee, UNKNOWN_SUMMARY)
            for callee in callees[function.name]
        ]

    solve = functools.partial(_solve, accel_names=accel_names)
    return solve_call_graph(functions, inputs, solve, max_rounds=max_rounds)


# -------------------------------------------------------------- reporting


def _is_offload_entry(function: IRFunction) -> bool:
    return function.source_name.startswith("__offload_")


def check_function(
    function: IRFunction,
    summaries: dict[str, FunctionSummary],
    accel_names: frozenset,
    *,
    file: str = "<input>",
) -> list[Finding]:
    """Report DMA-discipline findings for one accelerator function."""
    # Replay the solve compute_summaries kept for it, if there is one.
    held = getattr(summaries, "solved", {}).get(function.name)
    if held is None or held[0].function is not function:
        held, _ = _solve(function, summaries, accel_names)
    cfg, result = held
    analysis = DmaDisciplineAnalysis(function, summaries, accel_names)
    raw: list = []
    analysis.report = raw
    for block_index, in_state in result.block_in.items():
        analysis.transfer(cfg.blocks[block_index], in_state)
    findings: list[Finding] = []
    seen: set = set()
    for item in raw:
        if item[0] == "race":
            _, earlier, later, location = item
            key = ("race", earlier.origin, earlier.index, later.index, location)
            if key in seen:
                continue
            seen.add(key)
            first_at = (
                f"instruction {earlier.index}"
                if earlier.origin == function.name
                else f"instruction {earlier.index} of {earlier.origin}"
            )
            related = (
                RelatedLocation(
                    message=(
                        f"the earlier {earlier.kind} was issued here"
                    ),
                    file=file,
                    function=earlier.origin,
                    instr_index=earlier.index,
                ),
            )
            findings.append(
                Finding(
                    code="E-dma-race",
                    message=(
                        f"possible DMA race in {location} memory between "
                        f"the {earlier.kind} at {first_at} and the "
                        f"{later.kind} at instruction {later.index} "
                        f"(no intervening dma_wait on every path)"
                    ),
                    file=file,
                    function=function.name,
                    instr_index=later.index,
                    analysis="dma-discipline",
                    related=related,
                )
            )
        elif item[0] == "orphan":
            _, tag, index = item
            key = ("orphan", index)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    code="E-dma-orphan-wait",
                    message=(
                        f"dma_wait on tag {tag} at instruction {index}, "
                        f"but no execution path issues a transfer with "
                        f"that tag"
                    ),
                    file=file,
                    function=function.name,
                    instr_index=index,
                    analysis="dma-discipline",
                )
            )
        elif item[0] == "leak" and _is_offload_entry(function):
            _, pending, index = item
            for t in sorted(pending, key=lambda t: (t.origin, t.index)):
                key = ("leak", t.origin, t.index)
                if key in seen:
                    continue
                seen.add(key)
                tag_text = f"tag {t.tag}" if t.tag is not None else "unknown tag"
                where = (
                    f"instruction {t.index}"
                    if t.origin == function.name
                    else f"instruction {t.index} of {t.origin}"
                )
                related = (
                    (
                        RelatedLocation(
                            message=(
                                f"the in-flight {t.kind} was issued in "
                                f"this callee"
                            ),
                            file=file,
                            function=t.origin,
                            instr_index=t.index,
                        ),
                    )
                    if t.origin != function.name
                    else ()
                )
                findings.append(
                    Finding(
                        code="E-dma-leak",
                        message=(
                            f"offload block can return while the "
                            f"{t.kind} ({tag_text}) issued at {where} is "
                            f"still in flight; add a dma_wait before the "
                            f"block ends"
                        ),
                        file=file,
                        function=function.name,
                        instr_index=t.index,
                        analysis="dma-discipline",
                        related=related,
                    )
                )
    return findings


def check_program(
    program: IRProgram, *, file: str = "<input>"
) -> list[Finding]:
    """Run the DMA-discipline checker over every accelerator function."""
    functions = program.accel_functions()
    summaries = compute_summaries(functions)
    accel_names = frozenset(f.name for f in functions)
    findings: list[Finding] = []
    for function in sorted(functions, key=lambda f: f.name):
        findings.extend(
            check_function(function, summaries, accel_names, file=file)
        )
    return findings
