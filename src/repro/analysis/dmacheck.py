"""Flow-sensitive, interprocedural DMA-discipline checking.

The static side of the paper's DMA race tooling (Scratch, TACAS 2010):
this checker runs the abstract semantics through the dataflow framework
(:mod:`repro.analysis.dataflow`), so the set of issued-but-unwaited
transfers flows *across* branches and around loop back edges.  The
Figure 1 collision pattern with a forgotten wait between iterations —
which a per-basic-block analysis provably misses — is reported
statically here.

Abstract state per program point:

* the set of in-flight :class:`PendingTransfer` records,
* the set of DMA tags possibly issued so far (orphan-wait detection),
* the set of tags *definitely* waited on every path (summaries).

Register values are not part of that state: every DMA operand is read
from the function's interval solve (:mod:`repro.analysis.intervals`),
the one solve the bounds checker and the cost model read too.  Joins
union the pending set (a transfer in flight on either path may be in
flight at the merge), union issued tags and intersect waited tags.  As
the operands come from a converged solve, each DMA site issues one
fixed transfer, so the pending sets are subsets of a finite set and
the fixpoint needs no widening.

Overlap is decided on :class:`~repro.analysis.intervals.AbsAddr`
ranges.  Two addresses in one region with bounded offsets overlap when
their ``[lo, hi + size)`` ranges do.  An unbounded offset comes from
one of two places.  A pointer stepped through a loop (the join of its
assignments) may lie anywhere in its region, and overlaps everything
there.  An address
indexed by an unknown value is opaque: its region is renamed after the
register that added the index, so two such addresses overlap only when
they are built on one computed value (a pointer reused by two
transfers), and distinct unknown sources stay quiet.  Blocks the
interval solve proves dead get no state.

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

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.analysis.dataflow import (
    BasicBlock,
    ForwardAnalysis,
    Summaries,
    call_targets,
    solve_call_graph,
    solve_forward,
)
from repro.analysis.diagnostics import Finding, RelatedLocation
from repro.analysis.intervals import (
    AbsAddr,
    AbsInt,
    SolvedFunction,
    compute_summaries as interval_summaries,
    solved_function,
)
from repro.ir.instructions import BinOp, Call, DomainCall, ICall, Intrinsic, Move, Ret
from repro.ir.module import IRFunction, IRProgram
from repro.machine.dma import race_location


@dataclass(frozen=True)
class PendingTransfer:
    """One issued, un-waited DMA transfer in the abstract state."""

    kind: str  # "get" | "put"
    tag: Optional[int]  # None when not statically known
    local: Optional[AbsAddr]
    outer: Optional[AbsAddr]
    size: Optional[int]
    index: int  # issuing instruction index (in ``origin``)
    origin: str  # function the transfer was issued in


@dataclass(frozen=True)
class DmaState:
    """The abstract state at one program point (immutable, hashable)."""

    pending: frozenset  # of PendingTransfer
    issued: frozenset  # of int tags possibly issued
    unknown_issue: bool  # a dynamic callee / unknown tag may have issued
    waited: frozenset  # of int tags waited on EVERY path so far
    waits_all: bool  # an all-fencing wait happened on every path


EMPTY_STATE = DmaState(frozenset(), frozenset(), False, frozenset(), False)


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
    a: Optional[AbsAddr],
    a_size: Optional[int],
    b: Optional[AbsAddr],
    b_size: Optional[int],
) -> bool:
    """Conservative overlap test over abstract addresses.

    Unknown provenance (``None``) never overlaps — distinct opaque
    sources stay quiet, matching the seed analysis.  Within one region,
    an unbounded offset or an unknown size counts as overlapping.
    """
    if a is None or b is None or a.region != b.region:
        return False
    ia, ib = a.offset.interval, b.offset.interval
    if a_size is None or b_size is None or not (ia.bounded and ib.bounded):
        return True
    return ia.lo < ib.hi + b_size and ib.lo < ia.hi + a_size


def _conflict(earlier: PendingTransfer, later: PendingTransfer) -> Optional[str]:
    """The DMA engine's own rules (:func:`repro.machine.dma.race_location`)
    over the symbolic ranges."""
    return race_location(
        earlier.kind,
        later.kind,
        _ranges_overlap(earlier.outer, earlier.size, later.outer, later.size),
        _ranges_overlap(earlier.local, earlier.size, later.local, later.size),
    )


def _constant(value) -> Optional[int]:
    return value.const_value if type(value) is AbsInt else None


def _address(value, reg: int, copies: dict, source) -> Optional[AbsAddr]:
    """An operand's address for overlap tests (None: not an address).
    An unbounded offset says nothing about where in the region the
    address lies.  When an unknown index made it so, the region is
    renamed after the register that added the index (``source``, see
    :func:`_index_sources`): only addresses built on that one value then
    overlap.  A pointer stepped through a loop stays in its region."""
    if type(value) is not AbsAddr:
        return None
    if value.offset.interval.bounded:
        return value
    indexed = source(copies.get(reg, reg))
    if indexed is None:
        return value
    return AbsAddr(f"{value.region}~r{indexed}", value.offset)


def _index_sources(solved: SolvedFunction):
    """``source(root)`` for an address with an unbounded offset held in
    the copy-class root ``root``: the register that indexed an address
    by an unknown amount, or None when the bounds were lost joining the
    assignments of a pointer variable (a register defined more than
    once, or a copy the join dropped) — a pointer stepped through a
    loop.  Adding a constant keeps the source of the address."""
    code = solved.function.code
    known: dict[int, Optional[int]] = {}

    def source(root: int) -> Optional[int]:
        if root in known:
            return known[root]
        known[root] = root  # a register stepping itself stays opaque
        defs = [i for i, ins in enumerate(code) if getattr(ins, "dst", None) == root]
        if len(defs) > 1 or (defs and type(code[defs[0]]) is Move):
            known[root] = None
        elif defs and type(code[defs[0]]) is BinOp:
            at = defs[0]
            for index, instr, regs, copies in solved.walk(solved.cfg.block_at(at)):
                if index < at:
                    continue
                for base, step in ((instr.a, instr.b), (instr.b, instr.a)):
                    addr, delta = regs.get(base), regs.get(step)
                    if type(addr) is AbsAddr and _constant(delta) is not None:
                        known[root] = source(copies.get(base, base))
                break
        return known[root]

    return source


_DMA_OPS = frozenset(("dma_get", "dma_put", "dma_wait"))


def _read_sites(solved: SolvedFunction) -> dict[int, object]:
    """Per DMA intrinsic of the solved function, by instruction index:
    a get's or put's :class:`PendingTransfer`, a wait's tag (None: not a
    known constant).  Operands are read from the interval solve's block
    states, also from those of a solve that did not converge; a block
    with no state is dead and has no sites."""
    function, cfg = solved.function, solved.cfg
    blocks = {
        cfg.block_at(index).index
        for index, instr in enumerate(function.code)
        if type(instr) is Intrinsic and instr.name in _DMA_OPS
    }
    sites: dict[int, object] = {}
    source = _index_sources(solved)
    for block in map(cfg.blocks.__getitem__, sorted(blocks)):
        for index, instr, regs, copies in solved.walk(block):
            if type(instr) is not Intrinsic or instr.name not in _DMA_OPS:
                continue
            if instr.name == "dma_wait":
                sites[index] = _constant(regs.get(instr.args[0]))
                continue
            local, outer, size, tag = instr.args[:4]
            sites[index] = PendingTransfer(
                kind="get" if instr.name == "dma_get" else "put",
                tag=_constant(regs.get(tag)),
                local=_address(regs.get(local), local, copies, source),
                outer=_address(regs.get(outer), outer, copies, source),
                size=_constant(regs.get(size)),
                index=index,
                origin=function.name,
            )
    return sites


class DmaDisciplineAnalysis(ForwardAnalysis):
    """The dataflow analysis proper, parameterised by callee summaries
    and the function's DMA sites (:func:`_read_sites`).

    ``live`` — the blocks the interval solve reached; the others are
    dead code and get no state.
    ``report`` collects findings during the final reporting pass; during
    fixpoint solving it is None so transient states don't produce
    duplicate diagnostics.
    """

    def __init__(
        self,
        function: IRFunction,
        summaries: dict[str, FunctionSummary],
        accel_names: frozenset,
        sites: dict[int, object],
        live: dict,
    ):
        self.function = function
        self.summaries = summaries
        self.accel_names = accel_names
        self.sites = sites
        self.live = live
        self.report: Optional[list] = None

    # ------------------------------------------------------------ lattice

    def boundary(self) -> DmaState:
        return EMPTY_STATE

    def join(self, a: DmaState, b: DmaState) -> DmaState:
        return DmaState(
            pending=a.pending | b.pending,
            issued=a.issued | b.issued,
            unknown_issue=a.unknown_issue or b.unknown_issue,
            waited=a.waited & b.waited,
            waits_all=a.waits_all and b.waits_all,
        )

    def edge(self, pred: BasicBlock, succ_index: int, state: DmaState):
        return state if succ_index in self.live else None

    # ----------------------------------------------------------- transfer

    def transfer(self, block: BasicBlock, state: DmaState) -> DmaState:
        pending = set(state.pending)
        issued = set(state.issued)
        unknown_issue = state.unknown_issue
        waited = set(state.waited)
        waits_all = state.waits_all
        for index, instr in block.instructions(self.function):
            if isinstance(instr, Intrinsic) and instr.name in (
                "dma_get",
                "dma_put",
            ):
                transfer = self.sites[index]
                self._report_races(pending, transfer)
                pending.add(transfer)
                if transfer.tag is not None:
                    issued.add(transfer.tag)
                else:
                    unknown_issue = True
            elif isinstance(instr, Intrinsic) and instr.name == "dma_wait":
                tag = self.sites[index]
                if tag is not None:
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
                    for leaked in summary.leaked:
                        self._report_races(pending, leaked)
                    pending.update(summary.leaked)
                    issued |= summary.issued_tags
                    unknown_issue = unknown_issue or summary.unknown_issue
            elif isinstance(instr, (ICall, DomainCall)):
                # Dynamic dispatch: the duplicate actually invoked is
                # not resolved here; assume it may issue transfers we
                # cannot see (suppresses orphan-wait false positives)
                # but model no fence.
                unknown_issue = True
            elif isinstance(instr, Ret):
                if self.report is not None and pending:
                    self.report.append(("leak", frozenset(pending), index))
        return DmaState(
            pending=frozenset(pending),
            issued=frozenset(issued),
            unknown_issue=unknown_issue,
            waited=frozenset(waited),
            waits_all=waits_all,
        )

    def _report_races(self, pending: set, later: PendingTransfer) -> None:
        if self.report is None:
            return
        for earlier in sorted(pending, key=lambda t: (t.origin, t.index)):
            location = _conflict(earlier, later)
            if location is not None:
                self.report.append(("race", earlier, later, location))

    def _summary_for(self, callee: str) -> Optional[FunctionSummary]:
        if callee in self.summaries:
            return self.summaries[callee]
        if callee in self.accel_names:
            return UNKNOWN_SUMMARY  # cycle / not yet computed
        return None  # host helper: no accel DMA engine involved


# ------------------------------------------------------------- summaries


def _export_transfer(t: PendingTransfer) -> PendingTransfer:
    """Rewrite a leaked transfer for use in callers: the callee's frame
    is not the caller's frame, nor are its registers the caller's, so
    frame regions and opaque (register-keyed) regions are renamed to a
    callee-qualified region (globals are genuinely shared and kept)."""

    def rewrite(addr: Optional[AbsAddr]) -> Optional[AbsAddr]:
        if addr is None or "@" in addr.region:
            return addr
        if addr.region == "frame" or "~" in addr.region:
            return AbsAddr(f"{addr.region}@{t.origin}", addr.offset)
        return addr

    return dataclasses.replace(t, local=rewrite(t.local), outer=rewrite(t.outer))


def _solve(
    solved: SolvedFunction,
    sites: dict[int, object],
    summaries: dict[str, FunctionSummary],
    accel_names: frozenset,
) -> tuple[tuple, FunctionSummary]:
    """The function's solved dataflow over its interval solve's CFG, as
    ``(solved, sites, result)``, and the summary read off it: the
    states at ``Ret``."""
    function, cfg = solved.function, solved.cfg
    analysis = DmaDisciplineAnalysis(
        function, summaries, accel_names, sites, solved.result.block_in
    )
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
    return (solved, sites, result), FunctionSummary(
        issued_tags=frozenset(issued),
        unknown_issue=unknown,
        leaked=tuple(
            sorted(leaked, key=lambda t: (t.origin, t.index, t.kind))
        ),
        must_wait_tags=frozenset(must_wait or ()),
        waits_all=waits_all,
    )


def compute_summaries(
    functions: list[IRFunction], ivals: dict, *, max_rounds: int = 8
) -> Summaries:
    """Fixpoint of per-function summaries over the accel call graph.

    ``ivals`` — the interval summaries of the same functions
    (:func:`repro.analysis.intervals.compute_summaries`) — supply each
    function's solve, read once for its DMA operands.  Starts every
    function at :data:`UNKNOWN_SUMMARY` (sound for cycles) and
    re-summarises until nothing changes; ``max_rounds`` bounds the work
    on pathological graphs.  The result keeps the converged solves for
    :func:`check_function` to report from.
    """
    accel_names = frozenset(f.name for f in functions)
    callees = {f.name: call_targets(f) for f in functions}
    read: dict[str, tuple] = {}

    def inputs(function: IRFunction, summaries: dict) -> list:
        return [
            summaries.get(callee, UNKNOWN_SUMMARY)
            for callee in callees[function.name]
        ]

    def solve(function: IRFunction, summaries: dict) -> tuple:
        held = read.get(function.name)
        if held is None:
            solved = solved_function(function, ivals)
            held = read[function.name] = solved, _read_sites(solved)
        return _solve(*held, summaries, accel_names)

    return solve_call_graph(functions, inputs, solve, max_rounds=max_rounds)


# -------------------------------------------------------------- reporting


def _is_offload_entry(function: IRFunction) -> bool:
    return function.source_name.startswith("__offload_")


def check_function(
    function: IRFunction,
    summaries: dict[str, FunctionSummary],
    accel_names: frozenset,
    ivals: dict,
    *,
    file: str = "<input>",
) -> list[Finding]:
    """Report DMA-discipline findings for one accelerator function;
    ``ivals`` are the interval summaries ``summaries`` were solved with."""
    # Replay the solve compute_summaries kept for it, if there is one.
    held = getattr(summaries, "solved", {}).get(function.name)
    if held is None or held[0].function is not function:
        solved = solved_function(function, ivals)
        held, _ = _solve(solved, _read_sites(solved), summaries, accel_names)
    solved, sites, result = held
    cfg = solved.cfg
    analysis = DmaDisciplineAnalysis(
        function, summaries, accel_names, sites, solved.result.block_in
    )
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
    functions = sorted(program.accel_functions(), key=lambda f: f.name)
    ivals = interval_summaries(functions)
    summaries = compute_summaries(functions, ivals)
    accel_names = frozenset(f.name for f in functions)
    findings: list[Finding] = []
    for function in functions:
        findings.extend(
            check_function(function, summaries, accel_names, ivals, file=file)
        )
    return findings
