"""Static per-offload cycle and DMA-traffic estimation.

This is the "zero-run profile" consumer of the interval layer
(:mod:`repro.analysis.intervals`): loop trip-count bounds × the
machine's :class:`~repro.machine.config.CostModel` give a cycle and
DMA-byte *interval* for every offload entry without simulating a
single instruction.  Two consumers:

* the static-vs-dynamic agreement tests hold the predicted DMA bytes
  against the measured ``RunReport`` counters (exactly, for fully
  bounded uncached loops);
* ``repro.tools.check`` reports ``W-cost-unbounded`` when a loop in
  offloaded code cannot be bounded — on a local-store machine an
  unbounded loop means unbounded traffic, the paper's central resource.

The model deliberately mirrors how the interpreter charges cycles
(ALU/branch/call costs, ``local_access`` vs ``host_mem_access``, DMA
setup + latency + size/bandwidth) but does not try to be cycle-exact:
cycles form an *interval* whose upper bound orders offloads the same
way a measured profile does.  DMA **bytes** are exact where the loop
analysis is exact, because transfer sizes are architectural facts —
``dma_get``/``acc_bulk_*`` sizes and raw outer access widths — not
micro-architectural ones.

Block execution counts come from natural-loop trip bounds: a block
executes ``Π trips(L)`` for its enclosing loops (headers run one extra
trip for the exit test); the product's lower bound applies only when
the block provably runs every iteration (it is a header or dominates
every latch) and the outermost header dominates every function exit.
Everything else keeps a sound ``0`` lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import Finding, RelatedLocation
from repro.analysis.intervals import (
    AbsInt,
    Interval,
    SolvedFunction,
    compute_summaries,
    loop_trips,
    solved_function,
)
from repro.ir import ops
from repro.ir.instructions import (
    AccSpace,
    BinOp,
    Call,
    CJump,
    Const,
    Copy,
    DomainCall,
    FrameAddr,
    GlobalAddr,
    ICall,
    Intrinsic,
    Jump,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import IRFunction, IRProgram, OffloadMeta
from repro.machine.config import MachineConfig
from repro.vm.context import CACHE_LINE_SIZE

#: ``(lo, hi)`` with ``hi is None`` meaning unbounded.  Internal form;
#: results surface as :class:`repro.analysis.intervals.Interval`.
_Bounds = tuple[int, Optional[int]]

_ZERO: _Bounds = (0, 0)


def _add(a: _Bounds, b: _Bounds) -> _Bounds:
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (a[0] + b[0], hi)


def _scale(a: _Bounds, count: _Bounds) -> _Bounds:
    hi = None if a[1] is None or count[1] is None else a[1] * count[1]
    return (a[0] * count[0], hi)


def _join(a: _Bounds, b: _Bounds) -> _Bounds:
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (min(a[0], b[0]), hi)


def _interval(b: _Bounds) -> Interval:
    return Interval(b[0], b[1])


@dataclass(frozen=True)
class FunctionCost:
    """Per-invocation cost interval of one accel function (callees
    included)."""

    name: str
    cycles: Interval
    get_bytes: Interval
    put_bytes: Interval
    #: ``(function name, header instruction index)`` of every natural
    #: loop whose trip count the interval analysis could not bound.
    unbounded_loops: tuple[tuple[str, int], ...] = ()

    @property
    def bounded(self) -> bool:
        return self.cycles.hi is not None


@dataclass(frozen=True)
class OffloadCost:
    """Static cost of one offload body (entry function, transitively)."""

    offload_id: int
    entry: str
    cycles: Interval
    get_bytes: Interval
    put_bytes: Interval
    unbounded_loops: tuple[tuple[str, int], ...] = ()

    @property
    def bounded(self) -> bool:
        return self.cycles.hi is not None


def _block_counts(
    solved: SolvedFunction,
) -> tuple[dict[int, _Bounds], list[tuple[int, TripCountLike]]]:
    """Execution-count bounds per reachable block, plus per-loop trips.

    Returns ``(counts, loops)`` where ``loops`` pairs each natural
    loop's header *instruction* index with its trip bounds (``None``
    max = unbounded) so callers can report unbounded loops by site.
    """
    cfg = solved.cfg
    loops = cfg.natural_loops()
    trips = {loop: loop_trips(solved, loop) for loop in loops}
    doms = cfg.dominators()
    latches: dict[int, list[int]] = {}
    for u, header in cfg.back_edges():
        latches.setdefault(header, []).append(u)
    exits = [
        b.index
        for b in cfg.blocks
        if not b.succs and b.index in set(cfg.reverse_postorder())
    ]

    counts: dict[int, _Bounds] = {}
    for index in cfg.reverse_postorder():
        enclosing = sorted(
            (loop for loop in loops if index in loop.body),
            key=lambda loop: len(loop.body),
        )
        lo, hi = 1, 1
        for loop in enclosing:
            t = trips[loop]
            extra = 1 if index == loop.header else 0
            lo *= t.min_trips + extra
            hi = (
                None
                if hi is None or t.max_trips is None
                else hi * (t.max_trips + extra)
            )
        # The product's lower bound only holds when this block provably
        # runs on every trip of every enclosing loop *and* control
        # provably enters the region at all.
        every_trip = all(
            index == loop.header
            or all(index in doms[latch] for latch in latches.get(loop.header, []))
            for loop in enclosing
        )
        anchor = enclosing[-1].header if enclosing else index
        reaches_exit = bool(exits) and all(anchor in doms[e] for e in exits)
        if not (every_trip and reaches_exit):
            lo = 0
        counts[index] = (lo, hi)
    loop_sites = [
        (cfg.blocks[loop.header].start, trips[loop]) for loop in loops
    ]
    return counts, loop_sites


# loop_trips returns TripCount; alias for the annotation above without
# importing it as a runtime dependency of the docstring.
TripCountLike = object


def _dma_transfer_cycles(config: MachineConfig, size: Optional[int]) -> _Bounds:
    cost = config.cost
    if size is None:
        return (cost.dma_setup + cost.dma_latency, None)
    wire = -(-size // cost.dma_bytes_per_cycle) if cost.dma_bytes_per_cycle else 0
    total = cost.dma_setup + cost.dma_latency + wire
    return (total, total)


class _OffloadCostBuilder:
    """Memoized interprocedural walk of one offload's call graph."""

    def __init__(
        self,
        program: IRProgram,
        meta: OffloadMeta,
        config: MachineConfig,
        summaries,
    ) -> None:
        self.program = program
        self.meta = meta
        self.config = config
        self.summaries = summaries
        self.memo: dict[str, FunctionCost] = {}
        self.stack: list[str] = []
        self.cached = meta.cache_kind is not None

    def _outer_access(self, size: int) -> tuple[_Bounds, _Bounds]:
        """(cycles, dma-get-equivalent bytes) of one raw outer access.

        On shared-memory machines outer access is a plain (cheap) load;
        with a software cache the DMA happens only on a miss, so bytes
        are ``[0, line]`` per access; raw DMA staging moves exactly the
        access width every time.
        """
        cost = self.config.cost
        if self.config.shared_memory:
            return ((cost.host_mem_access, cost.host_mem_access), _ZERO)
        if self.cached:
            probe = (cost.cache_probe, cost.cache_probe)
            miss = _dma_transfer_cycles(self.config, CACHE_LINE_SIZE)
            return (
                (probe[0], None if miss[1] is None else probe[1] + miss[1]),
                (0, CACHE_LINE_SIZE),
            )
        return (_dma_transfer_cycles(self.config, size), (size, size))

    def function_cost(self, name: str) -> FunctionCost:
        if name in self.memo:
            return self.memo[name]
        function = self.program.functions.get(name)
        if function is None or name in self.stack:
            # Unknown callee or recursion: sound but open-ended.
            return FunctionCost(
                name=name,
                cycles=Interval(0, None),
                get_bytes=Interval(0, None),
                put_bytes=Interval(0, None),
                unbounded_loops=((name, 0),) if name in self.stack else (),
            )
        self.stack.append(name)
        try:
            result = self._cost_of(function)
        finally:
            self.stack.pop()
        self.memo[name] = result
        return result

    def _cost_of(self, function: IRFunction) -> FunctionCost:
        solved = solved_function(function, self.summaries)
        counts, loop_sites = _block_counts(solved)
        cost = self.config.cost
        cycles: _Bounds = _ZERO
        get_bytes: _Bounds = _ZERO
        put_bytes: _Bounds = _ZERO
        unbounded = [
            (function.name, header_index)
            for header_index, t in loop_sites
            if t.max_trips is None
        ]
        for block in solved.cfg.blocks:
            count = counts.get(block.index)
            if count is None:  # unreachable
                continue
            b_cycles: _Bounds = _ZERO
            b_get: _Bounds = _ZERO
            b_put: _Bounds = _ZERO
            for index in range(block.start, block.end):
                instr = function.code[index]
                c, g, p, u = self._instr_cost(solved, function, index, instr)
                b_cycles = _add(b_cycles, c)
                b_get = _add(b_get, g)
                b_put = _add(b_put, p)
                unbounded.extend(u)
            cycles = _add(cycles, _scale(b_cycles, count))
            get_bytes = _add(get_bytes, _scale(b_get, count))
            put_bytes = _add(put_bytes, _scale(b_put, count))
        return FunctionCost(
            name=function.name,
            cycles=_interval(cycles),
            get_bytes=_interval(get_bytes),
            put_bytes=_interval(put_bytes),
            unbounded_loops=tuple(dict.fromkeys(unbounded)),
        )

    def _instr_cost(
        self,
        solved: SolvedFunction,
        function: IRFunction,
        index: int,
        instr,
    ) -> tuple[_Bounds, _Bounds, _Bounds, list[tuple[str, int]]]:
        """(cycles, get bytes, put bytes, callee unbounded-loop sites)."""
        cost = self.config.cost
        alu = (cost.alu, cost.alu)
        if isinstance(instr, (Const, Move, BinOp, UnOp, FrameAddr, GlobalAddr)):
            return alu, _ZERO, _ZERO, []
        if isinstance(instr, (Jump, CJump)):
            return (cost.branch, cost.branch), _ZERO, _ZERO, []
        if isinstance(instr, Ret):
            return (cost.ret, cost.ret), _ZERO, _ZERO, []
        if isinstance(instr, Load):
            if instr.space is AccSpace.OUTER:
                c, bytes_ = self._outer_access(instr.size)
                return c, bytes_, _ZERO, []
            w = (
                cost.local_access
                if instr.space is AccSpace.LOCAL
                else cost.host_mem_access
            )
            return (w, w), _ZERO, _ZERO, []
        if isinstance(instr, Store):
            if instr.space is AccSpace.OUTER:
                c, bytes_ = self._outer_access(instr.size)
                return c, _ZERO, bytes_, []
            w = (
                cost.local_access
                if instr.space is AccSpace.LOCAL
                else cost.host_mem_access
            )
            return (w, w), _ZERO, _ZERO, []
        if isinstance(instr, Copy):
            size = instr.size if not instr.size_reg else None
            crossing = instr.dst_space is not instr.src_space
            if crossing and not self.config.shared_memory:
                return _dma_transfer_cycles(self.config, size), _ZERO, _ZERO, []
            w = cost.host_mem_access
            return (w, None if size is None else w + size), _ZERO, _ZERO, []
        if isinstance(instr, Call):
            callee = self.function_cost(instr.callee)
            base = (cost.call, cost.call)
            return (
                _add(base, _as_bounds(callee.cycles)),
                _as_bounds(callee.get_bytes),
                _as_bounds(callee.put_bytes),
                list(callee.unbounded_loops),
            )
        if isinstance(instr, DomainCall):
            targets = sorted(
                {
                    entry.target
                    for row in self.meta.domain.inner
                    for entry in row
                    if isinstance(entry.target, str)
                    and entry.target in self.program.functions
                }
            )
            dispatch = cost.call + cost.domain_probe + cost.inner_domain_probe
            base = (dispatch, dispatch)
            if not targets:
                return base, _ZERO, _ZERO, []
            cyc = gb = pb = None
            unbounded: list[tuple[str, int]] = []
            for target in targets:
                callee = self.function_cost(target)
                c = _as_bounds(callee.cycles)
                g = _as_bounds(callee.get_bytes)
                p = _as_bounds(callee.put_bytes)
                cyc = c if cyc is None else _join(cyc, c)
                gb = g if gb is None else _join(gb, g)
                pb = p if pb is None else _join(pb, p)
                unbounded.extend(callee.unbounded_loops)
            return _add(base, cyc), gb, pb, unbounded
        if isinstance(instr, ICall):
            # Host-style indirect call in accel code: target unknowable.
            return (cost.vtable_load + cost.call, None), _ZERO, _ZERO, []
        if isinstance(instr, Intrinsic):
            return self._intrinsic_cost(solved, index, instr)
        # Launch/join and anything unmodeled: charge nothing rather than
        # guess; offload bodies contain none of these today.
        return _ZERO, _ZERO, _ZERO, []

    def _intrinsic_cost(
        self, solved: SolvedFunction, index: int, instr: Intrinsic
    ) -> tuple[_Bounds, _Bounds, _Bounds, list[tuple[str, int]]]:
        cost = self.config.cost
        name = instr.name
        if name in ("dma_get", "dma_put", "acc_bulk_get", "acc_bulk_put"):
            regs = solved.values_before(index)
            size_val = regs.get(instr.args[2])
            size_bounds: _Bounds = (0, None)
            if isinstance(size_val, AbsInt):
                iv = size_val.interval
                size_bounds = (max(iv.lo or 0, 0), iv.hi)
            if name in ("dma_get", "dma_put"):
                # Issue cost only; the latency bill arrives at dma_wait.
                cycles: _Bounds = (cost.dma_setup, cost.dma_setup)
            else:
                cycles = _dma_transfer_cycles(
                    self.config, size_bounds[1]
                )
                cycles = (
                    _dma_transfer_cycles(self.config, size_bounds[0])[0],
                    cycles[1],
                )
            if self.config.shared_memory:
                return cycles, _ZERO, _ZERO, []
            if name.endswith("get"):
                return cycles, size_bounds, _ZERO, []
            return cycles, _ZERO, size_bounds, []
        if name == "dma_wait":
            # Worst case the transfer just issued: full latency remains.
            return (0, cost.dma_latency), _ZERO, _ZERO, []
        pure = ops.INTRINSICS.get(name)
        w = (pure.weight if pure else 1) * cost.alu
        return (w, w), _ZERO, _ZERO, []


def _as_bounds(interval: Interval) -> _Bounds:
    return (interval.lo if interval.lo is not None else 0, interval.hi)


def estimate_offload(
    program: IRProgram,
    meta: OffloadMeta,
    config: MachineConfig,
    *,
    summaries=None,
) -> OffloadCost:
    """Static cost interval for one offload body."""
    if summaries is None:
        summaries = compute_summaries(
            sorted(program.accel_functions(), key=lambda f: f.name)
        )
    builder = _OffloadCostBuilder(program, meta, config, summaries)
    entry = builder.function_cost(meta.entry)
    return OffloadCost(
        offload_id=meta.offload_id,
        entry=meta.entry,
        cycles=entry.cycles,
        get_bytes=entry.get_bytes,
        put_bytes=entry.put_bytes,
        unbounded_loops=entry.unbounded_loops,
    )


def estimate_program(
    program: IRProgram, config: MachineConfig, *, summaries=None
) -> dict[int, OffloadCost]:
    """Static cost intervals for every offload, keyed by offload id;
    ``summaries``: the accel functions' interval summaries, if held."""
    if summaries is None:
        summaries = compute_summaries(
            sorted(program.accel_functions(), key=lambda f: f.name)
        )
    return {
        offload_id: estimate_offload(
            program, meta, config, summaries=summaries
        )
        for offload_id, meta in sorted(program.offload_meta.items())
    }


def check_program(
    program: IRProgram,
    config: MachineConfig,
    *,
    summaries=None,
    file: str = "<input>",
) -> list[Finding]:
    """``W-cost-unbounded`` findings: loops in offloaded code whose trip
    counts the interval analysis could not bound."""
    findings: list[Finding] = []
    seen: set[tuple[str, int]] = set()
    estimates = estimate_program(program, config, summaries=summaries)
    for offload_id, oc in estimates.items():
        for function_name, header_index in oc.unbounded_loops:
            if (function_name, header_index) in seen:
                continue
            seen.add((function_name, header_index))
            findings.append(
                Finding(
                    code="W-cost-unbounded",
                    message=(
                        f"loop at instruction {header_index} in "
                        f"{function_name} cannot be statically bounded; "
                        f"cycle and DMA-traffic estimates for offload "
                        f"{offload_id} are open-ended"
                    ),
                    file=file,
                    function=function_name,
                    instr_index=header_index,
                    notes=(
                        "bound the loop with a compile-time constant "
                        "trip count (or a provable induction pattern) so "
                        "the static cost model can place this offload "
                        "without a profiling run",
                    ),
                    analysis="cost",
                    related=(
                        RelatedLocation(
                            message=f"offload {offload_id} entry",
                            file=file,
                            function=oc.entry,
                            instr_index=0,
                        ),
                    ),
                )
            )
    return findings
